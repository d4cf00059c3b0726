#include "vcomp/atpg/cnf.hpp"

#include <gtest/gtest.h>

#include "vcomp/atpg/sat.hpp"
#include "vcomp/atpg/sat_engine.hpp"
#include "vcomp/fault/collapse.hpp"
#include "vcomp/fault/fault_sim.hpp"
#include "vcomp/netgen/example_circuit.hpp"
#include "vcomp/netgen/netgen.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::atpg {
namespace {

using fault::CollapsedFaults;
using fault::DiffSim;
using fault::Fault;
using sim::Trit;
using sim::Word;

Fault by_name(const netlist::Netlist& nl, const CollapsedFaults& cf,
              const std::string& name) {
  for (const auto& f : cf.faults())
    if (fault_name(nl, f) == name) return f;
  ADD_FAILURE() << "fault not found: " << name;
  return {};
}

/// Checks with the independent fault simulator that a (completed) cube
/// detects the fault under full observation.
bool cube_detects(const netlist::Netlist& nl, const Cube& cube,
                  const Fault& f, Rng& rng) {
  DiffSim sim(nl);
  for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
    const Trit t = cube.pi[i];
    const bool v = t == Trit::X ? rng.bit() : (t == Trit::One);
    sim.good().set_input(i, v ? ~Word{0} : Word{0});
  }
  for (std::size_t i = 0; i < nl.num_dffs(); ++i) {
    const Trit t = cube.ppi[i];
    const bool v = t == Trit::X ? rng.bit() : (t == Trit::One);
    sim.good().set_state(i, v ? ~Word{0} : Word{0});
  }
  sim.commit_good();
  return sim.simulate(f).any() != 0;
}

class CnfExample : public ::testing::Test {
 protected:
  CnfExample()
      : nl_(netgen::example_circuit()),
        cf_(fault::collapsed_fault_list(nl_)),
        graph_(sim::EvalGraph::compile(nl_)),
        engine_(graph_) {}

  netlist::Netlist nl_;
  CollapsedFaults cf_;
  sim::EvalGraph::Ref graph_;
  SatEngine engine_;
};

TEST_F(CnfExample, RedundantFaultEncodesUnsat) {
  // E-F/1 is the paper's combinationally redundant fault: its CNF —
  // activation, faulty cone, detection disjunction — must be unsatisfiable
  // with no constraint units at all.
  CnfEncoder enc(graph_);
  Cnf cnf;
  enc.encode(by_name(nl_, cf_, "E-F/1"), nullptr, cnf);
  CdclSolver solver;
  solver.reset(cnf.num_vars);
  solver.load(cnf);
  EXPECT_EQ(solver.solve(), SatResult::Unsat);
}

TEST_F(CnfExample, DetectableFaultEncodesSat) {
  CnfEncoder enc(graph_);
  Cnf cnf;
  enc.encode(by_name(nl_, cf_, "D/0"), nullptr, cnf);
  EXPECT_GT(cnf.num_clauses(), 0u);
  CdclSolver solver;
  solver.reset(cnf.num_vars);
  solver.load(cnf);
  EXPECT_EQ(solver.solve(), SatResult::Sat);
}

TEST_F(CnfExample, SatCubesDetectAllTestableFaults) {
  // The engine must classify every example fault exactly like PODEM does
  // in podem_test.cpp: one redundant fault, the rest Success — and every
  // Success cube must verify against the independent fault simulator.
  Rng rng(77);
  std::size_t redundant = 0;
  for (const auto& f : cf_.faults()) {
    const auto res = engine_.generate(f, nullptr);
    if (res.status == PodemStatus::Untestable) {
      ++redundant;
      EXPECT_EQ(fault_name(nl_, f), "E-F/1");
      continue;
    }
    ASSERT_EQ(res.status, PodemStatus::Success) << fault_name(nl_, f);
    for (int t = 0; t < 4; ++t)
      EXPECT_TRUE(cube_detects(nl_, res.cube, f, rng)) << fault_name(nl_, f);
  }
  EXPECT_EQ(redundant, 1u);
  EXPECT_GT(engine_.last_stats().propagations, 0u);
}

TEST_F(CnfExample, ConstraintUnitsProveConditionalRedundancy) {
  // Constrain C = 1: E/1 needs E = 0, i.e. B = C = 0 — the constraint
  // unit clause must make the formula unsatisfiable.
  PpiConstraints cons;
  cons.fixed = {Trit::X, Trit::X, Trit::One};
  const auto res = engine_.generate(by_name(nl_, cf_, "E/1"), &cons);
  EXPECT_EQ(res.status, PodemStatus::Untestable);
}

TEST_F(CnfExample, PinnedValuesAppearInCube) {
  PpiConstraints cons;
  cons.fixed = {Trit::X, Trit::One, Trit::X};  // B = 1
  const auto res = engine_.generate(by_name(nl_, cf_, "D/0"), &cons);
  ASSERT_EQ(res.status, PodemStatus::Success);
  EXPECT_EQ(res.cube.ppi[1], Trit::One);
}

TEST_F(CnfExample, FullyConstrainedChainLimitsTests) {
  // Mirror of the PODEM test: with every scan cell pinned only the unit
  // clauses decide; TV 110 detects b/0 but cannot detect F/1.
  PpiConstraints all110;
  all110.fixed = {Trit::One, Trit::One, Trit::Zero};
  EXPECT_EQ(engine_.generate(by_name(nl_, cf_, "b/0"), &all110).status,
            PodemStatus::Success);
  EXPECT_EQ(engine_.generate(by_name(nl_, cf_, "F/1"), &all110).status,
            PodemStatus::Untestable);
}

TEST(Cnf, SyntheticCubesVerifyAndAgreeWithPodem) {
  // On a full synthetic benchmark the SAT engine must be definitive on
  // every fault (the cone formulas are tiny), every Success cube must
  // verify in the simulator, and its verdicts must match PODEM's wherever
  // PODEM is definitive too.
  auto nl = netgen::generate("s444");
  auto cf = fault::collapsed_fault_list(nl);
  auto graph = sim::EvalGraph::compile(nl);
  tmeas::Scoap scoap(*graph);
  SatEngine sat(graph);
  Podem podem(graph, scoap);
  Rng rng(123);

  for (const auto& f : cf.faults()) {
    const auto rs = sat.generate(f, nullptr);
    ASSERT_NE(rs.status, PodemStatus::Aborted) << fault_name(nl, f);
    EXPECT_EQ(rs.sat_calls, 1u);
    if (rs.status == PodemStatus::Success) {
      EXPECT_TRUE(cube_detects(nl, rs.cube, f, rng)) << fault_name(nl, f);
    }
    const auto rp = podem.generate(f, nullptr, {.max_backtracks = 1024});
    if (rp.status != PodemStatus::Aborted) {
      EXPECT_EQ(rs.status, rp.status) << fault_name(nl, f);
    }
  }
}

TEST(Cnf, ConflictBudgetMapsToAborted) {
  // A conflict budget of zero means the solver may never learn anything:
  // any fault whose formula is not decided by propagation alone must come
  // back Aborted, never with a wrong verdict.
  auto nl = netgen::generate("s444");
  auto cf = fault::collapsed_fault_list(nl);
  auto graph = sim::EvalGraph::compile(nl);
  SatEngine tight(graph, SatOptions{.max_conflicts = 0});
  SatEngine loose(graph);
  for (std::size_t i = 0; i < cf.size(); i += 7) {
    const auto rt = tight.generate(cf.faults()[i], nullptr);
    if (rt.status == PodemStatus::Aborted) continue;
    EXPECT_EQ(rt.status, loose.generate(cf.faults()[i], nullptr).status);
  }
}

}  // namespace
}  // namespace vcomp::atpg
