#include "vcomp/atpg/engine.hpp"

#include <gtest/gtest.h>

#include "vcomp/fault/collapse.hpp"
#include "vcomp/fault/fault_sim.hpp"
#include "vcomp/netgen/example_circuit.hpp"
#include "vcomp/netgen/netgen.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::atpg {
namespace {

using fault::DiffSim;
using fault::Fault;
using sim::Trit;
using sim::Word;

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

TEST(EngineKindTest, FromString) {
  EngineKind k = EngineKind::Race;
  EXPECT_TRUE(engine_kind_from_string("podem", k));
  EXPECT_EQ(k, EngineKind::Podem);
  EXPECT_TRUE(engine_kind_from_string("sat", k));
  EXPECT_EQ(k, EngineKind::Sat);
  EXPECT_TRUE(engine_kind_from_string("race", k));
  EXPECT_EQ(k, EngineKind::Race);
  EXPECT_FALSE(engine_kind_from_string("auto", k));
  EXPECT_FALSE(engine_kind_from_string("fancy", k));
  EXPECT_FALSE(engine_kind_from_string("", k));
  EXPECT_EQ(k, EngineKind::Race);  // rejected tokens leave it untouched
}

TEST(EngineTest, FactoryProducesNamedEngines) {
  auto nl = netgen::example_circuit();
  auto graph = sim::EvalGraph::compile(nl);
  tmeas::Scoap scoap(*graph);
  EXPECT_EQ(make_engine(EngineKind::Podem, graph, scoap)->name(), "podem");
  EXPECT_EQ(make_engine(EngineKind::Sat, graph, scoap)->name(), "sat");
  EXPECT_EQ(make_engine(EngineKind::Race, graph, scoap)->name(), "race");
}

TEST(EngineTest, PodemEngineMatchesRawPodem) {
  auto nl = netgen::example_circuit();
  auto cf = fault::collapsed_fault_list(nl);
  auto graph = sim::EvalGraph::compile(nl);
  tmeas::Scoap scoap(*graph);
  auto engine = make_engine(EngineKind::Podem, graph, scoap);
  Podem podem(graph, scoap);
  for (const auto& f : cf.faults()) {
    const auto re = engine->generate(f, nullptr);
    const auto rp = podem.generate(f, nullptr);
    EXPECT_EQ(re.status, rp.status) << fault_name(nl, f);
    EXPECT_EQ(re.sat_calls, 0u);
    EXPECT_EQ(re.conflicts, 0u);
  }
}

TEST(EngineTest, RaceNeverTouchesSatWhenPodemIsDefinitive) {
  // On the example circuit PODEM resolves every fault without aborting, so
  // the race engine must never invoke the SAT half.
  auto nl = netgen::example_circuit();
  auto cf = fault::collapsed_fault_list(nl);
  auto graph = sim::EvalGraph::compile(nl);
  tmeas::Scoap scoap(*graph);
  auto race = make_engine(EngineKind::Race, graph, scoap);
  for (const auto& f : cf.faults()) {
    const auto res = race->generate(f, nullptr);
    EXPECT_NE(res.status, PodemStatus::Aborted) << fault_name(nl, f);
    EXPECT_EQ(res.sat_calls, 0u) << fault_name(nl, f);
  }
}

TEST(EngineTest, RaceFallsThroughToSatOnAbort) {
  // A zero backtrack budget makes PODEM abort on anything that needs a
  // single backtrack; the race engine must route those to SAT and come
  // back definitive, with verified cubes.
  auto nl = netgen::generate("s444");
  auto cf = fault::collapsed_fault_list(nl);
  auto graph = sim::EvalGraph::compile(nl);
  tmeas::Scoap scoap(*graph);
  EngineOptions opts;
  opts.podem.max_backtracks = 0;
  auto race = make_engine(EngineKind::Race, graph, scoap, opts);
  Rng rng(321);

  std::size_t routed_to_sat = 0;
  for (const auto& f : cf.faults()) {
    const auto res = race->generate(f, nullptr);
    ASSERT_NE(res.status, PodemStatus::Aborted) << fault_name(nl, f);
    routed_to_sat += res.sat_calls;
    if (res.status == PodemStatus::Success && res.sat_calls > 0) {
      EXPECT_TRUE(cube_detects(nl, res.cube, f, rng)) << fault_name(nl, f);
    }
  }
  EXPECT_GT(routed_to_sat, 0u);
}

TEST(EngineTest, RaceIsDeterministic) {
  // Status routing is by PODEM verdict, never wall-clock: two passes over
  // the same faults must produce identical statuses, cubes and tallies.
  auto nl = netgen::generate("s526");
  auto cf = fault::collapsed_fault_list(nl);
  auto graph = sim::EvalGraph::compile(nl);
  tmeas::Scoap scoap(*graph);
  EngineOptions opts;
  opts.podem.max_backtracks = 4;
  auto a = make_engine(EngineKind::Race, graph, scoap, opts);
  auto b = make_engine(EngineKind::Race, graph, scoap, opts);
  for (const auto& f : cf.faults()) {
    const auto ra = a->generate(f, nullptr);
    const auto rb = b->generate(f, nullptr);
    EXPECT_EQ(ra.status, rb.status) << fault_name(nl, f);
    EXPECT_EQ(ra.sat_calls, rb.sat_calls) << fault_name(nl, f);
    EXPECT_EQ(ra.conflicts, rb.conflicts) << fault_name(nl, f);
    EXPECT_TRUE(ra.cube.pi == rb.cube.pi && ra.cube.ppi == rb.cube.ppi)
        << fault_name(nl, f);
  }
}

}  // namespace
}  // namespace vcomp::atpg
