#include "vcomp/fault/compact_model.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "vcomp/check/reference.hpp"
#include "vcomp/fault/block_lane_sim.hpp"
#include "vcomp/fault/collapse.hpp"
#include "vcomp/fault/fault_sim.hpp"
#include "vcomp/netgen/example_circuit.hpp"
#include "vcomp/netgen/netgen.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::fault {
namespace {

using netlist::GateId;
using sim::Block;
using sim::EvalGraph;
using sim::Word;

/// Canonical detection summary of one fault under one committed stimulus:
/// the PO detection word plus every flip-flop's capture-diff word (several
/// sparse PpoDiff entries for the same dff XOR together, exactly as the
/// tracker folds them).
struct Verdict {
  Word po_any = 0;
  std::map<std::uint32_t, Word> ppo;

  friend bool operator==(const Verdict&, const Verdict&) = default;
};

Verdict summarize(const DiffSim::Effect& eff) {
  Verdict v;
  v.po_any = eff.po_any;
  for (const auto& d : eff.ppo_diffs) {
    v.ppo[d.dff_index] ^= d.diff;
    if (v.ppo[d.dff_index] == 0) v.ppo.erase(d.dff_index);
  }
  return v;
}

/// Drives both engines with one random stimulus (compaction preserves
/// input/dff order, so the same indices address the same nets).
void randomize_pair(sim::WordSim& a, sim::WordSim& b, Rng& rng) {
  for (std::size_t i = 0; i < a.graph()->num_inputs(); ++i) {
    const Word w = rng.next();
    a.set_input(i, w);
    b.set_input(i, w);
  }
  for (std::size_t i = 0; i < a.graph()->num_dffs(); ++i) {
    const Word w = rng.next();
    a.set_state(i, w);
    b.set_state(i, w);
  }
}

/// Every collapsed fault must produce identical verdicts when simulated on
/// the original graph (DiffSim::simulate) and as a mapped fault on the
/// compacted graph (DiffSim::simulate_mapped), under the same stimuli.
void expect_mapped_equivalent(const std::string& profile) {
  const auto nl = netgen::generate(profile);
  const auto cf = collapsed_fault_list(nl);
  auto graph = EvalGraph::compile(nl);
  CompactModel model(graph, cf.faults(), /*enable=*/true);
  ASSERT_TRUE(model.enabled());
  EXPECT_LT(model.netlist().num_gates(), nl.num_gates())
      << profile << ": compaction removed nothing";

  DiffSim ref(graph);
  DiffSim cut(model.graph());
  Rng rng(0xc0357e57u ^ std::hash<std::string>{}(profile));
  for (int round = 0; round < 4; ++round) {
    randomize_pair(ref.good(), cut.good(), rng);
    ref.commit_good();
    cut.commit_good();

    for (std::size_t i = 0; i < cf.faults().size(); ++i) {
      const Verdict a = summarize(ref.simulate(cf.faults()[i]));
      const Verdict b = summarize(cut.simulate_mapped(model.mapped(i)));
      EXPECT_EQ(a, b) << profile << " round " << round << " fault "
                      << fault_name(nl, cf.faults()[i]);
    }
  }
}

TEST(CompactModel, MappedVerdictsMatchOriginal_s444) {
  expect_mapped_equivalent("s444");
}

TEST(CompactModel, MappedVerdictsMatchOriginal_s526) {
  expect_mapped_equivalent("s526");
}

TEST(CompactModel, MappedVerdictsMatchOriginalExampleCircuit) {
  const auto nl = netgen::example_circuit();
  const auto cf = collapsed_fault_list(nl);
  auto graph = EvalGraph::compile(nl);
  CompactModel model(graph, cf.faults(), /*enable=*/true);
  DiffSim ref(graph);
  DiffSim cut(model.graph());
  // Exhaustive over the 8 state patterns, one per word bit.
  for (std::size_t i = 0; i < graph->num_dffs(); ++i) {
    Word w = 0;
    for (int p = 0; p < 8; ++p)
      if ((p >> i) & 1) w |= Word{1} << p;
    ref.good().set_state(i, w);
    cut.good().set_state(i, w);
  }
  ref.commit_good();
  cut.commit_good();
  for (std::size_t i = 0; i < cf.faults().size(); ++i)
    EXPECT_EQ(summarize(ref.simulate(cf.faults()[i])),
              summarize(cut.simulate_mapped(model.mapped(i))))
        << fault_name(nl, cf.faults()[i]);
}

TEST(CompactModel, IdentityModeSharesGraphAndMapsOneSite) {
  const auto nl = netgen::generate("s444");
  const auto cf = collapsed_fault_list(nl);
  auto graph = EvalGraph::compile(nl);
  CompactModel model(graph, cf.faults(), /*enable=*/false);
  EXPECT_FALSE(model.enabled());
  EXPECT_EQ(model.graph().get(), graph.get());
  EXPECT_EQ(model.compaction(), nullptr);
  for (std::size_t i = 0; i < cf.faults().size(); ++i) {
    const auto& mf = model.mapped(i);
    ASSERT_EQ(mf.sites.size(), 1u);
    EXPECT_EQ(mf.sites[0].gate, cf.faults()[i].gate);
    EXPECT_EQ(mf.sites[0].pin, cf.faults()[i].pin);
    EXPECT_EQ(mf.stuck, cf.faults()[i].stuck);
    EXPECT_EQ(model.value_id(cf.faults()[i].gate), cf.faults()[i].gate);
  }
}

/// Checks every occupied lane of \p cut against the naive forked reference
/// on the original netlist: lane l carries original fault \p faults[l],
/// the broadcast PI bits \p pis and state bit l of \p states.
void expect_lanes_match_reference(const netlist::Netlist& nl,
                                  const BlockLaneSim& cut,
                                  const std::vector<std::uint8_t>& pis,
                                  const std::vector<Block>& states,
                                  const std::vector<Fault>& faults,
                                  const std::string& label) {
  std::vector<Word> vals(nl.num_gates(), 0);
  for (std::size_t l = 0; l < static_cast<std::size_t>(cut.num_lanes());
       ++l) {
    const Fault& f = faults[l];
    std::fill(vals.begin(), vals.end(), Word{0});
    for (std::size_t i = 0; i < pis.size(); ++i)
      vals[nl.inputs()[i]] = pis[i] != 0 ? ~Word{0} : Word{0};
    for (std::size_t i = 0; i < states.size(); ++i)
      vals[nl.dffs()[i]] = states[i].w[l / 64];
    check::ref_faulty_eval(nl, vals, f);
    const std::size_t bit = l % 64;
    for (std::size_t o = 0; o < nl.num_outputs(); ++o)
      EXPECT_EQ(cut.output_block(o).lane(l),
                ((vals[nl.outputs()[o]] >> bit) & 1) != 0)
          << label << " po " << o << " lane " << l;
    for (std::size_t d = 0; d < nl.num_dffs(); ++d)
      EXPECT_EQ(cut.next_state_block(d).lane(l),
                ((check::ref_next_state(nl, vals, &f, d) >> bit) & 1) != 0)
          << label << " dff " << d << " lane " << l;
  }
}

/// Random shared PI bits and per-lane state Blocks for one eval.
void random_stimulus(const EvalGraph& graph, Rng& rng,
                     std::vector<std::uint8_t>& pis,
                     std::vector<Block>& states) {
  pis.resize(graph.num_inputs());
  for (auto& b : pis) b = rng.next() & 1;
  states.assign(graph.num_dffs(), Block::zero());
  for (auto& s : states)
    for (std::size_t k = 0; k < sim::kBlockWords; ++k) s.w[k] = rng.next();
}

/// Loads the shared PI bits and per-lane states into \p s and evaluates.
void drive(BlockLaneSim& s, const std::vector<std::uint8_t>& pis,
           const std::vector<Block>& states) {
  for (std::size_t i = 0; i < pis.size(); ++i) s.set_pi_all(i, pis[i] != 0);
  for (std::size_t i = 0; i < states.size(); ++i)
    s.set_state_block(i, states[i]);
  s.eval();
}

/// Every occupied lane of \p got agrees with the same lane of \p want on
/// every PO and every captured bit.
void expect_lanes_equal(const BlockLaneSim& want, const BlockLaneSim& got,
                        const std::string& label) {
  ASSERT_EQ(want.num_lanes(), got.num_lanes()) << label;
  const auto& g = *want.graph();
  for (std::size_t l = 0; l < static_cast<std::size_t>(got.num_lanes());
       ++l) {
    for (std::size_t o = 0; o < g.num_outputs(); ++o)
      EXPECT_EQ(want.output_block(o).lane(l), got.output_block(o).lane(l))
          << label << " po " << o << " lane " << l;
    for (std::size_t d = 0; d < g.num_dffs(); ++d)
      EXPECT_EQ(want.next_state_block(d).lane(l),
                got.next_state_block(d).lane(l))
          << label << " dff " << d << " lane " << l;
  }
}

/// BlockLaneSim with per-lane mapped faults on the compacted graph must
/// agree with the lane simulator running the original faults on the
/// original graph, and with the naive reference — the exact configuration
/// the tracker's hidden-advance uses.
TEST(BlockLaneSim, MappedLanesMatchLaneSimOnOriginal) {
  const auto nl = netgen::generate("s526");
  const auto cf = collapsed_fault_list(nl);
  auto graph = EvalGraph::compile(nl);
  CompactModel model(graph, cf.faults(), /*enable=*/true);

  BlockLaneSim ref(graph);
  BlockLaneSim cut(model.graph());
  Rng rng(0xb10cull);
  const std::size_t batch =
      std::min<std::size_t>(cf.faults().size(), sim::kBlockLanes);
  std::vector<std::uint8_t> pis;
  std::vector<Block> states;
  random_stimulus(*graph, rng, pis, states);

  for (std::size_t l = 0; l < batch; ++l) {
    ref.inject(ref.add_lane(), cf.faults()[l]);
    cut.inject_mapped(cut.add_lane(), model.mapped(l));
  }
  drive(ref, pis, states);
  drive(cut, pis, states);
  expect_lanes_equal(ref, cut, "mapped");
  expect_lanes_match_reference(nl, cut, pis, states, cf.faults(), "mapped");
}

/// Every available dispatch mode matches the naive forked reference and,
/// lane-for-lane, the portable scalar lane simulator.
TEST(BlockLaneSim, MatchesLaneSimPerDispatchMode) {
  const auto nl = netgen::generate("s444");
  const auto cf = collapsed_fault_list(nl);
  auto graph = EvalGraph::compile(nl);
  Rng rng(7u);
  std::vector<std::uint8_t> pis;
  std::vector<Block> states;
  random_stimulus(*graph, rng, pis, states);
  const std::size_t n =
      std::min<std::size_t>(cf.faults().size(), sim::kBlockLanes);

  BlockLaneSim ref(graph, sim::SimdMode::Scalar);
  for (std::size_t l = 0; l < n; ++l)
    ref.inject(ref.add_lane(), cf.faults()[l]);
  drive(ref, pis, states);
  expect_lanes_match_reference(nl, ref, pis, states, cf.faults(), "scalar");

  for (sim::SimdMode mode : {sim::SimdMode::Avx2, sim::SimdMode::Avx512}) {
    if (!sim::simd_available(mode)) continue;
    BlockLaneSim cut(graph, mode);
    for (std::size_t l = 0; l < n; ++l)
      cut.inject(cut.add_lane(), cf.faults()[l]);
    drive(cut, pis, states);
    const std::string label(to_string(mode));
    expect_lanes_match_reference(nl, cut, pis, states, cf.faults(), label);
    expect_lanes_equal(ref, cut, label);
  }
}

}  // namespace
}  // namespace vcomp::fault
