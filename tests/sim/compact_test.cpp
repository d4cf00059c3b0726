#include "vcomp/sim/compact.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "vcomp/netgen/netgen.hpp"
#include "vcomp/sim/word_sim.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::sim {
namespace {

using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;

/// Random-pattern equivalence: every original gate's value must equal its
/// alias target's value in the compacted netlist, for both sims' sources
/// driven identically (index order is preserved by construction).
void expect_equivalent(const Netlist& orig, const Compaction& c,
                       std::uint64_t seed) {
  ASSERT_EQ(orig.num_inputs(), c.nl.num_inputs());
  ASSERT_EQ(orig.num_dffs(), c.nl.num_dffs());
  ASSERT_EQ(orig.num_outputs(), c.nl.num_outputs());
  WordSim a(orig), b(c.nl);
  Rng rng(seed);
  for (int round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < orig.num_inputs(); ++i) {
      const Word w = rng.next();
      a.set_input(i, w);
      b.set_input(i, w);
    }
    for (std::size_t i = 0; i < orig.num_dffs(); ++i) {
      const Word w = rng.next();
      a.set_state(i, w);
      b.set_state(i, w);
    }
    a.eval();
    b.eval();
    for (GateId g = 0; g < orig.num_gates(); ++g)
      ASSERT_EQ(a.value(g), b.value(c.new_id(g)))
          << "round " << round << " gate " << g << " ("
          << orig.gate(g).name << ")";
    for (std::size_t o = 0; o < orig.num_outputs(); ++o)
      ASSERT_EQ(a.output(o), b.output(o)) << "output " << o;
    for (std::size_t d = 0; d < orig.num_dffs(); ++d)
      ASSERT_EQ(a.next_state(d), b.next_state(d)) << "dff " << d;
  }
}

TEST(Compact, FoldsBufferChains) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  auto prev = a;
  for (int i = 0; i < 4; ++i)
    prev = nl.add_gate(GateType::Buf, "buf" + std::to_string(i), {prev});
  const auto g = nl.add_gate(GateType::And, "g", {prev, b});
  nl.mark_output(g);
  nl.finalize();

  const auto c = compact_netlist(nl);
  EXPECT_EQ(c.stats.buffers_folded, 4u);
  EXPECT_EQ(c.stats.gates_after, c.stats.gates_before - 4);
  // The AND's first pin now reads the input directly.
  EXPECT_EQ(c.new_id(prev), c.new_id(a));
  expect_equivalent(nl, c, 1);
}

TEST(Compact, FoldsDoubleInverters) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto n1 = nl.add_gate(GateType::Not, "n1", {a});
  const auto n2 = nl.add_gate(GateType::Not, "n2", {n1});
  const auto n3 = nl.add_gate(GateType::Not, "n3", {n2});
  const auto g = nl.add_gate(GateType::Or, "g", {n3, b});
  nl.mark_output(g);
  nl.mark_output(n1);
  nl.finalize();

  const auto c = compact_netlist(nl);
  // n2 folds onto a; n3 then dedupes with n1 (same resolved input).
  EXPECT_EQ(c.new_id(n2), c.new_id(a));
  EXPECT_EQ(c.new_id(n3), c.new_id(n1));
  EXPECT_EQ(c.stats.buffers_folded, 1u);
  EXPECT_EQ(c.stats.gates_deduped, 1u);
  expect_equivalent(nl, c, 2);
}

TEST(Compact, DedupesStructuralTwinsAndSortsSymmetricPins) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto g1 = nl.add_gate(GateType::And, "g1", {a, b});
  const auto g2 = nl.add_gate(GateType::And, "g2", {b, a});  // permuted
  const auto g3 = nl.add_gate(GateType::Nand, "g3", {a, b});  // distinct type
  const auto o = nl.add_gate(GateType::Xor, "o", {g1, g2});
  nl.mark_output(o);
  nl.mark_output(g3);
  nl.finalize();

  const auto c = compact_netlist(nl);
  EXPECT_EQ(c.new_id(g2), c.new_id(g1));
  EXPECT_NE(c.new_id(g3), c.new_id(g1));
  EXPECT_EQ(c.stats.gates_deduped, 1u);
  // Xor(g1,g1) after dedupe is tied -> constant 0, kept materialized as
  // the canonical const gate (first discovered), so nothing is counted
  // as folded for it.
  EXPECT_TRUE(c.kept(o));
  expect_equivalent(nl, c, 3);
}

TEST(Compact, FoldsConstants) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto na = nl.add_gate(GateType::Not, "na", {a});
  const auto z0 = nl.add_gate(GateType::Xor, "z0", {a, a});    // const 0
  const auto z1 = nl.add_gate(GateType::And, "z1", {a, na});   // const 0
  const auto one = nl.add_gate(GateType::Or, "one", {na, a});  // const 1
  const auto g1 = nl.add_gate(GateType::And, "g1", {b, z0});   // const 0
  const auto g2 = nl.add_gate(GateType::And, "g2", {b, one});  // = And(b,1)
  const auto o = nl.add_gate(GateType::Or, "o", {g1, g2});
  nl.mark_output(o);
  nl.mark_output(z1);
  nl.finalize();

  const auto c = compact_netlist(nl);
  // z0 is the canonical const-0 (kept); z1 and g1 alias to it.  "one" is
  // the canonical const-1; g2 stays (not constant), o stays.
  EXPECT_TRUE(c.kept(z0));
  EXPECT_EQ(c.new_id(z1), c.new_id(z0));
  EXPECT_EQ(c.new_id(g1), c.new_id(z0));
  EXPECT_TRUE(c.kept(one));
  EXPECT_EQ(c.stats.consts_folded, 2u);
  expect_equivalent(nl, c, 4);
}

TEST(Compact, ProtectKeepPinsGateUntouched) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto buf = nl.add_gate(GateType::Buf, "buf", {a});
  const auto o = nl.add_gate(GateType::Buf, "o", {buf});
  nl.mark_output(o);
  nl.finalize();

  CompactOptions opts;
  opts.protect.assign(nl.num_gates(), 0);
  opts.protect[buf] = kProtectKeep;
  const auto c = compact_netlist(nl, opts);
  EXPECT_TRUE(c.kept(buf));
  EXPECT_EQ(c.new_id(o), c.new_id(buf));  // o still folds, onto buf
  expect_equivalent(nl, c, 5);
}

TEST(Compact, FaultyGateIsNeverAnAliasTarget) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto g1 = nl.add_gate(GateType::And, "g1", {a, b});
  const auto g2 = nl.add_gate(GateType::And, "g2", {a, b});
  const auto o = nl.add_gate(GateType::Xor, "o", {g1, g2});
  nl.mark_output(o);
  nl.finalize();

  CompactOptions opts;
  opts.protect.assign(nl.num_gates(), 0);
  opts.protect[g1] = kProtectFaulty;
  const auto c = compact_netlist(nl, opts);
  // g1 carries faults: it must not become the dedupe rep, so g2 is kept
  // (first fault-free gate with that key) and g1 stays itself.
  EXPECT_TRUE(c.kept(g1));
  EXPECT_TRUE(c.kept(g2));
  EXPECT_NE(c.new_id(g1), c.new_id(g2));
  // o's pins resolve to two distinct gates: no tied fold.
  EXPECT_TRUE(c.kept(o));
  expect_equivalent(nl, c, 6);
}

TEST(Compact, FaultyBufferFoldsButConsumersStayMaterialized) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto buf = nl.add_gate(GateType::Buf, "buf", {a});
  const auto c1 = nl.add_gate(GateType::Buf, "c1", {buf});
  const auto c2 = nl.add_gate(GateType::Xor, "c2", {buf, buf});
  nl.mark_output(c1);
  nl.mark_output(c2);
  nl.finalize();

  CompactOptions opts;
  opts.protect.assign(nl.num_gates(), 0);
  opts.protect[buf] = kProtectFaulty;
  const auto c = compact_netlist(nl, opts);
  // The faulty buffer still flow-through folds...
  EXPECT_FALSE(c.kept(buf));
  EXPECT_EQ(c.new_id(buf), c.new_id(a));
  // ...but its consumers must stay materialized so the fault layer can
  // force their pins: c1 may not fold onto a, c2 may not fold to const-0.
  EXPECT_TRUE(c.kept(c1));
  EXPECT_TRUE(c.kept(c2));
  expect_equivalent(nl, c, 7);
}

TEST(Compact, NoDedupeFlagBlocksVictimAbsorption) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto g1 = nl.add_gate(GateType::Or, "g1", {a, b});
  const auto g2 = nl.add_gate(GateType::Or, "g2", {a, b});
  const auto o = nl.add_gate(GateType::And, "o", {g1, g2});
  nl.mark_output(o);
  nl.finalize();

  CompactOptions opts;
  opts.protect.assign(nl.num_gates(), 0);
  opts.protect[g2] = kProtectNoDedupe;
  const auto c = compact_netlist(nl, opts);
  EXPECT_TRUE(c.kept(g1));
  EXPECT_TRUE(c.kept(g2));
  EXPECT_EQ(c.stats.gates_deduped, 0u);
  expect_equivalent(nl, c, 8);
}

TEST(Compact, GeneratedCircuitsShrinkAndStayEquivalent) {
  for (const char* name : {"s444", "s526", "s1423"}) {
    const auto nl = netgen::generate(name);
    const auto c = compact_netlist(nl);
    SCOPED_TRACE(name);
    EXPECT_LT(c.stats.gates_after, c.stats.gates_before);
    EXPECT_GT(c.stats.buffers_folded + c.stats.consts_folded +
                  c.stats.gates_deduped,
              0u);
    expect_equivalent(nl, c, 10);
  }
}

TEST(Compact, ProtectedEquivalenceOnGeneratedCircuit) {
  // Protect an arbitrary-but-deterministic subset as faulty (every 5th
  // gate) the way the fault layer would; equivalence must still hold.
  const auto nl = netgen::generate("s526");
  CompactOptions opts;
  opts.protect.assign(nl.num_gates(), 0);
  for (GateId g = 0; g < nl.num_gates(); g += 5)
    opts.protect[g] = kProtectFaulty;
  for (GateId g = 0; g < nl.num_gates(); g += 11)
    opts.protect[g] |= kProtectKeep;
  const auto c = compact_netlist(nl, opts);
  expect_equivalent(nl, c, 11);
}

}  // namespace
}  // namespace vcomp::sim
