// Systematic Verilog round-trip coverage: every netgen profile through
// write -> read -> write, checked for structural identity, serialization
// fixpoint, and bit-exact functional equivalence — the properties the
// spot checks in verilog_io_test.cpp assert only for s444 and the paper
// example.  A netlist that survives one round trip must keep surviving:
// the second write must reproduce the first byte for byte.

#include <gtest/gtest.h>

#include <string>

#include "vcomp/netgen/netgen.hpp"
#include "vcomp/netlist/bench_io.hpp"
#include "vcomp/netlist/netlist.hpp"
#include "vcomp/netlist/verilog_io.hpp"
#include "vcomp/sim/word_sim.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::netlist {
namespace {

/// Random-stimulus equivalence over outputs and next-states, 64 patterns
/// per trial via word-parallel simulation.
void expect_functionally_equal(const Netlist& a_nl, const Netlist& b_nl,
                               std::uint64_t seed) {
  ASSERT_EQ(a_nl.num_inputs(), b_nl.num_inputs());
  ASSERT_EQ(a_nl.num_outputs(), b_nl.num_outputs());
  ASSERT_EQ(a_nl.num_dffs(), b_nl.num_dffs());
  sim::WordSim a(a_nl), b(b_nl);
  Rng rng(seed);
  for (int trial = 0; trial < 3; ++trial) {
    for (std::size_t i = 0; i < a_nl.num_inputs(); ++i) {
      const auto w = rng.next();
      a.set_input(i, w);
      b.set_input(i, w);
    }
    for (std::size_t i = 0; i < a_nl.num_dffs(); ++i) {
      const auto w = rng.next();
      a.set_state(i, w);
      b.set_state(i, w);
    }
    a.eval();
    b.eval();
    for (std::size_t o = 0; o < a_nl.num_outputs(); ++o)
      ASSERT_EQ(a.output(o), b.output(o)) << "output " << o;
    for (std::size_t d = 0; d < a_nl.num_dffs(); ++d)
      ASSERT_EQ(a.next_state(d), b.next_state(d)) << "dff " << d;
  }
}

TEST(VerilogRoundTrip, EveryProfileRoundTripsStructurally) {
  for (const auto& profile : netgen::all_profiles()) {
    SCOPED_TRACE(profile.name);
    const Netlist nl = netgen::generate(profile);
    const std::string text = write_verilog_string(nl, profile.name);
    const Netlist back = read_verilog_string(text);

    EXPECT_EQ(back.num_inputs(), nl.num_inputs());
    EXPECT_EQ(back.num_outputs(), nl.num_outputs());
    EXPECT_EQ(back.num_dffs(), nl.num_dffs());
    EXPECT_EQ(back.num_comb_gates(), nl.num_comb_gates());
    EXPECT_EQ(back.num_gates(), nl.num_gates());
  }
}

TEST(VerilogRoundTrip, SecondWriteIsAFixpoint) {
  // write(read(write(nl))) == write(nl): the writer must emit a canonical
  // form the parser maps back onto the same netlist, for every profile.
  for (const auto& profile : netgen::all_profiles()) {
    SCOPED_TRACE(profile.name);
    const Netlist nl = netgen::generate(profile);
    const std::string once = write_verilog_string(nl, profile.name);
    const std::string twice =
        write_verilog_string(read_verilog_string(once), profile.name);
    EXPECT_EQ(once, twice);
  }
}

TEST(VerilogRoundTrip, EveryProfileRoundTripsFunctionally) {
  for (const auto& profile : netgen::table234_profiles()) {
    SCOPED_TRACE(profile.name);
    const Netlist nl = netgen::generate(profile);
    const Netlist back = read_verilog_string(write_verilog_string(nl));
    expect_functionally_equal(nl, back, 17);
  }
}

TEST(VerilogRoundTrip, GateTypesSurviveRoundTrip) {
  // One instance of every primitive the subset supports, with fanin
  // arities above two where legal.
  constexpr const char* kAllGates = R"(
module gates (a, b, c, y1, y2, y3, y4, y5, y6, y7, y8, q);
  input a, b, c;
  output y1, y2, y3, y4, y5, y6, y7, y8, q;
  and  g1 (y1, a, b, c);
  nand g2 (y2, a, b, c);
  or   g3 (y3, a, b, c);
  nor  g4 (y4, a, b, c);
  xor  g5 (y5, a, b);
  xnor g6 (y6, a, b);
  not  g7 (y7, a);
  buf  g8 (y8, c);
  dff  f1 (q, y2);
endmodule
)";
  const Netlist nl = read_verilog_string(kAllGates);
  const Netlist back = read_verilog_string(write_verilog_string(nl));
  const GateType types[] = {GateType::And, GateType::Nand, GateType::Or,
                            GateType::Nor, GateType::Xor,  GateType::Xnor,
                            GateType::Not, GateType::Buf};
  for (std::size_t i = 0; i < std::size(types); ++i) {
    // Appended, not "y" + std::string: gcc 12 -O3 raises a -Wrestrict
    // false positive on the operator+ form.
    std::string name = "y";
    name += std::to_string(i + 1);
    SCOPED_TRACE(name);
    ASSERT_NE(back.find(name), kNoGate);
    EXPECT_EQ(back.gate(back.find(name)).type, types[i]);
    EXPECT_EQ(back.gate(back.find(name)).fanin.size(),
              nl.gate(nl.find(name)).fanin.size());
  }
  EXPECT_EQ(back.num_dffs(), 1u);
  expect_functionally_equal(nl, back, 23);
}

TEST(VerilogRoundTrip, CrossesFormatsBothWays) {
  // verilog -> bench -> verilog keeps the structure: the two writers and
  // two parsers agree on what the netlist is.
  const Netlist nl = netgen::generate("s526");
  const Netlist via_bench = read_bench_string(write_bench_string(nl));
  const Netlist via_verilog =
      read_verilog_string(write_verilog_string(via_bench, "s526"));
  EXPECT_EQ(via_verilog.num_inputs(), nl.num_inputs());
  EXPECT_EQ(via_verilog.num_outputs(), nl.num_outputs());
  EXPECT_EQ(via_verilog.num_dffs(), nl.num_dffs());
  EXPECT_EQ(via_verilog.num_comb_gates(), nl.num_comb_gates());
  expect_functionally_equal(nl, via_verilog, 31);
}

}  // namespace
}  // namespace vcomp::netlist
