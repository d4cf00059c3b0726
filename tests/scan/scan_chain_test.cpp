#include "vcomp/scan/scan_chain.hpp"

#include <gtest/gtest.h>

#include "vcomp/util/assert.hpp"

#include "vcomp/netgen/example_circuit.hpp"
#include "vcomp/scan/fabric.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::scan {
namespace {

using Bits = std::vector<std::uint8_t>;

// The plain scan chain is the one-chain FabricState.
FabricState one_chain(Bits bits) {
  return FabricState{std::vector<Bits>{std::move(bits)}};
}

// Shifts in.size() bits into the one chain of \p st; returns the
// observations, one per cycle.
Bits shift(FabricState& st, const Bits& in, const ScanOutModel& out) {
  Bits observed;
  st.shift({in.size()}, in, FabricOut{{out}}, observed);
  return observed;
}

// A one-chain Fabric is the plain scan chain: identity order by default.
TEST(ScanChain, IdentityOrder) {
  auto nl = netgen::example_circuit();
  Fabric chain(nl);
  EXPECT_EQ(chain.total_length(), 3u);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(chain.dff_at(0, p), p);
    EXPECT_EQ(chain.pos_of(static_cast<std::uint32_t>(p)), p);
  }
}

// A custom single-chain order must be a permutation of the flip-flops.
TEST(ScanChain, CustomOrderValidated) {
  auto nl = netgen::example_circuit();
  Fabric chain(nl, {{2u, 0u, 1u}});
  EXPECT_EQ(chain.dff_at(0, 0), 2u);
  EXPECT_EQ(chain.pos_of(2), 0u);
  EXPECT_THROW(Fabric(nl, {{0u, 0u, 1u}}), vcomp::ContractError);
  EXPECT_THROW(Fabric(nl, {{0u, 1u}}), vcomp::ContractError);
}

// The paper's stitching example: state 111 (a,b,c), shift in "00"; the
// retained bit from cell a must land in cell c and the new bits fill a, b.
TEST(ChainState, PaperShiftSemantics) {
  FabricState st = one_chain(Bits{1, 1, 1});
  const auto out = shift(st, Bits{0, 0}, ScanOutModel::direct(3));
  EXPECT_EQ(st.bits(), (Bits{0, 0, 1}));  // second test vector 001
  // Observed: tail first — c then b.
  EXPECT_EQ(out, (Bits{1, 1}));
}

TEST(ChainState, FullShiftReplacesEverything) {
  FabricState st = one_chain(Bits{1, 0, 1});
  const auto out = shift(st, Bits{0, 1, 1}, ScanOutModel::direct(3));
  EXPECT_EQ(out, (Bits{1, 0, 1}));  // old contents, tail first
  EXPECT_EQ(st.bits(), (Bits{1, 1, 0}));  // in[2] at head, in[0] at tail
}

TEST(ChainState, ZeroShiftIsNoop) {
  FabricState st = one_chain(Bits{1, 0, 1});
  const auto out = shift(st, Bits{}, ScanOutModel::direct(3));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(st.bits(), (Bits{1, 0, 1}));
}

TEST(ChainState, ShiftComposition) {
  // Shifting k then m bits equals shifting k+m bits with concatenated input.
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    Bits init(11);
    for (auto& b : init) b = rng.bit();
    Bits in(7);
    for (auto& b : in) b = rng.bit();

    FabricState once = one_chain(init);
    auto obs_once = shift(once, in, ScanOutModel::direct(11));

    FabricState twice = one_chain(init);
    Bits first(in.begin(), in.begin() + 3);
    Bits second(in.begin() + 3, in.end());
    auto obs_a = shift(twice, first, ScanOutModel::direct(11));
    auto obs_b = shift(twice, second, ScanOutModel::direct(11));
    obs_a.insert(obs_a.end(), obs_b.begin(), obs_b.end());

    EXPECT_EQ(once.bits(), twice.bits());
    EXPECT_EQ(obs_once, obs_a);
  }
}

TEST(ChainState, CaptureNormalOverwrites) {
  FabricState st = one_chain(Bits{1, 1, 0});
  st.capture(Bits{0, 1, 1}, CaptureMode::Normal);
  EXPECT_EQ(st.bits(), (Bits{0, 1, 1}));
}

TEST(ChainState, CaptureVXorAccumulates) {
  // Figure 3: cell <- response XOR current content.
  FabricState st = one_chain(Bits{1, 1, 0});
  st.capture(Bits{0, 1, 1}, CaptureMode::VXor);
  EXPECT_EQ(st.bits(), (Bits{1, 0, 1}));
}

TEST(ScanOutModel, DirectIsTailTap) {
  const auto m = ScanOutModel::direct(8);
  EXPECT_EQ(m.taps, (std::vector<std::uint32_t>{7}));
}

TEST(ScanOutModel, HxorTapsMatchFigure4) {
  // Figure 4: six cells a..f, three taps at b, d, f (positions 1, 3, 5).
  const auto m = ScanOutModel::hxor(6, 3);
  EXPECT_EQ(m.taps, (std::vector<std::uint32_t>{1, 3, 5}));
}

TEST(ScanOutModel, HxorObservationMatchesFigure4) {
  // Cells a..f; scanning out two cycles yields (b^d^f) then (a^c^e).
  Rng rng(8);
  for (int trial = 0; trial < 32; ++trial) {
    Bits cells(6);
    for (auto& b : cells) b = rng.bit();
    FabricState st = one_chain(cells);
    const auto out = shift(st, Bits{0, 0}, ScanOutModel::hxor(6, 3));
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], cells[1] ^ cells[3] ^ cells[5]);
    EXPECT_EQ(out[1], cells[0] ^ cells[2] ^ cells[4]);
  }
}

TEST(ChainState, ShiftTooLongRejected) {
  FabricState st = one_chain(Bits{1, 0});
  EXPECT_THROW(shift(st, Bits{1, 0, 1}, ScanOutModel::direct(2)),
               vcomp::ContractError);
}

TEST(ChainState, ValueSemantics) {
  FabricState a = one_chain(Bits{1, 0, 1});
  FabricState b = a;
  shift(b, Bits{0}, ScanOutModel::direct(3));
  EXPECT_NE(a, b);
  EXPECT_EQ(a.bits(), (Bits{1, 0, 1}));
}

}  // namespace
}  // namespace vcomp::scan
