// XOR observability paths: horizontal-XOR scan-out visibility windows and
// the vertical-XOR capture interactions that scan_chain_test and
// observe_test leave uncovered.  The anchor is a brute-force oracle: a
// difference vector is observable within s cycles iff two chains that
// differ exactly at those positions produce different observation streams
// when shifted with identical input bits.

#include "vcomp/scan/observe.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "vcomp/check/reference.hpp"
#include "vcomp/scan/fabric.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::scan {
namespace {

using Bits = std::vector<std::uint8_t>;

/// The plain scan chain is the one-chain FabricState.
FabricState one_chain(Bits bits) {
  return FabricState{std::vector<Bits>{std::move(bits)}};
}

/// The definition of observability, computed the slow way by the
/// cell-by-cell reference shift.
bool brute_force_observable(const Bits& diff, std::size_t s,
                            const ScanOutModel& out) {
  Bits good(diff.size(), 0), bad = diff, obs_good, obs_bad;
  const Bits in(s, 0);  // shifted-in bits carry no difference
  check::ref_shift(good, in, out, obs_good);
  check::ref_shift(bad, in, out, obs_bad);
  return obs_good != obs_bad;
}

TEST(ObserveXor, DiffObservableMatchesBruteForceExhaustively) {
  // Every diff pattern on a 6-cell chain, every shift count, under direct
  // scan-out and both Figure-4 style HXOR configurations.
  const std::size_t L = 6;
  const ScanOutModel models[] = {ScanOutModel::direct(L),
                                 ScanOutModel::hxor(L, 2),
                                 ScanOutModel::hxor(L, 3)};
  for (const auto& m : models) {
    for (std::uint32_t mask = 0; mask < (1u << L); ++mask) {
      Bits diff(L);
      for (std::size_t i = 0; i < L; ++i) diff[i] = (mask >> i) & 1;
      for (std::size_t s = 0; s <= L; ++s) {
        SCOPED_TRACE(testing::Message() << "taps=" << m.taps.size()
                                        << " mask=" << mask << " s=" << s);
        EXPECT_EQ(diff_observable(diff, s, m),
                  brute_force_observable(diff, s, m));
      }
    }
  }
}

TEST(ObserveXor, DiffObservableMatchesBruteForceRandomized) {
  // Larger chains with random diffs and tap counts.
  Rng rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t L = 8 + rng.below(24);
    const std::size_t taps = 2 + rng.below(4);
    const auto m = rng.bit() ? ScanOutModel::hxor(L, taps)
                             : ScanOutModel::direct(L);
    Bits diff(L);
    for (auto& b : diff) b = rng.below(4) == 0;  // sparse, like real faults
    const std::size_t s = rng.below(L + 1);
    SCOPED_TRACE(testing::Message() << "L=" << L << " taps=" << taps
                                    << " s=" << s);
    EXPECT_EQ(diff_observable(diff, s, m), brute_force_observable(diff, s, m));
  }
}

TEST(ObserveXor, HxorObservationIsTapParityEachCycle) {
  // The shift must report, per cycle, the XOR of the cells currently
  // under the taps, exactly as the cell-by-cell reference does.
  const std::size_t L = 6;
  const auto m = ScanOutModel::hxor(L, 3);  // taps {1, 3, 5}
  FabricState st = one_chain(Bits{1, 0, 1, 1, 0, 0});
  // Cycle 1 parity: c1 ^ c3 ^ c5 = 0 ^ 1 ^ 0 = 1.  After the slide
  // (head in 0): {0,1,0,1,1,0} -> parity 1 ^ 1 ^ 0 = 0.
  Bits ref = st.bits(), observed, ref_observed;
  const Bits in{0, 0};
  st.shift({2}, in, FabricOut{{m}}, observed);
  EXPECT_EQ(observed, (Bits{1, 0}));
  check::ref_shift(ref, in, m, ref_observed);
  EXPECT_EQ(ref_observed, (Bits{1, 0}));
  EXPECT_EQ(st.bits(), ref);
}

TEST(ObserveXor, HxorMidChainDiffSlidesUnderATap) {
  // A diff between taps is invisible until the slide moves it under one:
  // taps {1,3,5}, diff at position 0 reaches tap 1 on the second cycle.
  const auto m = ScanOutModel::hxor(6, 3);
  const Bits diff{1, 0, 0, 0, 0, 0};
  EXPECT_FALSE(diff_observable(diff, 1, m));
  EXPECT_TRUE(diff_observable(diff, 2, m));
}

TEST(ObserveXor, HxorTripleDiffKeepsOddParityVisible) {
  // Three aligned diffs under the three taps: odd parity, visible at
  // once — cancellation needs an even number of tapped differences.
  const auto m = ScanOutModel::hxor(6, 3);
  EXPECT_TRUE(diff_observable(Bits{0, 1, 0, 1, 0, 1}, 1, m));
}

TEST(ObserveXor, VXorCaptureCancelsMatchingChainDiff) {
  // Vertical XOR folds the captured next-state on top of the chain
  // content: a chain diff and an equal next-state diff annihilate, so
  // the fault becomes unobservable afterwards — the VXor aliasing case.
  const Bits next_good{1, 0, 1};
  const Bits next_bad{1, 1, 1};  // next-state differs at position 1
  FabricState good = one_chain(Bits{0, 0, 0});
  FabricState bad = one_chain(Bits{0, 1, 0});  // differs at position 1
  good.capture(next_good, CaptureMode::VXor);
  bad.capture(next_bad, CaptureMode::VXor);
  EXPECT_EQ(good, bad);  // 1⊕0 == 1⊕1⊕... both cells end up equal

  // Under Normal capture the same pair stays distinguishable.
  FabricState good_n = one_chain(Bits{0, 0, 0});
  FabricState bad_n = one_chain(Bits{0, 1, 0});
  good_n.capture(next_good, CaptureMode::Normal);
  bad_n.capture(next_bad, CaptureMode::Normal);
  EXPECT_NE(good_n, bad_n);
}

TEST(ObserveXor, VXorCapturePreservesChainDiffWhenNextStatesAgree) {
  // The converse path: identical next-states XORed on top of a chain
  // diff keep the diff alive (Normal capture would erase it).
  const Bits next{1, 1, 0};
  FabricState good = one_chain(Bits{0, 0, 0});
  FabricState bad = one_chain(Bits{0, 1, 0});
  good.capture(next, CaptureMode::VXor);
  bad.capture(next, CaptureMode::VXor);
  EXPECT_NE(good, bad);
  EXPECT_TRUE(diff_observable(Bits{0, 1, 0}, 3, ScanOutModel::direct(3)));

  FabricState good_n = one_chain(Bits{0, 0, 0});
  FabricState bad_n = one_chain(Bits{0, 1, 0});
  good_n.capture(next, CaptureMode::Normal);
  bad_n.capture(next, CaptureMode::Normal);
  EXPECT_EQ(good_n, bad_n);  // overwrite destroys the evidence
}

TEST(ObserveXor, VXorDoubleCaptureRoundTrips) {
  // x ⊕ n ⊕ n = x: capturing the same next-state twice under VXor is an
  // involution, independent of the chain content.
  Rng rng(11);
  Bits content(16), next(16);
  for (auto& b : content) b = rng.bit();
  for (auto& b : next) b = rng.bit();
  FabricState st = one_chain(content);
  st.capture(next, CaptureMode::VXor);
  st.capture(next, CaptureMode::VXor);
  EXPECT_EQ(st.bits(), content);
}

}  // namespace
}  // namespace vcomp::scan
