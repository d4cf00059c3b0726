#pragma once

/// \file scan_chain.hpp
/// Scan chain conventions, capture modes and scan-out observation models.
///
/// Conventions (reverse-engineered from the paper's worked example and
/// asserted by the test suite):
///  * chain position 0 is the scan-in head, position L-1 the scan-out tail;
///  * shifting k bits emits the k tail cells (tail first), slides the
///    retained L-k cells toward the tail, and loads the k new bits at the
///    head (the last bit shifted in ends up at position 0);
///  * capture overwrites cell i with the next-state value of its flip-flop
///    (CaptureMode::Normal) or XORs it on top of the current content
///    (CaptureMode::VXor — the paper's vertical-XOR observability aid).

#include <cstdint>
#include <vector>

namespace vcomp::scan {

/// How capture writes into the chain.
enum class CaptureMode : std::uint8_t {
  Normal,  ///< cell ← next-state
  VXor,    ///< cell ← next-state ⊕ cell   (Figure 3)
};

/// Scan-out observation structure: the ATE sees, per shift cycle, the XOR
/// of the cells at `taps`.  Direct observation is the single tap {L-1};
/// the paper's horizontal XOR (Figure 4) uses several evenly spaced taps.
struct ScanOutModel {
  std::vector<std::uint32_t> taps;

  /// Plain scan-out: observe the tail cell.
  static ScanOutModel direct(std::size_t length);

  /// Horizontal XOR with \p num_taps taps at stride length/num_taps,
  /// anchored at the tail (Figure 4's b⊕d⊕f, then a⊕c⊕e pattern).
  static ScanOutModel hxor(std::size_t length, std::size_t num_taps);
};

}  // namespace vcomp::scan
