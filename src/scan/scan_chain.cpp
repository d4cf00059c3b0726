#include "vcomp/scan/scan_chain.hpp"

#include <algorithm>

#include "vcomp/util/assert.hpp"

namespace vcomp::scan {

ScanOutModel ScanOutModel::direct(std::size_t length) {
  VCOMP_REQUIRE(length > 0, "empty scan chain");
  return ScanOutModel{{static_cast<std::uint32_t>(length - 1)}};
}

ScanOutModel ScanOutModel::hxor(std::size_t length, std::size_t num_taps) {
  VCOMP_REQUIRE(length > 0, "empty scan chain");
  VCOMP_REQUIRE(num_taps >= 1 && num_taps <= length,
                "tap count must be in [1, length]");
  const std::size_t stride = length / num_taps;
  VCOMP_REQUIRE(stride >= 1, "too many taps for chain length");
  ScanOutModel m;
  // Anchored at the tail, walking toward the head.
  for (std::size_t j = 0; j < num_taps; ++j) {
    const std::size_t pos = length - 1 - j * stride;
    m.taps.push_back(static_cast<std::uint32_t>(pos));
  }
  std::sort(m.taps.begin(), m.taps.end());
  return m;
}

}  // namespace vcomp::scan
