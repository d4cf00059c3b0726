#pragma once

/// \file baselines.hpp
/// Competing compression schemes from the paper's related-work section
/// (Section 2), implemented as comparators for the stitching approach.
///
/// All baselines consume the same inputs as the stitching engine — a
/// finalized netlist, its collapsed fault list and the full-shift aTV test
/// set — and report costs with the same meters, so `bench_baselines` can
/// print one apples-to-apples table.

#include <cstdint>
#include <string>
#include <vector>

#include "vcomp/atpg/test_set.hpp"
#include "vcomp/fault/collapse.hpp"
#include "vcomp/scan/cost_model.hpp"

namespace vcomp::baselines {

/// Cost/coverage summary of one competing scheme.
struct BaselineResult {
  std::string scheme;
  scan::Cost cost;
  scan::Cost full_cost;        ///< the aTV full-shift reference
  double time_ratio = 0.0;     ///< t, vs full shifting
  double memory_ratio = 0.0;   ///< m, vs full shifting
  std::size_t cheap_vectors = 0;  ///< applied in the compressed mode
  std::size_t full_vectors = 0;   ///< applied serially / uncompressed
  std::size_t uncovered = 0;      ///< detectable faults lost (0 expected)
  bool needs_output_compactor = false;  ///< MISR-class hardware on outputs
};

/// Computes ratios given an accumulated cost (shared helper).
void finalize_ratios(BaselineResult& r);

/// Serial phase shared by the compressed-mode schemes: covers the faults
/// flagged in \p remaining with aTV vectors (fault dropping in pool order,
/// atpg::first_detections), charges each kept vector at full-shift cost,
/// sets full_vectors and uncovered, and finalizes the ratios.
void finish_serial(const netlist::Netlist& nl,
                   const fault::CollapsedFaults& faults,
                   const atpg::TestSetResult& baseline,
                   const std::vector<std::uint8_t>& remaining,
                   fault::DiffSimShards& sims, BaselineResult& res);

}  // namespace vcomp::baselines
