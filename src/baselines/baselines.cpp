#include "vcomp/baselines/baselines.hpp"

#include <algorithm>

namespace vcomp::baselines {

void finalize_ratios(BaselineResult& r) {
  if (r.full_cost.shift_cycles > 0)
    r.time_ratio =
        double(r.cost.shift_cycles) / double(r.full_cost.shift_cycles);
  if (r.full_cost.memory_bits() > 0)
    r.memory_ratio =
        double(r.cost.memory_bits()) / double(r.full_cost.memory_bits());
}

void finish_serial(const netlist::Netlist& nl,
                   const fault::CollapsedFaults& faults,
                   const atpg::TestSetResult& baseline,
                   const std::vector<std::uint8_t>& remaining,
                   fault::DiffSimShards& sims, BaselineResult& res) {
  std::vector<std::size_t> targets;
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (remaining[i]) targets.push_back(i);
  const auto first =
      atpg::first_detections(sims, faults.faults(), targets, baseline.vectors);
  std::vector<std::uint8_t> used(baseline.vectors.size(), 0);
  for (std::size_t k : first)
    if (k != atpg::kUndetected) used[k] = 1;
  res.full_vectors = static_cast<std::size_t>(
      std::count(used.begin(), used.end(), std::uint8_t{1}));
  res.uncovered = static_cast<std::size_t>(
      std::count(first.begin(), first.end(), atpg::kUndetected));
  const std::size_t L = nl.num_dffs();
  if (res.full_vectors > 0) {
    res.cost.shift_cycles += (res.full_vectors + 1) * L;
    res.cost.stim_bits += res.full_vectors * (nl.num_inputs() + L);
    res.cost.resp_bits += res.full_vectors * (nl.num_outputs() + L);
  }
  finalize_ratios(res);
}

}  // namespace vcomp::baselines
