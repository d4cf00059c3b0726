#include "vcomp/baselines/psfs.hpp"

#include <bit>

#include "vcomp/fault/fault_sim.hpp"
#include "vcomp/util/assert.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::baselines {

using fault::DiffSim;
using sim::Word;

BaselineResult run_psfs(const netlist::Netlist& nl,
                        const fault::CollapsedFaults& faults,
                        const atpg::TestSetResult& baseline,
                        const PsfsOptions& options) {
  VCOMP_REQUIRE(options.partitions >= 2, "PSFS needs at least 2 partitions");
  const std::size_t L = nl.num_dffs();
  const std::size_t npi = nl.num_inputs();
  const std::size_t npo = nl.num_outputs();
  const std::size_t lp = (L + options.partitions - 1) / options.partitions;

  BaselineResult res;
  res.scheme = "PSFS(k=" + std::to_string(options.partitions) + ")";
  res.full_cost = scan::CostMeter::full_scan(npi, npo, L,
                                             baseline.vectors.size());
  res.needs_output_compactor = false;  // one scan-out pin per partition

  std::vector<std::uint8_t> remaining(faults.size(), 0);
  std::size_t remaining_count = 0;
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (baseline.classes[i] == atpg::FaultClass::Detected) {
      remaining[i] = 1;
      ++remaining_count;
    }

  fault::DiffSimShards sims(nl);
  DiffSim& sim = sims.at(0);
  Rng rng(options.seed);

  // ---- parallel phase: broadcast-periodic random patterns ---------------
  // Chain position p receives broadcast bit (p mod lp); per pattern the
  // tester supplies PI bits plus lp scan bits, in lp shift cycles.
  std::size_t idle = 0;
  for (std::size_t block = 0;
       block < options.max_blocks && idle < options.idle_blocks &&
       remaining_count > 0;
       ++block) {
    std::vector<Word> data(lp);
    for (auto& w : data) w = rng.next();
    for (std::size_t i = 0; i < npi; ++i) sim.good().set_input(i, rng.next());
    for (std::size_t p = 0; p < L; ++p)
      sim.good().set_state(p, data[p % lp]);
    sim.commit_good();

    Word used = 0;
    bool any = false;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (!remaining[i]) continue;
      const Word det = sim.simulate(faults[i]).any();
      if (det == 0) continue;
      used |= det & (~det + 1);
      remaining[i] = 0;
      --remaining_count;
      any = true;
    }
    idle = any ? 0 : idle + 1;
    const int kept = std::popcount(used);
    res.cheap_vectors += static_cast<std::size_t>(kept);
  }
  // Parallel-mode cost: lp shift cycles per vector; stimulus PI + lp bits;
  // every partition output observed (k pins) so the full L response bits
  // are stored.  Pipeline overlap mirrors the full-scan formula.
  if (res.cheap_vectors > 0) {
    res.cost.shift_cycles += (res.cheap_vectors + 1) * lp;
    res.cost.stim_bits += res.cheap_vectors * (npi + lp);
    res.cost.resp_bits += res.cheap_vectors * (npo + L);
  }

  // ---- serial phase: cover the leftovers from the aTV pool --------------
  finish_serial(nl, faults, baseline, remaining, sims, res);
  return res;
}

}  // namespace vcomp::baselines
