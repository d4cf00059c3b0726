// Table 5: the final scheme (variable shift + most-faults selection, plain
// NXOR so the comparison carries zero hardware overhead) on the paper's
// large ISCAS89 circuits.
//
// The paper's hallmark datapoint — s35932, whose easy-to-test fault
// population lets tiny shifts carry almost the whole test set (m=0.20,
// t=0.07) — is reproduced through the profile's `easiness` knob.
//
// Env: VCOMP_QUICK=1 runs only s5378 and s9234.

#include <cstdio>
#include <map>

#include "bench_util.hpp"

using namespace vcomp;
using benchutil::PaperRef;

namespace {

// Table 5 of the paper.
const std::map<std::string, PaperRef> kPaper = {
    {"s5378", {0.76, 0.57}},  {"s9234", {0.75, 0.68}},
    {"s13207", {0.74, 0.65}}, {"s15850", {0.60, 0.51}},
    {"s35932", {0.20, 0.07}}, {"s38417", {0.60, 0.57}},
    {"s38584", {0.63, 0.55}},
};

}  // namespace

int main() {
  std::printf("=== Table 5: large circuits, final scheme (variable shift + "
              "most-faults, no XOR hardware) ===\n\n");

  auto profiles = netgen::table5_profiles();
  profiles = benchutil::select_circuits(std::move(profiles), 2);

  report::Table table({"circ", "I/O", "scan#", "aTV", "TV", "ex", "m", "t",
                       "paper m", "paper t"});
  benchutil::RatioAverager avg_m, avg_t;
  benchutil::BenchJson json("table5");

  // One configuration per circuit, so the whole (baseline + stitched run)
  // of each profile is one independent task on the process pool.
  struct Run {
    std::size_t atv = 0;
    benchutil::TimedResult timed;  // seconds include the lab's baseline
  };
  const auto runs = util::parallel_map(profiles.size(), [&](std::size_t i) {
    benchutil::Stopwatch sw;
    core::CircuitLab lab(profiles[i]);
    Run run;
    run.atv = lab.atv();
    run.timed.counters = obs::scoped_counters(
        [&] { run.timed.result = lab.run(core::StitchOptions{}); });
    run.timed.seconds = sw.seconds();
    std::fprintf(stderr, "[table5] %s done in %.1fs\n",
                 profiles[i].name.c_str(), sw.seconds());
    return run;
  });

  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const auto& prof = profiles[i];
    const auto& r = runs[i].timed.result;
    avg_m.add(r.memory_ratio);
    avg_t.add(r.time_ratio);
    const auto& ref = kPaper.at(prof.name);
    json.add(prof.name, "final", runs[i].timed);
    table.add_row({prof.name,
                   std::to_string(prof.num_pi) + "/" +
                       std::to_string(prof.num_po),
                   report::Table::num(prof.num_ff),
                   report::Table::num(runs[i].atv),
                   report::Table::num(r.vectors_applied),
                   report::Table::num(r.extra_full_vectors),
                   report::Table::ratio(r.memory_ratio),
                   report::Table::ratio(r.time_ratio),
                   benchutil::ref_str(ref.m), benchutil::ref_str(ref.t)});
    std::printf("%s: aTV=%zu TV=%zu ex=%zu m=%.2f t=%.2f  (paper %s/%s)\n",
                prof.name.c_str(), runs[i].atv, r.vectors_applied,
                r.extra_full_vectors, r.memory_ratio, r.time_ratio,
                benchutil::ref_str(ref.m).c_str(),
                benchutil::ref_str(ref.t).c_str());
  }
  table.add_row({"Ave", "", "", "", "", "", avg_m.str(), avg_t.str(),
                 "0.61", "0.51"});
  std::printf("%s", table.to_string().c_str());
  json.write();
  return 0;
}
