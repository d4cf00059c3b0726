// Table 4: test-vector selection policies — Random (randomly ordered fault
// list), Hardness (hardest-first order) and Most-faults (greedy candidate
// scoring) — under variable shift, plain NXOR observation.  A fourth `adi`
// row (ascending Accidental Detection Index, not in the paper's table)
// rides along for comparison.
//
// Env: VCOMP_QUICK=1 restricts to the four smallest circuits.

#include <cstdio>
#include <map>

#include "bench_util.hpp"

using namespace vcomp;
using benchutil::PaperRef;

namespace {

struct PaperRow {
  PaperRef random, hardness, most;
};

// Table 4 of the paper.
const std::map<std::string, PaperRow> kPaper = {
    {"s444", {{0.81, 0.54}, {0.77, 0.50}, {0.73, 0.53}}},
    {"s526", {{0.86, 0.62}, {0.81, 0.58}, {0.71, 0.52}}},
    {"s641", {{0.88, 0.26}, {0.84, 0.24}, {0.72, 0.20}}},
    {"s953", {{0.70, 0.24}, {0.57, 0.17}, {0.52, 0.14}}},
    {"s1196", {{0.66, 0.15}, {0.53, 0.09}, {0.48, 0.09}}},
    {"s1423", {{0.75, 0.50}, {0.79, 0.55}, {0.68, 0.46}}},
    {"s5378", {{0.73, 0.55}, {0.63, 0.48}, {0.57, 0.45}}},
    {"s9234", {{1.02, 0.94}, {0.98, 0.91}, {0.68, 0.63}}},
};

}  // namespace

int main() {
  std::printf("=== Table 4: selection of test vectors (Random / Hardness / "
              "Most-faults) ===\n\n");

  auto profiles = netgen::table234_profiles();
  profiles = benchutil::select_circuits(std::move(profiles), 4);

  report::Table table({"circ", "selection", "TV", "ex", "m", "t", "paper m",
                       "paper t"});
  constexpr std::size_t kCfgs = 4;
  benchutil::RatioAverager avg[kCfgs][2];
  benchutil::BenchJson json("table4");

  const auto labs = core::make_labs(profiles);  // parallel baselines
  for (const auto& lab_ptr : labs) {
    const auto& lab = *lab_ptr;
    benchutil::Stopwatch sw;
    const auto& paper = kPaper.at(lab.name());

    struct Cfg {
      core::SelectionPolicy sel;
      PaperRef ref;
    };
    const Cfg cfgs[kCfgs] = {
        {core::SelectionPolicy::Random, paper.random},
        {core::SelectionPolicy::Hardness, paper.hardness},
        {core::SelectionPolicy::MostFaults, paper.most},
        {core::SelectionPolicy::Adi, {}},  // not in the paper's table
    };
    std::vector<core::StitchOptions> sweep(kCfgs);
    for (std::size_t k = 0; k < kCfgs; ++k) sweep[k].selection = cfgs[k].sel;
    // One shared lab, all four strategy rows fanned out together.
    const auto timed = benchutil::run_timed(lab, sweep);
    for (std::size_t k = 0; k < kCfgs; ++k) {
      const auto& r = timed[k].result;
      avg[k][0].add(r.memory_ratio);
      avg[k][1].add(r.time_ratio);
      json.add(lab.name(), core::to_string(cfgs[k].sel), timed[k]);
      table.add_row({lab.name(), core::to_string(cfgs[k].sel),
                     report::Table::num(r.vectors_applied),
                     report::Table::num(r.extra_full_vectors),
                     report::Table::ratio(r.memory_ratio),
                     report::Table::ratio(r.time_ratio),
                     benchutil::ref_str(cfgs[k].ref.m),
                     benchutil::ref_str(cfgs[k].ref.t)});
    }
    std::fprintf(stderr, "[table4] %s done in %.1fs\n", lab.name().c_str(),
                 sw.seconds());
  }
  table.add_row({"Ave", "random", "", "", avg[0][0].str(), avg[0][1].str(),
                 "0.80", "0.48"});
  table.add_row({"Ave", "hardness", "", "", avg[1][0].str(), avg[1][1].str(),
                 "0.74", "0.44"});
  table.add_row({"Ave", "most-faults", "", "", avg[2][0].str(),
                 avg[2][1].str(), "0.64", "0.38"});
  table.add_row({"Ave", "adi", "", "", avg[3][0].str(), avg[3][1].str(), "-",
                 "-"});
  std::printf("%s", table.to_string().c_str());
  json.write();
  return 0;
}
