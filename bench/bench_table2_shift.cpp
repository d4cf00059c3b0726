// Table 2: varying the size and type of shifting.
//
// For each benchmark profile: fixed shifts at the 3/8, 5/8 and 7/8 info
// points (unattainable points print '/', exactly as in the paper) and the
// variable-shift policy.  Columns mirror the paper: aTV (baseline vector
// count), shift (s/L), TV (stitched vectors), ex (appended traditional
// vectors), m (memory ratio), t (time ratio).
//
// Paper reference values are printed alongside for shape comparison; the
// substrate here is a synthetic profile-matched circuit, so absolute
// numbers differ while trends (5/8 best among fixed; variable best overall;
// tiny shifts explode `ex`) should hold.
//
// On top of the paper's single-chain sweep, every info point is re-run on
// multi-chain scan fabrics (VCOMP_CHAINS, default "1,2,4"; round-robin
// DFF→chain partition).  Multi-chain rows carry an "@c<N>" config suffix
// in the table and the JSON records; the 1-chain rows keep their
// historical labels so baselines stay byte-comparable.
//
// Env: VCOMP_QUICK=1 restricts to the four smallest circuits.

#include <cstdio>
#include <map>

#include "bench_util.hpp"

using namespace vcomp;
using benchutil::PaperRef;

namespace {

struct PaperRow {
  PaperRef p38, p58, p78, var;
};

// Table 2 of the paper (m, t per info point; -1 = '/').
const std::map<std::string, PaperRow> kPaper = {
    {"s444", {{0.88, 0.82}, {0.64, 0.57}, {0.88, 0.86}, {0.73, 0.53}}},
    {"s526", {{0.88, 0.82}, {0.66, 0.58}, {0.85, 0.83}, {0.72, 0.53}}},
    {"s641", {{-1, -1}, {0.80, 0.46}, {0.62, 0.49}, {0.68, 0.24}}},
    {"s953", {{-1, -1}, {0.63, 0.38}, {0.88, 0.79}, {0.52, 0.14}}},
    {"s1196", {{-1, -1}, {0.63, 0.34}, {0.89, 0.79}, {0.49, 0.10}}},
    {"s1423", {{0.76, 0.71}, {0.82, 0.78}, {0.73, 0.72}, {0.63, 0.43}}},
    {"s5378", {{0.92, 0.89}, {0.83, 0.79}, {0.77, 0.75}, {0.57, 0.45}}},
    {"s9234", {{0.96, 0.95}, {0.84, 0.82}, {0.61, 0.60}, {0.68, 0.63}}},
};

}  // namespace

int main() {
  std::printf("=== Table 2: varying the size and type of shifting ===\n");
  std::printf("(measured on synthetic profile-matched circuits; 'paper' "
              "columns quote DATE'03 Table 2)\n\n");

  auto profiles = netgen::table234_profiles();
  profiles = benchutil::select_circuits(std::move(profiles), 4);
  const auto chain_list = benchutil::chain_counts();

  report::Table table({"circ", "aTV", "info", "shift", "TV", "ex", "m", "t",
                       "paper m", "paper t"});
  benchutil::RatioAverager avg_m38, avg_t38, avg_m58, avg_t58, avg_m78,
      avg_t78, avg_mv, avg_tv;
  benchutil::BenchJson json("table2");

  // Baselines for all circuits, then every circuit's sweep, run on the
  // process pool (VCOMP_THREADS); results are identical to the serial
  // sweep for any thread count.
  benchutil::Stopwatch build_sw;
  const auto labs = core::make_labs(profiles);
  std::fprintf(stderr, "[table2] %zu baselines built in %.1fs (%zu threads)\n",
               labs.size(), build_sw.seconds(), benchutil::threads_used());

  for (const auto& lab_ptr : labs) {
    const auto& lab = *lab_ptr;
    benchutil::Stopwatch sw;
    const auto& paper = kPaper.at(lab.name());

    struct Point {
      const char* label;
      double ratio;  // 0 = variable
      PaperRef ref;
      benchutil::RatioAverager* am;
      benchutil::RatioAverager* at;
      bool attainable = false;
      std::string shift_desc = "/";
    };
    Point points[] = {
        {"3/8", 3.0 / 8, paper.p38, &avg_m38, &avg_t38},
        {"5/8", 5.0 / 8, paper.p58, &avg_m58, &avg_t58},
        {"7/8", 7.0 / 8, paper.p78, &avg_m78, &avg_t78},
        {"var", 0.0, paper.var, &avg_mv, &avg_tv},
    };

    // One sweep entry per (chain count, attainable info point); 1-chain
    // entries come first so their JSON rows keep the historical order.
    struct Run {
      Point* pt;
      std::size_t chains;
      std::size_t index;  // into `timed`
    };
    std::vector<core::StitchOptions> sweep;
    std::vector<Run> runs;
    for (std::size_t nc : chain_list) {
      if (nc > lab.netlist().num_dffs()) continue;
      for (auto& pt : points) {
        core::StitchOptions opts;
        opts.num_chains = nc;
        if (pt.ratio > 0) {
          if (!core::apply_info_ratio(opts, lab.netlist(), pt.ratio))
            continue;
          pt.shift_desc = std::to_string(opts.fixed_shift) + "/" +
                          std::to_string(lab.netlist().num_dffs());
        } else {
          pt.shift_desc = "variable";
        }
        if (nc == 1) pt.attainable = true;
        runs.push_back({&pt, nc, sweep.size()});
        sweep.push_back(opts);
      }
    }
    const auto timed = benchutil::run_timed(lab, sweep);

    // 1-chain block first: paper-comparable rows in point order, '/' where
    // the info point is unattainable — exactly the historical layout.
    for (const auto& pt : points) {
      const Run* run = nullptr;
      for (const auto& rr : runs)
        if (rr.pt == &pt && rr.chains == 1) run = &rr;
      if (run == nullptr) {
        table.add_row({lab.name(), report::Table::num(lab.atv()), pt.label,
                       "/", "/", "/", "/", "/", benchutil::ref_str(pt.ref.m),
                       benchutil::ref_str(pt.ref.t)});
        continue;
      }
      const auto& tr = timed[run->index];
      const auto& r = tr.result;
      pt.am->add(r.memory_ratio);
      pt.at->add(r.time_ratio);
      json.add(lab.name(), pt.label, tr);
      table.add_row({lab.name(), report::Table::num(lab.atv()), pt.label,
                     pt.shift_desc, report::Table::num(r.vectors_applied),
                     report::Table::num(r.extra_full_vectors),
                     report::Table::ratio(r.memory_ratio),
                     report::Table::ratio(r.time_ratio),
                     benchutil::ref_str(pt.ref.m),
                     benchutil::ref_str(pt.ref.t)});
    }
    // Multi-chain rows ("@c<N>" config suffix; no paper counterpart).
    for (const auto& rr : runs) {
      if (rr.chains == 1) continue;
      const auto& tr = timed[rr.index];
      const auto& r = tr.result;
      const std::string label =
          std::string(rr.pt->label) + "@c" + std::to_string(rr.chains);
      json.add(lab.name(), label, tr);
      table.add_row({lab.name(), report::Table::num(lab.atv()), label,
                     rr.pt->shift_desc,
                     report::Table::num(r.vectors_applied),
                     report::Table::num(r.extra_full_vectors),
                     report::Table::ratio(r.memory_ratio),
                     report::Table::ratio(r.time_ratio), "-", "-"});
    }
    std::fprintf(stderr, "[table2] %s done in %.1fs\n", lab.name().c_str(),
                 sw.seconds());
  }

  table.add_row({"Ave", "", "3/8", "", "", "", avg_m38.str(), avg_t38.str(),
                 "0.88", "0.84"});
  table.add_row({"Ave", "", "5/8", "", "", "", avg_m58.str(), avg_t58.str(),
                 "0.73", "0.59"});
  table.add_row({"Ave", "", "7/8", "", "", "", avg_m78.str(), avg_t78.str(),
                 "0.78", "0.73"});
  table.add_row({"Ave", "", "var", "", "", "", avg_mv.str(), avg_tv.str(),
                 "0.63", "0.38"});
  std::printf("%s", table.to_string().c_str());
  const std::string json_path = json.write();
  if (!json_path.empty())
    std::fprintf(stderr, "[table2] per-config records written to %s\n",
                 json_path.c_str());
  return 0;
}
