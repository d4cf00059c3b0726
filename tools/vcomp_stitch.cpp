// vcomp_stitch — command-line front end for the stitching flow.
//
// Reads an ISCAS89 .bench netlist (or synthesizes a netgen profile via
// gen:<name>), generates the full-shift baseline and a stitched test
// program, reports the compression, and optionally writes the test
// program in the schedule text format (see schedule_io.hpp).
//
// Usage:
//   vcomp_stitch <netlist.bench | gen:profile> [options]
//     --out <file>        write the stitched test program
//     --shift <n|ga|var>  fixed shift size <n>; "var" = the escalating
//                         variable policy (the default); "ga" = evolve a
//                         per-cycle shift schedule with the genetic search
//                         (core/ga_schedule) and apply the winner
//     --info <r>          fixed shift at info point r in (0,1]
//     --ga-pop <n>        GA population size (default 12)
//     --ga-gens <n>       GA generations (default 8)
//     --ga-genes <n>      GA chromosome length (default 10)
//     --chains <n>        split the scan fabric into n parallel chains
//                         (default 1: the classic single-chain flow)
//     --partition <p>     round-robin (default) | contiguous | random
//                         DFF→chain assignment
//     --partition-seed <n> seed for --partition random
//     --full-scale        lift the netgen gate-budget cap on gen:s38417 /
//                         gen:s38584 (original gate counts; slower)
//     --selection <s>     random | hardness | most-faults (default) | adi
//                         (ascending Accidental Detection Index order)
//     --atpg <e>          podem (default) | sat | race constrained-ATPG
//                         engine (race runs PODEM first and falls through
//                         to the built-in CDCL SAT backend on Aborted)
//     --capture <c>       normal (default) | vxor
//     --hxor <taps>       horizontal-XOR scan-out with <taps> taps
//     --seed <n>          run seed
//     --threads <n>       worker threads, at most 1024 (default:
//                         VCOMP_THREADS or all hardware threads; results
//                         are identical for any thread count)
//     --profile           print the per-phase wall-clock breakdown of the
//                         stitched run (PODEM, scoring, shift, classify,
//                         hidden advance, terminal) with throughput, next
//                         to the ATPG and tracker work counters of the
//                         same scoped window that --row reports
//     --row <file>        write the canonical single-line result row ("-"
//                         for stdout): Table-2 quantities plus the run's
//                         scoped obs counters, byte-identical to the row
//                         the vcomp_serve daemon emits for the same job
//     --metrics <file>    write the merged obs metrics snapshot (counters,
//                         histograms, timings) as JSON
//     --trace <file>      capture scoped spans and write Chrome-trace JSON
//                         (load in chrome://tracing or Perfetto)
//
// The job flags (--chains, --partition, --partition-seed, --shift <n>,
// --info, --selection, --atpg, --capture, --hxor, --seed, --full-scale) are
// the vcomp_serve config keys: they are validated by serve::apply_config
// before any netlist is built, so the CLI and the daemon accept and reject
// the same values with the same messages.
//
// Exit code 0 iff coverage is fully preserved; 2 on a usage or input error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "vcomp/core/experiment.hpp"
#include "vcomp/core/ga_schedule.hpp"
#include "vcomp/core/schedule_io.hpp"
#include "vcomp/obs/obs.hpp"
#include "vcomp/scan/fabric.hpp"
#include "vcomp/serve/protocol.hpp"
#include "vcomp/util/parallel.hpp"
#include "cli_args.hpp"

using namespace vcomp;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <netlist.bench|gen:profile> [--out f]\n"
               "       [--shift n|ga|var | --info r]\n"
               "       [--ga-pop n] [--ga-gens n] [--ga-genes n]\n"
               "       [--chains n] [--partition round-robin|contiguous|"
               "random]\n"
               "       [--partition-seed n] [--full-scale]\n"
               "       [--selection random|hardness|most-faults|adi]\n"
               "       [--atpg podem|sat|race]\n"
               "       [--capture normal|vxor] [--hxor taps] [--seed n]\n"
               "       [--threads n] [--profile] [--metrics f] [--trace f]\n",
               argv0);
  return 2;
}

/// Flags that map one-to-one onto serve config keys ("--partition-seed"
/// -> "partition_seed").
constexpr const char* kJobFlags[] = {"--chains", "--partition",
                                     "--partition-seed", "--info",
                                     "--selection", "--atpg", "--capture",
                                     "--hxor", "--seed"};

/// A flag value as the daemon would receive it: a JSON number stays a
/// number, anything else is a string, so "--chains abc" fails the same
/// "chains must be a positive integer" check a daemon job does.
serve::Json flag_value(const char* v) {
  const auto j = serve::Json::parse(v);
  return j && j->is_number() ? *j : serve::Json::string(v);
}

/// Phase seconds plus the run window's work counters (the same scoped
/// counters --row reports).
void print_profile(const core::PhaseProfile& p, const obs::CounterSet& c) {
  const auto per_s = [](std::uint64_t n, double s) {
    return s > 0 ? double(n) / s : 0.0;
  };
  const std::uint64_t classified = c.get("tracker.faults_classified");
  const std::uint64_t advanced = c.get("tracker.hidden_advanced");
  std::printf("phase profile (wall seconds):\n");
  std::printf("  podem     %9.3f\n", p.podem_seconds);
  std::printf("  scoring   %9.3f\n", p.scoring_seconds);
  std::printf("  shift     %9.3f\n", p.shift_seconds);
  std::printf("  classify  %9.3f  (%llu faults, %.0f/s)\n", p.classify_seconds,
              (unsigned long long)classified,
              per_s(classified, p.classify_seconds));
  std::printf("  advance   %9.3f  (%llu lanes, %.0f/s)\n", p.advance_seconds,
              (unsigned long long)advanced, per_s(advanced, p.advance_seconds));
  std::printf("  terminal  %9.3f\n", p.terminal_seconds);
  std::printf("  total     %9.3f\n", p.total_seconds);
  std::printf("work counters:\n");
  for (const char* name :
       {"podem.calls", "podem.success", "podem.constrained_untestable",
        "podem.aborted", "atpg.sat_calls", "tracker.faults_classified",
        "tracker.hidden_advanced"})
    std::printf("  %-28s %llu\n", name, (unsigned long long)c.get(name));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string path = argv[1];
  std::string out_path, metrics_path, trace_path, row_path;
  core::GaOptions gopts;
  bool profile = false;
  bool ga_mode = false;
  serve::Json config = serve::Json::object();

  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto need = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    // CLI-only counts: digits only, so "abc" or "-1" exit 2 instead of
    // aborting or wrapping around.
    auto count = [&](const char* what, auto... range) {
      return cli::parse_count(what, need(what), range...);
    };
    if (std::find(std::begin(kJobFlags), std::end(kJobFlags), a) !=
        std::end(kJobFlags)) {
      std::string key = a.substr(2);
      std::replace(key.begin(), key.end(), '-', '_');
      config.set(std::move(key), flag_value(need(a.c_str())));
    } else if (a == "--shift") {
      // "ga" and "var" are CLI-only; a number is the shared shift key.
      const std::string v = need("--shift");
      ga_mode = v == "ga";
      config.set("shift", ga_mode || v == "var" ? serve::Json::integer(0)
                                                : flag_value(v.c_str()));
    } else if (a == "--full-scale")
      config.set("full_scale", serve::Json::boolean(true));
    else if (a == "--out") out_path = need("--out");
    else if (a == "--ga-pop") gopts.population = count("--ga-pop");
    else if (a == "--ga-gens") gopts.generations = count("--ga-gens");
    else if (a == "--ga-genes") gopts.genes = count("--ga-genes");
    else if (a == "--threads")
      util::ThreadPool::instance().configure(
          count("--threads", 0, util::kMaxParallelism));
    else if (a == "--profile") profile = true;
    else if (a == "--row") row_path = need("--row");
    else if (a == "--metrics") metrics_path = need("--metrics");
    else if (a == "--trace") trace_path = need("--trace");
    else return usage(argv[0]);
  }

  serve::JobSpec spec;
  std::string error;
  if (!serve::apply_config(config, spec, error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  core::StitchOptions opts = spec.options;
  const double info = spec.info;
  const bool full_scale = spec.full_scale;

  if (ga_mode && info > 0.0) {
    std::fprintf(stderr, "--shift ga and --info are mutually exclusive\n");
    return 2;
  }

  if (!trace_path.empty()) obs::set_trace_enabled(true);

  try {
    auto nl = core::load_circuit(path, full_scale);
    std::printf("netlist: %zu PIs, %zu POs, %zu scan cells, %zu gates  "
                "(%zu threads)\n",
                nl.num_inputs(), nl.num_outputs(), nl.num_dffs(),
                nl.num_comb_gates(), util::parallelism());
    if (opts.num_chains > 1)
      std::printf("fabric: %zu chains, %s partition\n", opts.num_chains,
                  scan::to_string(opts.partition));
    if (opts.atpg_engine != atpg::EngineKind::Podem)
      std::printf("atpg engine: %s\n", atpg::to_string(opts.atpg_engine));
    core::CircuitLab lab(path, std::move(nl));
    if (info > 0.0 &&
        !core::apply_info_ratio(opts, lab.netlist(), info)) {
      std::fprintf(stderr, "info point %.3f unattainable for this I/O\n",
                   info);
      return 2;
    }

    const auto& base = lab.baseline();
    std::printf("baseline: %zu vectors, %.1f%% coverage (%zu redundant, "
                "%zu aborted)\n",
                lab.atv(), 100.0 * base.coverage(), base.num_redundant,
                base.num_aborted);

    if (ga_mode) {
      gopts.seed = opts.seed;
      const core::GaResult gr = core::evolve_schedule(lab, opts, gopts);
      std::printf("ga: %zu generations, %zu evals, best quick m=%.3f "
                  "t=%.3f\nga schedule:",
                  gr.generations, gr.evals, gr.fitness_m, gr.fitness_t);
      for (const std::size_t s : gr.schedule) std::printf(" %zu", s);
      std::printf("\n");
      opts = core::apply_ga_schedule(opts, gr);
    }

    // Run under a scoped obs window exactly like a serve job: --row and
    // --profile counters come from the window, so the row is byte-identical
    // to the daemon's for the same job.  Lab construction above stays in
    // the ambient scope, mirroring the daemon's artifact registry; the
    // window folds into the process-wide totals before --metrics reads
    // them.
    core::StitchResult r;
    const obs::CounterSet counters =
        obs::scoped_counters([&] { r = lab.run(opts); });
    std::printf("stitched: TV=%zu ex=%zu  t=%.3f m=%.3f  coverage %s\n",
                r.vectors_applied, r.extra_full_vectors, r.time_ratio,
                r.memory_ratio, r.uncovered == 0 ? "preserved" : "LOST");
    if (profile) print_profile(r.profile, counters);

    if (!row_path.empty()) {
      const std::string row = serve::result_row(
          serve::circuit_label(path, full_scale), r, counters);
      if (row_path == "-") {
        std::printf("%s\n", row.c_str());
      } else {
        std::ofstream out(row_path);
        if (!out.good()) {
          std::fprintf(stderr, "cannot write %s\n", row_path.c_str());
          return 2;
        }
        out << row << '\n';
      }
    }

    if (!out_path.empty()) {
      std::ofstream out(out_path);
      if (!out.good()) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 2;
      }
      core::write_schedule(out, r.schedule);
      std::printf("test program written to %s\n", out_path.c_str());
    }
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      if (!out.good()) {
        std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
        return 2;
      }
      obs::Registry::instance().snapshot().write_json(out);
      out << '\n';
      std::printf("metrics written to %s\n", metrics_path.c_str());
    }
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      if (!out.good()) {
        std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
        return 2;
      }
      obs::write_chrome_trace(out);
      std::printf("trace written to %s\n", trace_path.c_str());
    }
    return r.uncovered == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
