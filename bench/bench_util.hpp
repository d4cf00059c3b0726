#pragma once

/// Shared plumbing for the table-reproduction benchmark binaries: paper
/// reference values (for side-by-side printing), environment knobs, and a
/// tiny stopwatch.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "vcomp/core/experiment.hpp"
#include "vcomp/obs/metrics.hpp"
#include "vcomp/report/table.hpp"
#include "vcomp/util/parallel.hpp"

namespace vcomp::benchutil {

/// VCOMP_QUICK=1 trims each table to its smaller circuits (CI-friendly).
inline bool quick_mode() {
  const char* v = std::getenv("VCOMP_QUICK");
  return v != nullptr && v[0] == '1';
}

/// Threads the process pool runs on (VCOMP_THREADS; reported in the JSON).
inline std::size_t threads_used() { return util::parallelism(); }

/// VCOMP_CIRCUITS=s5378,s9234 restricts a table bench to the named
/// profiles (empty/unset = all).  Filtering only selects which circuits
/// run; per-circuit results are unchanged, so single-circuit before/after
/// profiles stay comparable with full-table runs.
inline std::vector<netgen::CircuitProfile> filter_circuits(
    std::vector<netgen::CircuitProfile> profiles) {
  const char* env = std::getenv("VCOMP_CIRCUITS");
  if (env == nullptr || env[0] == '\0') return profiles;
  std::vector<std::string> wanted;
  for (const char* p = env; *p != '\0';) {
    const char* e = p;
    while (*e != '\0' && *e != ',') ++e;
    if (e != p) wanted.emplace_back(p, e);
    p = *e == ',' ? e + 1 : e;
  }
  std::vector<netgen::CircuitProfile> out;
  for (auto& pr : profiles)
    for (const auto& w : wanted)
      if (pr.name == w) {
        out.push_back(std::move(pr));
        break;
      }
  return out;
}

/// Circuit selection for a table bench: an explicit VCOMP_CIRCUITS list
/// wins over quick-mode trimming (so CI can pin a specific circuit even
/// under VCOMP_QUICK=1); otherwise quick mode keeps the first
/// `quick_take` profiles.
inline std::vector<netgen::CircuitProfile> select_circuits(
    std::vector<netgen::CircuitProfile> profiles, std::size_t quick_take) {
  const char* env = std::getenv("VCOMP_CIRCUITS");
  if (env != nullptr && env[0] != '\0')
    return filter_circuits(std::move(profiles));
  if (quick_mode() && profiles.size() > quick_take)
    profiles.resize(quick_take);
  return profiles;
}

/// VCOMP_CHAINS=1,2,4 (the default) selects the scan-fabric chain counts a
/// table bench sweeps.  The 1-chain rows keep their historical config
/// labels, so their JSON records stay byte-comparable with pre-fabric
/// baselines; c>1 rows are labelled with an "@c<N>" suffix.
inline std::vector<std::size_t> chain_counts() {
  const char* env = std::getenv("VCOMP_CHAINS");
  const std::string spec = env != nullptr && env[0] != '\0' ? env : "1,2,4";
  std::vector<std::size_t> out;
  for (std::size_t p = 0; p < spec.size();) {
    std::size_t e = spec.find(',', p);
    if (e == std::string::npos) e = spec.size();
    if (e > p) {
      const std::size_t n = std::stoul(spec.substr(p, e - p));
      if (n > 0) out.push_back(n);
    }
    p = e + 1;
  }
  if (out.empty()) out.push_back(1);
  return out;
}

/// VCOMP_ATPG=podem|sat|race picks the constrained-ATPG engine of every
/// run_timed() configuration (unset = podem, so the committed rows are the
/// PODEM rows): the engine comparison re-runs a table bench with only this
/// variable changed.
inline atpg::EngineKind atpg_engine() {
  const char* env = std::getenv("VCOMP_ATPG");
  if (env == nullptr || env[0] == '\0') return atpg::EngineKind::Podem;
  atpg::EngineKind kind;
  if (!atpg::engine_kind_from_string(env, kind))
    throw std::runtime_error("VCOMP_ATPG must be podem, sat or race (got \"" +
                             std::string(env) + "\")");
  return kind;
}

/// One paper reference pair (m, t); negative = not reported.
struct PaperRef {
  double m = -1;
  double t = -1;
};

inline std::string ref_str(double v) {
  if (v < 0) return "-";
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Averages a column of ratios, paper-style ("Ave" row).
class RatioAverager {
 public:
  void add(double v) {
    sum_ += v;
    ++n_;
  }
  std::string str() const {
    return n_ == 0 ? "-" : report::Table::ratio(sum_ / double(n_));
  }

 private:
  double sum_ = 0;
  std::size_t n_ = 0;
};

/// One stitching run, the wall time it took (measured inside the parallel
/// task, so per-config timings stay meaningful when configs run
/// concurrently) and the work counters of its scoped obs window.
struct TimedResult {
  core::StitchResult result;
  double seconds = 0;
  obs::CounterSet counters;  ///< byte-identical across thread counts
};

/// Times \p body and collects its scoped counters into a TimedResult;
/// \p body fills in the result.
template <typename Body>
TimedResult timed(Body&& body) {
  Stopwatch sw;
  TimedResult tr;
  tr.counters = obs::scoped_counters([&] { body(tr.result); });
  tr.seconds = sw.seconds();
  return tr;
}

/// Runs every configuration of a sweep concurrently, timing each one, on
/// the VCOMP_ATPG engine.  Results are positionally identical to serial
/// lab.run() calls.
inline std::vector<TimedResult> run_timed(
    const core::CircuitLab& lab,
    const std::vector<core::StitchOptions>& options) {
  const atpg::EngineKind engine = atpg_engine();
  return util::parallel_map(options.size(), [&](std::size_t i) {
    core::StitchOptions o = options[i];
    o.atpg_engine = engine;
    return timed([&](core::StitchResult& r) { r = lab.run(o); });
  });
}

/// Machine-readable per-config records for the table benches, written as
/// JSON so future PRs have a perf trajectory to diff against.  Destination:
/// $VCOMP_BENCH_JSON, defaulting to BENCH_stitch.json in the working
/// directory (each bench binary overwrites it with its own run).
class BenchJson {
 public:
  explicit BenchJson(std::string bench,
                     std::string default_path = "BENCH_stitch.json")
      : bench_(std::move(bench)), default_path_(std::move(default_path)) {}

  /// Records one row: the run's m/t/TV/ex and scoped counters (gated
  /// exactly by tools/check_bench.py), its seconds (gated with a
  /// tolerance), and \p extras, named numeric fields that ride outside
  /// the gated set unless named like a time/rate field, so reference
  /// values (paper numbers) are safe there.
  void add(const std::string& circuit, const std::string& config,
           const TimedResult& tr,
           std::vector<std::pair<std::string, double>> extras = {}) {
    Row r;
    r.circuit = circuit;
    r.config = config;
    r.seconds = tr.seconds;
    r.m = tr.result.memory_ratio;
    r.t = tr.result.time_ratio;
    r.tv = tr.result.vectors_applied;
    r.ex = tr.result.extra_full_vectors;
    r.counters = tr.counters;
    r.extras = std::move(extras);
    rows_.push_back(std::move(r));
  }

  /// Writes the collected records; returns the path (empty on failure).
  std::string write() const {
    const char* env = std::getenv("VCOMP_BENCH_JSON");
    const std::string path = env != nullptr ? env : default_path_;
    std::ofstream out(path);
    if (!out.good()) return {};
    out << "{\n"
        << "  \"bench\": \"" << bench_ << "\",\n"
        << "  \"threads\": " << threads_used() << ",\n"
        << "  \"quick\": " << (quick_mode() ? "true" : "false") << ",\n"
        << "  \"total_seconds\": " << total_.seconds() << ",\n"
        << "  \"configs\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      out << "    {\"circuit\": \"" << r.circuit << "\", \"config\": \""
          << r.config << "\", \"seconds\": " << r.seconds
          << ", \"m\": " << r.m << ", \"t\": " << r.t << ", \"tv\": " << r.tv
          << ", \"ex\": " << r.ex;
      for (const auto& [name, value] : r.extras)
        out << ", \"" << name << "\": " << value;
      out << ", \"counters\": {";
      for (std::size_t c = 0; c < r.counters.values.size(); ++c)
        out << (c > 0 ? ", " : "") << "\"" << r.counters.values[c].first
            << "\": " << r.counters.values[c].second;
      out << "}}" << (i + 1 < rows_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    return path;
  }

 private:
  struct Row {
    std::string circuit, config;
    double seconds = 0, m = 0, t = 0;
    std::size_t tv = 0, ex = 0;
    obs::CounterSet counters;
    std::vector<std::pair<std::string, double>> extras;
  };
  std::string bench_;
  std::string default_path_;
  Stopwatch total_;
  std::vector<Row> rows_;
};

}  // namespace vcomp::benchutil
