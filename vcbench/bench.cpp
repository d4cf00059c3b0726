// vcbench -- end-to-end and per-layer benchmark of the stitching flow.
//
// One invocation measures one workload for a wall-clock budget and prints,
// as the last line of stdout, one JSON object:
//
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics (set-up and generation time,
// stitched-cycle latency, peak memory, the paper's m and t ratios);
// --trace 1 reports the per-layer metrics, taken from one traced run with
// benchmark-side obs spans, the obs registry's existing counters and a
// replay of the emitted schedule with sampled constrained ATPG queries.
//
// Every repetition is checked: coverage must be preserved (uncovered == 0),
// every repetition must reproduce the first one's schedule and behaviour
// fingerprint, and the first schedule must replay through a fresh
// StitchTracker with identical per-cycle statistics and caught counts.
//
//   vcbench --workload s5378-var --seed 1 --seconds 10 --trace 0
//           [--input-seed n] [--circuit <profile>] [--uncapped]
//           [--trace-out <file>]
//
// --input-seed seeds the generated circuit and the run and GA seeds (1 =
// the netgen profile's own circuit); --seed seeds only the traced replay's
// query sample, so every timed run of a workload measures the same work.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "vcomp/atpg/engine.hpp"
#include "vcomp/atpg/test_set.hpp"
#include "vcomp/core/artifacts.hpp"
#include "vcomp/core/experiment.hpp"
#include "vcomp/core/ga_schedule.hpp"
#include "vcomp/core/tracker.hpp"
#include "vcomp/fault/collapse.hpp"
#include "vcomp/netgen/netgen.hpp"
#include "vcomp/obs/obs.hpp"
#include "vcomp/obs/trace.hpp"
#include "vcomp/sim/simd_dispatch.hpp"
#include "vcomp/util/parallel.hpp"
#include "vcomp/util/rng.hpp"

namespace {

using namespace vcomp;
using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Linear-interpolated quantile (q in [0,1]) of \p v; 0 when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- workloads ------------------------------------------------------------

enum class ShiftMode { Var, Info, Ga };

struct Workload {
  const char* name;
  const char* profile;     // netgen profile (gen:<profile>)
  ShiftMode mode;
  double info;             // fixed info point (ShiftMode::Info)
  std::size_t threads;     // process thread pool size
  std::size_t max_cycles;  // stitched-cycle cap (0 = engine default)
  std::size_t ga_population, ga_generations;  // ShiftMode::Ga
};

// Stitched-cycle caps keep one repetition to a few seconds so a timed run
// holds several; --uncapped runs the configuration to completion.
// s38584-info7 and s1423-ga are full-length runs (see vcbench/meta.json for
// why they are not among the timed workloads).
constexpr Workload kWorkloads[] = {
    {"s5378-var", "s5378", ShiftMode::Var, 0.0, 1, 200, 0, 0},
    {"s13207-info7", "s13207", ShiftMode::Info, 0.875, 1, 30, 0, 0},
    {"s38584-info7", "s38584", ShiftMode::Info, 0.875, 1, 0, 0, 0},
    {"s1423-ga", "s1423", ShiftMode::Ga, 0.0, 4, 0, 12, 8},
};

// ---- registry windows -----------------------------------------------------

/// Counters and timers of the obs registry by name (timers in seconds).
struct RegValues {
  std::map<std::string, double> v;

  static RegValues take() {
    RegValues r;
    const obs::Snapshot s = obs::Registry::instance().snapshot();
    for (const auto& [name, val] : s.counters) r.v[name] = double(val);
    for (const auto& [name, sec] : s.timings) r.v[name] = sec;
    return r;
  }
  double get(const std::string& name) const {
    const auto it = v.find(name);
    return it == v.end() ? 0.0 : it->second;
  }
  /// this - before, per name.
  RegValues since(const RegValues& before) const {
    RegValues d = *this;
    for (auto& [name, val] : d.v) val -= before.get(name);
    return d;
  }
};

// ---- one repetition -------------------------------------------------------

struct Fingerprint {
  double m = 0, t = 0;
  std::size_t tv = 0, ex = 0;
  std::uint64_t podem_calls = 0, faults_classified = 0, cycles = 0, ga_evals = 0;

  bool operator==(const Fingerprint&) const = default;
  void print(const char* tag) const {
    std::printf("%s m=%.6f t=%.6f TV=%zu ex=%zu podem.calls=%llu "
                "tracker.faults_classified=%llu tracker.cycles=%llu "
                "ga.evals=%llu\n",
                tag, m, t, tv, ex, (unsigned long long)podem_calls,
                (unsigned long long)faults_classified,
                (unsigned long long)cycles, (unsigned long long)ga_evals);
  }
};

struct RunOut {
  core::StitchOptions opts;   // the options of the reported (final) run
  core::StitchResult result;
  double run_s = 0;           // generation wall time
  double evolve_s = 0;        // GA search share of run_s
  double cpu_s = 0;           // process CPU seconds over run_s
  RegValues reg;              // registry delta over the generation
  Fingerprint fp;
  std::vector<double> cycle_ms;  // gaps between on_cycle callbacks
};

core::StitchOptions base_options(const Workload& w, std::uint64_t seed,
                                 bool uncapped) {
  core::StitchOptions o;
  o.num_chains = 1;
  o.selection = core::SelectionPolicy::MostFaults;
  o.atpg_engine = atpg::EngineKind::Podem;
  o.seed = seed;
  o.max_cycles = uncapped ? 0 : w.max_cycles;
  return o;
}

RunOut run_workload(const core::CircuitLab& lab, const Workload& w,
                    std::uint64_t seed, bool uncapped) {
  RunOut out;
  core::StitchOptions opts = base_options(w, seed, uncapped);
  if (w.mode == ShiftMode::Info &&
      !core::apply_info_ratio(opts, lab.netlist(), w.info))
    throw std::runtime_error("info point unattainable for this circuit");

  std::optional<Clock::time_point> last;
  opts.on_cycle = [&](std::size_t, const core::CycleStats&) {
    const auto now = Clock::now();
    if (last)
      out.cycle_ms.push_back(
          1e3 * std::chrono::duration<double>(now - *last).count());
    last = now;
  };

  const RegValues before = RegValues::take();
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  if (w.mode == ShiftMode::Ga) {
    core::GaOptions g;
    g.population = w.ga_population;
    g.generations = w.ga_generations;
    g.seed = seed;
    core::GaResult ga;
    {
      const obs::Span span("bench.evolve_schedule");
      ga = core::evolve_schedule(lab, opts, g);
    }
    out.evolve_s = secs_since(t0);
    opts = core::apply_ga_schedule(opts, ga);
  }
  {
    const obs::Span span("bench.lab_run");
    out.result = lab.run(opts);
  }
  out.run_s = secs_since(t0);
  out.cpu_s = cpu_seconds() - cpu0;
  out.reg = RegValues::take().since(before);
  out.opts = opts;

  const core::StitchResult& r = out.result;
  out.fp.m = r.memory_ratio;
  out.fp.t = r.time_ratio;
  out.fp.tv = r.vectors_applied;
  out.fp.ex = r.extra_full_vectors;
  out.fp.podem_calls = std::uint64_t(out.reg.get("podem.calls"));
  out.fp.faults_classified =
      std::uint64_t(out.reg.get("tracker.faults_classified"));
  out.fp.cycles = std::uint64_t(out.reg.get("tracker.cycles"));
  out.fp.ga_evals = std::uint64_t(out.reg.get("ga.evals"));
  return out;
}

// ---- schedule replay ------------------------------------------------------

/// Optional replay instrumentation for the traced run: per-call latencies
/// and constrained ATPG queries on a seeded sample of uncaught faults.
struct ReplayProbe {
  std::size_t queries_per_cycle = 4;
  std::uint64_t seed = 1;
  std::vector<double> apply_ms;   // apply_stitched latencies
  std::vector<double> call_us;    // generate() latencies
};

/// Replays \p out's schedule through a fresh tracker and returns an error
/// message, or an empty string when the replay reproduces the run.
std::string replay(const core::CircuitLab& lab, const RunOut& out,
                   ReplayProbe* probe) {
  const core::StitchResult& r = out.result;
  const core::StitchedSchedule& sch = r.schedule;
  const auto& classes = lab.baseline().classes;
  const std::size_t nf = lab.faults().size();
  const std::size_t L = lab.netlist().num_dffs();

  scan::Fabric fabric(lab.netlist(), out.opts.num_chains, out.opts.partition,
                      out.opts.partition_seed);
  scan::FabricOut out_model = scan::FabricOut::direct(fabric);
  std::vector<std::uint8_t> track(nf, 1), targetable(nf, 0);
  for (std::size_t i = 0; i < nf; ++i) {
    if (classes[i] == atpg::FaultClass::Redundant) track[i] = 0;
    if (classes[i] == atpg::FaultClass::Detected) targetable[i] = 1;
  }
  core::StitchTracker tr(lab.graph(), lab.faults(), out.opts.capture, fabric,
                         out_model, std::move(track),
                         lab.artifacts().compact);
  tr.mutable_sets().set_targetable(targetable);

  std::unique_ptr<atpg::Engine> engine;
  Rng rng(probe ? probe->seed : 0);
  std::vector<std::size_t> pool;
  if (probe)
    engine = atpg::make_engine(atpg::EngineKind::Podem, lab.graph(),
                               *lab.artifacts().scoap,
                               {.podem = out.opts.podem, .sat = out.opts.sat});

  auto count_targetable = [&](core::FaultState s) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < nf; ++i)
      n += targetable[i] && tr.sets().state(i) == s;
    return n;
  };

  if (sch.vectors.size() != r.vectors_applied)
    return "schedule length differs from TV";
  try {
    for (std::size_t c = 0; c < sch.vectors.size(); ++c) {
      core::CycleStats st;
      if (c == 0) {
        const obs::Span span("bench.replay.apply_first");
        st = tr.apply_first(sch.vectors[0]);
      } else {
        const scan::ShiftPlan plan = sch.plans.empty()
                                         ? fabric.plan_for(sch.shifts[c])
                                         : sch.plans[c];
        if (probe) {
          // The retained region the next vector is pinned to, exactly as
          // the engine's constrained queries see it.
          atpg::PpiConstraints cons;
          cons.fixed.assign(fabric.total_length(), sim::Trit::X);
          for (std::size_t ch = 0; ch < fabric.num_chains(); ++ch)
            for (std::size_t p = plan[ch]; p < fabric.chain_length(ch); ++p)
              cons.fixed[fabric.dff_at(ch, p)] =
                  tr.state().chain(ch).at(p - plan[ch]) ? sim::Trit::One
                                                        : sim::Trit::Zero;
          pool.clear();
          for (std::size_t i = 0; i < nf; ++i)
            if (targetable[i] &&
                tr.sets().state(i) == core::FaultState::Uncaught)
              pool.push_back(i);
          const obs::Span span("bench.replay.atpg_queries");
          for (std::size_t q = 0; q < probe->queries_per_cycle && !pool.empty();
               ++q) {
            const std::size_t f = pool[rng.below(pool.size())];
            const auto t0 = Clock::now();
            (void)engine->generate(lab.faults()[f], &cons);
            probe->call_us.push_back(1e6 * secs_since(t0));
          }
        }
        const obs::Span span("bench.replay.apply_stitched");
        const auto t0 = Clock::now();
        st = tr.apply_stitched(sch.vectors[c], plan);
        if (probe) probe->apply_ms.push_back(1e3 * secs_since(t0));
      }
      if (c >= r.cycles.size() || !(st == r.cycles[c]))
        return "cycle " + std::to_string(c) + " stats differ on replay";
    }
    if (count_targetable(core::FaultState::Caught) != r.caught_stitched)
      return "stitched-phase caught count differs on replay";
    if (count_targetable(core::FaultState::Hidden) != r.caught_flush)
      return "terminal-flush caught count differs on replay";
    const std::size_t observe =
        !sch.extra.empty() ? L : sch.terminal_observe;
    if (observe > 0) {
      const obs::Span span("bench.replay.terminal_observe");
      tr.terminal_observe(observe);
    }
    if (count_targetable(core::FaultState::Hidden) != 0)
      return "hidden faults survive the terminal observation";
    if (count_targetable(core::FaultState::Uncaught) != r.caught_extra)
      return "faults left for the ex phase differ on replay";
    if (sch.extra.size() != r.extra_full_vectors)
      return "ex vector count differs from the schedule";
  } catch (const std::exception& e) {
    return std::string("replay threw: ") + e.what();
  }
  return {};
}

// ---- measurement ----------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
  std::size_t samples;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;        // measurement seed (replay query sample)
  std::uint64_t input_seed = 1;  // circuit, run and GA seeds
  double seconds = 10;
  int trace = 0;
  std::string circuit;    // profile override (smoke runs use s444)
  bool uncapped = false;  // the named configuration without cycle caps
  std::string trace_out;
};

netgen::CircuitProfile workload_profile(const Workload& w, const Args& a) {
  netgen::CircuitProfile p =
      netgen::profile(a.circuit.empty() ? w.profile : a.circuit);
  // Input seed 1 is the profile's own circuit; other input seeds draw a
  // sibling with the same PI/PO/FF/gate budget.
  if (a.input_seed != 1) p.seed = util::splitmix64(p.seed ^ a.input_seed);
  return p;
}

/// One invocation: its workload and arguments, the repetition tally, and
/// the first repetition's fingerprint and schedule every later one must
/// reproduce.
struct Bench {
  Bench(const Workload& workload, const Args& args)
      : w(workload), a(args) {}

  const Workload& w;
  const Args& a;
  std::size_t attempted = 0, failed = 0;
  std::optional<Fingerprint> first_fp;
  std::optional<core::StitchedSchedule> first_schedule;

  /// Runs one checked repetition; returns nullopt on failure.
  std::optional<RunOut> repetition(const core::CircuitLab& lab) {
    ++attempted;
    try {
      RunOut out = run_workload(lab, w, a.input_seed, a.uncapped);
      std::string err;
      if (out.result.uncovered != 0)
        err = std::to_string(out.result.uncovered) + " faults uncovered";
      else if (!first_fp) {
        err = replay(lab, out, nullptr);
        first_fp = out.fp;
        first_schedule = out.result.schedule;
      } else if (!(out.fp == *first_fp)) {
        err = "behaviour fingerprint differs from the first repetition";
      } else if (out.result.schedule.vectors != first_schedule->vectors ||
                 out.result.schedule.shifts != first_schedule->shifts ||
                 out.result.schedule.extra != first_schedule->extra) {
        err = "schedule differs from the first repetition";
      }
      out.fp.print(err.empty() ? "fingerprint:" : "fingerprint (FAILED):");
      if (!err.empty()) {
        std::printf("FAIL: %s\n", err.c_str());
        ++failed;
        return std::nullopt;
      }
      return out;
    } catch (const std::exception& e) {
      std::printf("FAIL: repetition threw: %s\n", e.what());
      ++failed;
      return std::nullopt;
    }
  }
};

/// Untraced measurement for \p budget seconds in all.  Set-up first: at
/// least \p min_setups fresh labs, more while set-up has used under
/// \p setup_budget seconds, so a cheap set-up gets more samples.  Then at
/// least \p min_reps generation repetitions on the last lab, more while the
/// budget lasts.
struct Untraced {
  std::vector<double> setup_s, run_s, cycles_per_s, cycle_ms, m, t;
  std::unique_ptr<core::CircuitLab> lab;  // the last lab built
};

Untraced measure_untraced(Bench& s, double budget, std::size_t min_setups,
                          double setup_budget, std::size_t min_reps) {
  Untraced u;
  const auto t0 = Clock::now();
  while (u.setup_s.size() < min_setups || secs_since(t0) < setup_budget) {
    u.lab.reset();
    const auto t1 = Clock::now();
    u.lab = std::make_unique<core::CircuitLab>(workload_profile(s.w, s.a));
    u.setup_s.push_back(secs_since(t1));
  }
  std::printf("setup:");
  for (double x : u.setup_s) std::printf(" %.3f", x);
  std::printf(" s\n");
  for (std::size_t rep = 0; rep < min_reps || secs_since(t0) < budget; ++rep) {
    std::optional<RunOut> out = s.repetition(*u.lab);
    if (!out) continue;
    const double cycles = out->fp.cycles;
    u.run_s.push_back(out->run_s);
    u.cycles_per_s.push_back(ratio(cycles, out->run_s));
    u.cycle_ms.insert(u.cycle_ms.end(), out->cycle_ms.begin(),
                      out->cycle_ms.end());
    u.m.push_back(out->result.memory_ratio);
    u.t.push_back(out->result.time_ratio);
    const core::PhaseProfile& pp = out->result.profile;
    std::printf("rep %zu: run %.3f s (podem %.3f scoring %.3f shift %.3f "
                "classify %.3f advance %.3f terminal %.3f), %zu cycles\n",
                rep, out->run_s, pp.podem_seconds, pp.scoring_seconds,
                pp.shift_seconds, pp.classify_seconds, pp.advance_seconds,
                pp.terminal_seconds, out->result.vectors_applied);
    std::fflush(stdout);
  }
  return u;
}

std::vector<Metric> end_to_end(Bench& s) {
  // An uncapped reference run is checked, not timed: one repetition.
  const std::size_t min_reps = s.a.uncapped ? 1 : 3;
  Untraced u =
      measure_untraced(s, s.a.seconds, min_reps, s.a.seconds / 5, min_reps);
  const std::size_t n = u.run_s.size();
  return {
      {"setup_s", "s", median(u.setup_s), u.setup_s.size()},
      {"run_s", "s", median(u.run_s), n},
      {"cycles_per_s", "1/s", median(u.cycles_per_s), n},
      {"cycle_ms_p50", "ms", quantile(u.cycle_ms, 0.50), u.cycle_ms.size()},
      {"cycle_ms_p90", "ms", quantile(u.cycle_ms, 0.90), u.cycle_ms.size()},
      {"peak_rss_mb", "MB", peak_rss_mb(), 1},
      {"m_ratio", "ratio", median(u.m), n},
      {"t_ratio", "ratio", median(u.t), n},
  };
}

std::vector<Metric> per_layer(Bench& s) {
  // Untraced reference for the trace overhead.
  Untraced u = measure_untraced(s, s.a.seconds / 2, 1, 0, 2);
  const double untraced_run_s = median(u.run_s);

  obs::set_trace_enabled(true);
  // The four set-up calls CircuitLab's constructor makes, one span each.
  const netgen::CircuitProfile profile = workload_profile(s.w, s.a);
  double gen_s, collapse_s, artifacts_s, baseline_s;
  {
    const obs::Span setup("bench.setup");
    auto t0 = Clock::now();
    netlist::Netlist nl = [&] {
      const obs::Span span("bench.netgen.generate");
      return netgen::generate(profile);
    }();
    gen_s = secs_since(t0);
    t0 = Clock::now();
    fault::CollapsedFaults faults = [&] {
      const obs::Span span("bench.fault.collapse");
      return fault::collapsed_fault_list(nl);
    }();
    collapse_s = secs_since(t0);
    t0 = Clock::now();
    {
      const obs::Span span("bench.core.artifacts");
      (void)core::CircuitArtifacts::build(nl, faults);
    }
    artifacts_s = secs_since(t0);
    t0 = Clock::now();
    {
      const obs::Span span("bench.atpg.baseline");
      (void)atpg::generate_full_scan_tests(nl, faults.faults());
    }
    baseline_s = secs_since(t0);
  }

  // The traced generation on the last untraced repetition's lab.
  const core::CircuitLab& lab = *u.lab;
  std::optional<RunOut> traced = s.repetition(lab);
  if (!traced) return {};
  const RunOut& o = *traced;
  const RegValues& g = o.reg;

  ReplayProbe probe;
  probe.seed = s.a.seed;
  std::string err;
  {
    const obs::Span span("bench.replay");
    err = replay(lab, o, &probe);
  }
  ++s.attempted;
  if (!err.empty()) {
    std::printf("FAIL: traced replay: %s\n", err.c_str());
    ++s.failed;
  }
  obs::set_trace_enabled(false);

  const core::StitchResult& r = o.result;
  double hidden_shift_bits = 0;
  for (std::size_t c = 0; c < r.cycles.size(); ++c)
    hidden_shift_bits += double(c == 0 ? 0 : r.cycles[c - 1].hidden_after) *
                         double(r.cycles[c].shift);
  const double threads = double(util::parallelism());
  const double calls = g.get("podem.calls");
  const std::size_t nq = probe.call_us.size();
  const std::size_t na = probe.apply_ms.size();
  const std::size_t ncyc = r.cycles.size();
  std::vector<Metric> m = {
      {"netgen.generate_s", "s", gen_s, 1},
      {"fault.collapse_s", "s", collapse_s, 1},
      {"core.artifacts_s", "s", artifacts_s, 1},
      {"atpg.baseline_s", "s", baseline_s, 1},
      {"atpg.baseline_vectors", "count", double(lab.atv()), 1},
      {"atpg.calls", "count", calls, 1},
      {"atpg.busy_s", "s", g.get("stitch.podem_seconds"), 1},
      {"atpg.busy_share", "ratio",
       ratio(g.get("stitch.podem_seconds"), g.get("stitch.run_seconds")), 1},
      {"atpg.call_us_p50", "us", quantile(probe.call_us, 0.50), nq},
      {"atpg.call_us_p90", "us", quantile(probe.call_us, 0.90), nq},
      {"atpg.success_share", "ratio", ratio(g.get("podem.success"), calls), 1},
      {"atpg.untestable_share", "ratio",
       ratio(g.get("podem.untestable"), calls), 1},
      {"atpg.aborted_share", "ratio", ratio(g.get("podem.aborted"), calls), 1},
      {"atpg.implications_per_call", "count",
       ratio(g.get("podem.implications"), calls), 1},
      {"atpg.backtracks_per_call", "count",
       ratio(g.get("podem.backtracks"), calls), 1},
      {"stitch.scoring_s", "s", g.get("stitch.scoring_seconds"), 1},
      {"stitch.candidates_per_s", "1/s",
       ratio(g.get("stitch.candidates_scored"),
             g.get("stitch.scoring_seconds")),
       1},
      {"tracker.shift_s", "s", g.get("tracker.shift_seconds"), 1},
      {"tracker.classify_s", "s", g.get("tracker.classify_seconds"), 1},
      {"tracker.advance_s", "s", g.get("tracker.advance_seconds"), 1},
      {"tracker.terminal_s", "s", g.get("tracker.terminal_seconds"), 1},
      {"tracker.apply_ms_p50", "ms", quantile(probe.apply_ms, 0.50), na},
      {"tracker.apply_ms_p90", "ms", quantile(probe.apply_ms, 0.90), na},
      {"tracker.hidden_peak", "count", double(r.hidden_peak), 1},
      {"tracker.hidden_shift_bits", "count", hidden_shift_bits, ncyc},
      {"tracker.shift_ns_per_hidden_bit", "ns",
       1e9 * ratio(r.profile.shift_seconds, hidden_shift_bits), 1},
      {"tracker.classify_faults_per_s", "1/s",
       ratio(g.get("tracker.faults_classified"),
             g.get("tracker.classify_seconds")),
       1},
      {"tracker.advance_lanes_per_s", "1/s",
       ratio(g.get("tracker.hidden_advanced"),
             g.get("tracker.advance_seconds")),
       1},
      {"diffsim.events_per_sim", "count",
       ratio(g.get("diffsim.events"), g.get("diffsim.simulations")), 1},
      {"blocklanesim.lane_fill", "ratio",
       ratio(g.get("blocklanesim.lanes"), 512.0 * g.get("blocklanesim.evals")),
       1},
      {"pool.cpu_per_wall", "ratio", ratio(o.cpu_s, o.run_s * threads), 1},
      {"pool.run_wait_share", "ratio",
       1.0 - ratio(o.cpu_s, g.get("stitch.run_seconds")), 1},
      {"obs.trace_overhead", "ratio", ratio(o.run_s, untraced_run_s) - 1.0,
       u.run_s.size()},
  };
  if (s.w.mode == ShiftMode::Ga) {
    const double slots =
        double(s.w.ga_population) * double(s.w.ga_generations + 1);
    m.push_back({"ga.evals", "count", g.get("ga.evals"), 1});
    m.push_back({"ga.evals_per_s", "1/s", ratio(g.get("ga.evals"), o.evolve_s),
                 1});
    m.push_back({"ga.cache_hit_share", "ratio",
                 1.0 - ratio(g.get("ga.evals"), slots), 1});
  }
  return m;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (k == "--uncapped") {
      a.uncapped = true;
      continue;
    }
    if ((v = val()) == nullptr) return false;
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--input-seed")
      a.input_seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a.trace = std::atoi(v);
    else if (k == "--circuit") a.circuit = v;
    else if (k == "--trace-out") a.trace_out = v;
    else return false;
  }
  return !a.workload.empty() && (a.trace == 0 || a.trace == 1) &&
         a.seconds >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: vcbench --workload <name> [--seed n] [--input-seed n] "
                 "[--seconds s] "
                 "[--trace 0|1] [--circuit profile] [--uncapped] "
                 "[--trace-out file]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads)
    if (a.workload == k.name) w = &k;
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  // The library reads these; a benchmark run must not depend on them.
  for (const char* var : {"VCOMP_ATPG", "VCOMP_COMPACT", "VCOMP_PARTITION",
                          "VCOMP_SIMD", "VCOMP_OBS", "VCOMP_THREADS"})
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "refusing to run: %s is set\n", var);
      return 2;
    }
  util::ThreadPool::instance().configure(w->threads);

  std::printf("workload %s: gen:%s input seed %llu, seed %llu, %zu threads, "
              "simd %s, atpg %s%s\n",
              w->name, a.circuit.empty() ? w->profile : a.circuit.c_str(),
              (unsigned long long)a.input_seed, (unsigned long long)a.seed,
              util::parallelism(),
              std::string(sim::to_string(sim::active_simd())).c_str(),
              atpg::to_string(atpg::EngineKind::Podem),
              a.uncapped ? ", uncapped" : "");

  Bench s(*w, a);
  std::vector<Metric> metrics;
  try {
    metrics = a.trace ? per_layer(s) : end_to_end(s);
  } catch (const std::exception& e) {
    std::printf("FAIL: %s\n", e.what());
    ++s.attempted;
    ++s.failed;
  }
  if (a.trace && !a.trace_out.empty()) {
    std::ofstream os(a.trace_out);
    obs::write_chrome_trace(os);
  }

  for (const Metric& m : metrics)
    std::printf("metric %-32s %14.6g %-6s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  const bool correct = s.failed == 0 && !metrics.empty();
  std::printf("fail_share %zu/%zu (%zu threads, simd %s)\n", s.failed,
              s.attempted, util::parallelism(),
              std::string(sim::to_string(sim::active_simd())).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", std::max<std::size_t>(s.attempted, 1),
              s.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
  return correct ? 0 : 1;
}
