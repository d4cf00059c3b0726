// Thread-count invariance of the parallel stitched-cycle tracker, plus a
// golden regression pinning the Table-2 headline numbers.
//
// The tracker shards its per-cycle uncaught-fault classification over the
// process thread pool and merges the verdicts serially in fault-index
// order, so VCOMP_THREADS=1 (the exact serial flow) and a 4-way pool must
// produce byte-identical CycleStats sequences, FaultSets contents and
// StitchResult schedules.  The golden test freezes the s444 Table-2 rows
// recorded in EXPERIMENTS.md so a perf change that silently alters results
// fails here rather than in a bench diff.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "vcomp/core/experiment.hpp"
#include "vcomp/core/tracker.hpp"
#include "vcomp/fault/collapse.hpp"
#include "vcomp/netgen/netgen.hpp"
#include "vcomp/obs/metrics.hpp"
#include "vcomp/report/table.hpp"
#include "vcomp/scan/scan_chain.hpp"
#include "vcomp/util/parallel.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::core {
namespace {

/// Everything observable about a tracker after a scripted walk.
struct WalkTrace {
  std::vector<CycleStats> cycles;
  std::vector<FaultState> states;
  std::vector<std::size_t> catch_cycles;          // caught faults only
  std::vector<std::vector<std::uint8_t>> hidden;  // hidden chains, fault order
  std::vector<std::uint8_t> chain;                // final fault-free chain
  obs::CounterSet counters;  // the walk's scoped counters — never wall-clock
};

/// Runs the tracker_test-style random walk at a fixed thread count.  The
/// vectors depend on the evolving chain state, so any divergence between
/// runs compounds — which is exactly what makes the comparison sharp.
WalkTrace run_walk(const char* name, std::size_t threads,
                   scan::CaptureMode capture, int hxor_taps) {
  util::ScopedParallelism scoped(threads);
  auto nl = netgen::generate(name);
  const auto cf = fault::collapsed_fault_list(nl);
  const std::size_t L = nl.num_dffs();
  const auto out = hxor_taps > 0 ? scan::ScanOutModel::hxor(L, hxor_taps)
                                 : scan::ScanOutModel::direct(L);
  StitchTracker tracker(nl, cf, capture, out);
  Rng rng(2026);

  auto random_vector = [&](std::size_t s) {
    atpg::TestVector v;
    v.pi.resize(nl.num_inputs());
    for (auto& b : v.pi) b = rng.bit();
    v.ppi.resize(L);
    for (std::size_t p = 0; p < L; ++p) {
      v.ppi[p] = (s < L && p >= s)
                     ? tracker.state().at_flat(p - s)
                     : static_cast<std::uint8_t>(rng.bit());
    }
    return v;
  };

  WalkTrace tr;
  tr.counters = obs::scoped_counters([&] {
    tr.cycles.push_back(tracker.apply_first(random_vector(L)));
    for (int c = 0; c < 40; ++c) {
      const std::size_t s = 1 + rng.below(L);
      tr.cycles.push_back(tracker.apply_stitched(random_vector(s), s));
    }
  });
  for (std::size_t i = 0; i < cf.size(); ++i) {
    tr.states.push_back(tracker.sets().state(i));
    if (tracker.sets().state(i) == FaultState::Caught)
      tr.catch_cycles.push_back(tracker.catch_cycle(i));
    if (tracker.sets().state(i) == FaultState::Hidden)
      tr.hidden.push_back(tracker.sets().hidden_state(i).bits());
  }
  tr.chain = tracker.state().bits();
  return tr;
}

TEST(TrackerParallel, WalkIsThreadCountInvariant) {
  struct Mode {
    const char* name;
    scan::CaptureMode capture;
    int taps;
  };
  const Mode modes[] = {
      {"s444", scan::CaptureMode::Normal, 0},
      {"s444", scan::CaptureMode::VXor, 0},
      {"s526", scan::CaptureMode::Normal, 4},  // HXOR scan-out
  };
  for (const auto& m : modes) {
    SCOPED_TRACE(m.name);
    const WalkTrace serial = run_walk(m.name, 1, m.capture, m.taps);
    const WalkTrace pooled = run_walk(m.name, 4, m.capture, m.taps);
    ASSERT_EQ(serial.cycles.size(), pooled.cycles.size());
    for (std::size_t c = 0; c < serial.cycles.size(); ++c) {
      SCOPED_TRACE(c);
      EXPECT_EQ(serial.cycles[c], pooled.cycles[c]);
    }
    EXPECT_EQ(serial.states, pooled.states);
    EXPECT_EQ(serial.catch_cycles, pooled.catch_cycles);
    EXPECT_EQ(serial.hidden, pooled.hidden);
    EXPECT_EQ(serial.chain, pooled.chain);
    // The work counters are part of the determinism contract too: the
    // classification lists, advance batches and every simulator call
    // (tracker.*, diffsim.*, blocklanesim.*) must not depend on the shard
    // layout.  The whole scoped set is compared.
    EXPECT_EQ(serial.counters, pooled.counters);
    EXPECT_EQ(serial.counters.digest(), pooled.counters.digest());
    // The walk must exercise all three phases to mean anything.
    EXPECT_GT(serial.counters.get("tracker.faults_classified"), 0u);
    EXPECT_GT(serial.counters.get("tracker.hidden_advanced"), 0u);
    EXPECT_GT(serial.counters.get("diffsim.simulations"), 0u);
    EXPECT_GT(serial.counters.get("blocklanesim.evals"), 0u);
  }
}

TEST(TrackerParallel, EngineCycleStatsAndScheduleThreadCountInvariant) {
  // Every constrained-ATPG engine, on two configurations: s444 with the
  // variable shift, and s1423 at the 3/8 info point on a 2-chain fabric.
  const CircuitLab s444(netgen::profile("s444"));
  const CircuitLab s1423(netgen::profile("s1423"));
  StitchOptions fixed;
  fixed.num_chains = 2;
  ASSERT_TRUE(apply_info_ratio(fixed, s1423.netlist(), 3.0 / 8));
  const std::pair<const CircuitLab*, StitchOptions> configs[] = {
      {&s444, StitchOptions{}}, {&s1423, fixed}};

  struct Run {
    StitchResult result;
    obs::CounterSet counters;
  };
  for (const atpg::EngineKind engine :
       {atpg::EngineKind::Podem, atpg::EngineKind::Sat,
        atpg::EngineKind::Race}) {
    for (const auto& config : configs) {
      const CircuitLab& lab = *config.first;
      SCOPED_TRACE(std::string(atpg::to_string(engine)) + " on " +
                   lab.name());
      StitchOptions opts = config.second;
      opts.atpg_engine = engine;
      const auto run_at = [&](std::size_t threads) {
        util::ScopedParallelism scoped(threads);
        Run run;
        run.counters =
            obs::scoped_counters([&] { run.result = lab.run(opts); });
        return run;
      };
      const Run serial_run = run_at(1);
      const Run pooled_run = run_at(4);
      const StitchResult& serial = serial_run.result;
      const StitchResult& pooled = pooled_run.result;

      EXPECT_EQ(serial.cycles, pooled.cycles);  // full CycleStats sequence
      EXPECT_EQ(serial.schedule.vectors, pooled.schedule.vectors);
      EXPECT_EQ(serial.schedule.shifts, pooled.schedule.shifts);
      EXPECT_EQ(serial.schedule.plans, pooled.schedule.plans);
      EXPECT_EQ(serial.schedule.terminal_observe,
                pooled.schedule.terminal_observe);
      EXPECT_EQ(serial.schedule.extra, pooled.schedule.extra);
      EXPECT_EQ(serial.vectors_applied, pooled.vectors_applied);
      EXPECT_EQ(serial.extra_full_vectors, pooled.extra_full_vectors);
      EXPECT_EQ(serial.time_ratio, pooled.time_ratio);
      EXPECT_EQ(serial.memory_ratio, pooled.memory_ratio);
      EXPECT_EQ(serial.uncovered, 0u);  // coverage preserved
      EXPECT_EQ(pooled.uncovered, 0u);
      // Profile *timings* differ run to run, but the work counters may
      // not: the run's whole scoped set (podem.*, atpg.sat_*, diffsim.*,
      // blocklanesim.*, stitch.*, tracker.*) must match, and it must not
      // be vacuous.
      EXPECT_EQ(serial_run.counters, pooled_run.counters);
      EXPECT_GT(serial_run.counters.get(engine == atpg::EngineKind::Sat
                                            ? "atpg.sat_calls"
                                            : "podem.calls"),
                0u);
      EXPECT_GT(serial_run.counters.get("diffsim.simulations"), 0u);
      EXPECT_GT(serial_run.counters.get("tracker.hidden_advanced"), 0u);
    }
  }
}

// Golden regression: the s444 rows of EXPERIMENTS.md Table 2.  These pin
// the exact schedule-level outcome of the default flow; any change here is
// a behavior change, not a perf change, and must update EXPERIMENTS.md.
// The rows encode the PODEM engine's cubes (the StitchOptions default).
TEST(TrackerParallel, GoldenTable2RowsS444) {
  const CircuitLab lab(netgen::profile("s444"));
  ASSERT_EQ(lab.atv(), 60u);

  StitchOptions var;  // variable-shift policy
  const StitchResult rv = lab.run(var);
  EXPECT_EQ(rv.vectors_applied, 87u);
  EXPECT_EQ(rv.extra_full_vectors, 0u);
  EXPECT_EQ(report::Table::ratio(rv.memory_ratio), "0.92");
  EXPECT_EQ(report::Table::ratio(rv.time_ratio), "0.81");
  EXPECT_EQ(rv.uncovered, 0u);

  StitchOptions fixed;  // the 5/8 info point (the paper's best fixed shift)
  ASSERT_TRUE(apply_info_ratio(fixed, lab.netlist(), 5.0 / 8));
  const StitchResult rf = lab.run(fixed);
  EXPECT_EQ(rf.vectors_applied, 57u);
  EXPECT_EQ(rf.extra_full_vectors, 38u);
  EXPECT_EQ(report::Table::ratio(rf.memory_ratio), "1.22");
  EXPECT_EQ(report::Table::ratio(rf.time_ratio), "1.14");
  EXPECT_EQ(rf.uncovered, 0u);
}

}  // namespace
}  // namespace vcomp::core
