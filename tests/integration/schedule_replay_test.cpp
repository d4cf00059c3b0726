// End-to-end schedule integrity: the test program an engine run records
// must, when replayed vector by vector through a fresh StitchTracker,
// reproduce the run's catch bookkeeping exactly — this validates both the
// recorded schedule (the actual ATE deliverable) and the stitching
// invariant (every stitched vector embeds the previous response).

#include <gtest/gtest.h>

#include "vcomp/core/experiment.hpp"
#include "vcomp/core/tracker.hpp"
#include "vcomp/netgen/example_circuit.hpp"

namespace vcomp::core {
namespace {

/// Replays \p run's recorded schedule through a fresh tracker and checks
/// that every cycle reproduces the engine's own per-cycle stats.
void expect_replay_matches(const CircuitLab& lab, const StitchOptions& opts,
                           const StitchResult& run) {
  ASSERT_GT(run.vectors_applied, 0u);
  ASSERT_EQ(run.schedule.vectors.size(), run.vectors_applied);

  const auto& nl = lab.netlist();
  std::vector<std::uint8_t> track(lab.faults().size(), 1);
  for (std::size_t i = 0; i < lab.faults().size(); ++i)
    if (lab.baseline().classes[i] == atpg::FaultClass::Redundant)
      track[i] = 0;
  StitchTracker tracker(nl, lab.faults(), opts.capture,
                        scan::ScanOutModel::direct(nl.num_dffs()),
                        std::move(track));

  for (std::size_t c = 0; c < run.schedule.vectors.size(); ++c) {
    CycleStats st;
    if (c == 0) {
      st = tracker.apply_first(run.schedule.vectors[c]);
    } else {
      // Must not throw: the recorded vector embeds the retained response.
      ASSERT_NO_THROW(st = tracker.apply_stitched(run.schedule.vectors[c],
                                                  run.schedule.shifts[c]))
          << "cycle " << c;
    }
    // Per-cycle stats must match the engine's own trace.
    ASSERT_LT(c, run.cycles.size());
    EXPECT_EQ(st.caught_at_shift, run.cycles[c].caught_at_shift) << c;
    EXPECT_EQ(st.caught_at_po, run.cycles[c].caught_at_po) << c;
    EXPECT_EQ(st.new_hidden, run.cycles[c].new_hidden) << c;
    EXPECT_EQ(st.hidden_after, run.cycles[c].hidden_after) << c;
  }
  if (run.schedule.terminal_observe > 0)
    tracker.terminal_observe(run.schedule.terminal_observe);

  // Stitched-phase catches (targets only) must match the engine's count
  // when there is no ex phase; with an ex phase the flush bookkeeping
  // diverges intentionally, so just bound it.
  std::size_t caught_targets = 0;
  for (std::size_t i = 0; i < lab.faults().size(); ++i)
    if (lab.baseline().classes[i] == atpg::FaultClass::Detected &&
        tracker.sets().state(i) == FaultState::Caught)
      ++caught_targets;
  EXPECT_GE(caught_targets, run.caught_stitched);
}

class ScheduleReplay : public ::testing::TestWithParam<const char*> {};

TEST_P(ScheduleReplay, ReplayReproducesRun) {
  CircuitLab lab(netgen::profile(GetParam()));
  for (const atpg::EngineKind engine :
       {atpg::EngineKind::Podem, atpg::EngineKind::Sat,
        atpg::EngineKind::Race}) {
    SCOPED_TRACE(atpg::to_string(engine));
    StitchOptions opts;
    opts.seed = 17;
    opts.atpg_engine = engine;
    expect_replay_matches(lab, opts, lab.run(opts));
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, ScheduleReplay,
                         ::testing::Values("s444", "s526"));

// A cyclic shift schedule with distinct entries whose every entry fails
// in a row falls through to bridge cycles.  Each bridge must be recorded
// with the shift it actually applied (not the schedule entry the failed
// lap advanced to), or the recorded program does not replay.
TEST(ScheduleReplayBridge, ScheduleShiftBridgeCyclesReplay) {
  CircuitLab lab(netgen::profile("s444"));
  for (const std::vector<std::size_t>& sched :
       {std::vector<std::size_t>{1, 2, 3},
        std::vector<std::size_t>{3, 1, 2, 5}}) {
    StitchOptions opts;
    opts.seed = 5;
    opts.shift_schedule = sched;
    SCOPED_TRACE(::testing::PrintToString(sched));
    expect_replay_matches(lab, opts, lab.run(opts));
  }
}

TEST(ScheduleReplayExample, PaperCircuitScheduleIsValid) {
  CircuitLab lab("fig1", netgen::example_circuit());
  StitchOptions opts;
  opts.fixed_shift = 2;
  const auto run = lab.run(opts);
  // Every stitched vector in the schedule embeds the previous response:
  // apply_stitched would throw otherwise.
  StitchTracker tracker(lab.netlist(), lab.faults(), opts.capture,
                        scan::ScanOutModel::direct(3));
  for (std::size_t c = 0; c < run.schedule.vectors.size(); ++c) {
    if (c == 0)
      tracker.apply_first(run.schedule.vectors[c]);
    else
      EXPECT_NO_THROW(tracker.apply_stitched(run.schedule.vectors[c],
                                             run.schedule.shifts[c]));
  }
}

}  // namespace
}  // namespace vcomp::core
