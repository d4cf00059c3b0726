#include "vcomp/core/schedule_io.hpp"

#include <gtest/gtest.h>

#include "vcomp/core/experiment.hpp"
#include "vcomp/netgen/example_circuit.hpp"
#include "vcomp/util/assert.hpp"

namespace vcomp::core {
namespace {

StitchedSchedule sample() {
  StitchedSchedule s;
  atpg::TestVector v1;
  v1.pi = {1, 0};
  v1.ppi = {1, 1, 0};
  atpg::TestVector v2;
  v2.pi = {0, 0};
  v2.ppi = {0, 0, 1};
  s.vectors = {v1, v2};
  s.shifts = {3, 2};
  s.terminal_observe = 2;
  atpg::TestVector ex;
  ex.pi = {1, 1};
  ex.ppi = {0, 1, 0};
  s.extra = {ex};
  return s;
}

TEST(ScheduleIo, RoundTrip) {
  const auto s = sample();
  const auto text = write_schedule_string(s);
  const auto parsed = read_schedule_string(text);
  ASSERT_EQ(parsed.vectors.size(), 2u);
  EXPECT_EQ(parsed.vectors[0].pi, s.vectors[0].pi);
  EXPECT_EQ(parsed.vectors[0].ppi, s.vectors[0].ppi);
  EXPECT_EQ(parsed.vectors[1].ppi, s.vectors[1].ppi);
  EXPECT_EQ(parsed.shifts, s.shifts);
  EXPECT_EQ(parsed.terminal_observe, 2u);
  ASSERT_EQ(parsed.extra.size(), 1u);
  EXPECT_EQ(parsed.extra[0].ppi, s.extra[0].ppi);
  // Second round trip textually stable.
  EXPECT_EQ(write_schedule_string(parsed), text);
}

TEST(ScheduleIo, EmptyPiFieldUsesDash) {
  StitchedSchedule s;
  atpg::TestVector v;
  v.ppi = {1, 0};
  s.vectors = {v};
  s.shifts = {2};
  const auto text = write_schedule_string(s);
  EXPECT_NE(text.find("vector 2 - 10"), std::string::npos);
  const auto parsed = read_schedule_string(text);
  EXPECT_TRUE(parsed.vectors[0].pi.empty());
}

StitchedSchedule multi_sample() {
  StitchedSchedule s = sample();
  s.num_chains = 2;
  s.partition = scan::PartitionPolicy::Contiguous;
  s.partition_seed = 7;
  s.plans = {{2, 1}, {1, 1}};  // per-chain apportionment of shifts {3, 2}
  return s;
}

TEST(ScheduleIo, MultiChainRoundTrip) {
  const auto s = multi_sample();
  const auto text = write_schedule_string(s);
  EXPECT_NE(text.find("chains 2 contiguous 7"), std::string::npos);
  const auto parsed = read_schedule_string(text);
  EXPECT_EQ(parsed.num_chains, 2u);
  EXPECT_EQ(parsed.partition, scan::PartitionPolicy::Contiguous);
  EXPECT_EQ(parsed.partition_seed, 7u);
  EXPECT_EQ(parsed.plans, s.plans);
  // Master shifts are re-derived as the plan sums.
  EXPECT_EQ(parsed.shifts, s.shifts);
  EXPECT_EQ(parsed.terminal_observe, s.terminal_observe);
  // Second round trip textually stable.
  EXPECT_EQ(write_schedule_string(parsed), text);
}

// Single-chain schedules must keep the exact historical text format: no
// chains header, scalar shift fields.  The literal below is the committed
// pre-fabric format; it must both parse and be reproduced byte-for-byte.
TEST(ScheduleIo, SingleChainBackwardCompatible) {
  const std::string legacy =
      "# vcomp stitched test program\n"
      "chain 3\n"
      "pis 2\n"
      "vector 3 10 110\n"
      "vector 2 00 001\n"
      "observe 2\n"
      "extra 11 010\n";
  const auto parsed = read_schedule_string(legacy);
  EXPECT_EQ(parsed.num_chains, 1u);
  EXPECT_TRUE(parsed.plans.empty());
  EXPECT_EQ(parsed.shifts, (std::vector<std::size_t>{3, 2}));
  EXPECT_EQ(write_schedule_string(parsed), legacy);
  // And writing a fresh single-chain schedule never emits a chains line.
  EXPECT_EQ(write_schedule_string(sample()).find("chains"),
            std::string::npos);
}

TEST(ScheduleIo, MultiChainRejectsMalformedPlans) {
  // chains header but scalar shift fields: plans are missing.
  EXPECT_THROW(read_schedule_string("chain 3\n"
                                    "chains 2 round-robin 0\n"
                                    "pis 0\n"
                                    "vector 2 - 110\n"),
               vcomp::ContractError);
  // Plan width disagrees with the chain count.
  EXPECT_THROW(read_schedule_string("chain 3\n"
                                    "chains 2 round-robin 0\n"
                                    "pis 0\n"
                                    "vector 1,1,1 - 110\n"),
               vcomp::ContractError);
  // Unknown partition policy.
  EXPECT_THROW(read_schedule_string("chain 3\n"
                                    "chains 2 zigzag 0\n"
                                    "pis 0\n"
                                    "vector 1,1 - 110\n"),
               vcomp::ContractError);
  // Single-chain schedules must not carry plans.
  EXPECT_THROW(read_schedule_string("chain 3\n"
                                    "pis 0\n"
                                    "vector 1,1 - 110\n"),
               vcomp::ContractError);
}

TEST(ScheduleIo, MultiChainEngineScheduleRoundTrips) {
  CircuitLab lab("fig1", netgen::example_circuit());
  StitchOptions opts;
  opts.fixed_shift = 2;
  opts.num_chains = 2;
  opts.partition = scan::PartitionPolicy::SeededRandom;
  opts.partition_seed = 11;
  const auto run = lab.run(opts);
  ASSERT_EQ(run.schedule.num_chains, 2u);
  ASSERT_EQ(run.schedule.plans.size(), run.schedule.vectors.size());
  const auto parsed =
      read_schedule_string(write_schedule_string(run.schedule));
  EXPECT_EQ(parsed.num_chains, run.schedule.num_chains);
  EXPECT_EQ(parsed.partition, run.schedule.partition);
  EXPECT_EQ(parsed.partition_seed, run.schedule.partition_seed);
  EXPECT_EQ(parsed.plans, run.schedule.plans);
  EXPECT_EQ(parsed.shifts, run.schedule.shifts);
  EXPECT_EQ(parsed.terminal_observe, run.schedule.terminal_observe);
  for (std::size_t i = 0; i < parsed.vectors.size(); ++i)
    EXPECT_EQ(parsed.vectors[i], run.schedule.vectors[i]);
}

TEST(ScheduleIo, KindRoundTrip) {
  StitchedSchedule s = sample();
  s.kind = "ga+adi";
  const auto text = write_schedule_string(s);
  EXPECT_NE(text.find("kind ga+adi\n"), std::string::npos);
  const auto parsed = read_schedule_string(text);
  EXPECT_EQ(parsed.kind, "ga+adi");
  EXPECT_EQ(parsed.shifts, s.shifts);
  // Second round trip textually stable.
  EXPECT_EQ(write_schedule_string(parsed), text);
}

TEST(ScheduleIo, EmptyKindWritesNoLine) {
  // Hand-built schedules (kind empty) keep the historical byte layout —
  // SingleChainBackwardCompatible pins the exact text; this guards the
  // header from the other side.
  EXPECT_EQ(write_schedule_string(sample()).find("kind"), std::string::npos);
  const auto parsed = read_schedule_string(write_schedule_string(sample()));
  EXPECT_TRUE(parsed.kind.empty());
}

TEST(ScheduleIo, RejectsMalformedKind) {
  // Missing token.
  EXPECT_THROW(read_schedule_string("chain 3\n"
                                    "kind\n"
                                    "pis 0\n"
                                    "vector 2 - 110\n"),
               vcomp::ContractError);
  // Charset is [a-z0-9+-]: uppercase rejected.
  EXPECT_THROW(read_schedule_string("chain 3\n"
                                    "kind GA+ADI\n"
                                    "pis 0\n"
                                    "vector 2 - 110\n"),
               vcomp::ContractError);
}

TEST(ScheduleIo, EngineStampsKindAndReplayIsIdentical) {
  CircuitLab lab("fig1", netgen::example_circuit());
  StitchOptions opts;
  opts.shift_schedule = {2, 1, 2};
  opts.selection = SelectionPolicy::Random;
  const auto run = lab.run(opts);
  EXPECT_EQ(run.schedule.kind, "schedule+random");
  const auto parsed =
      read_schedule_string(write_schedule_string(run.schedule));
  EXPECT_EQ(parsed.kind, run.schedule.kind);
  EXPECT_EQ(parsed.shifts, run.schedule.shifts);
  for (std::size_t i = 0; i < parsed.vectors.size(); ++i)
    EXPECT_EQ(parsed.vectors[i], run.schedule.vectors[i]);
}

TEST(ScheduleIo, RejectsGarbage) {
  EXPECT_THROW(read_schedule_string("frobnicate 3\n"), vcomp::ContractError);
  EXPECT_THROW(read_schedule_string("chain 3\npis 0\nvector 2 - 1x1\n"),
               vcomp::ContractError);
  EXPECT_THROW(read_schedule_string("chain 3\npis 2\nvector 2 - 111\n"),
               vcomp::ContractError);  // PI width mismatch
}

// Every count goes through one digits-only parser: signs, letters and
// values past 64 bits are errors, not silent zeros or wrap-arounds.
TEST(ScheduleIo, RejectsNonDigitCounts) {
  const std::string head = "chain 3\npis 1\nvector 3 1 101\n";
  EXPECT_THROW(read_schedule_string(head + "observe abc\n"),
               vcomp::ContractError);
  EXPECT_THROW(read_schedule_string(head + "observe -2\n"),
               vcomp::ContractError);
  EXPECT_THROW(read_schedule_string("chain 3x\npis 1\nvector 3 1 101\n"),
               vcomp::ContractError);
  EXPECT_THROW(read_schedule_string("chain 3\npis +1\nvector 3 1 101\n"),
               vcomp::ContractError);
  EXPECT_THROW(read_schedule_string("chain 3\n"
                                    "chains 2 round-robin -1\n"
                                    "pis 0\n"
                                    "vector 2,1 - 110\n"),
               vcomp::ContractError);
}

TEST(ScheduleIo, RejectsCountOverflow) {
  EXPECT_THROW(read_schedule_string("chain 3\npis 0\n"
                                    "vector 18446744073709551616 - 110\n"),
               vcomp::ContractError);
  // 2^64 - 1 + 2 wraps to 1 if the plan sum is unchecked.
  EXPECT_THROW(read_schedule_string("chain 3\n"
                                    "chains 2 round-robin 0\n"
                                    "pis 0\n"
                                    "vector 18446744073709551615,2 - 110\n"),
               vcomp::ContractError);
}

TEST(ScheduleIo, RejectsTrailingTokens) {
  const std::string head = "chain 3\npis 1\nvector 3 1 101\n";
  EXPECT_THROW(read_schedule_string(head + "observe 2 junk\n"),
               vcomp::ContractError);
  EXPECT_THROW(read_schedule_string("chain 3\npis 1\nvector 3 1 101 zz\n"),
               vcomp::ContractError);
  EXPECT_THROW(read_schedule_string(head + "extra 1 101 0\n"),
               vcomp::ContractError);
  EXPECT_THROW(read_schedule_string("chain 3 4\npis 1\nvector 3 1 101\n"),
               vcomp::ContractError);
  // The same schedule without the extra token parses.
  EXPECT_EQ(read_schedule_string(head + "observe 2\n").terminal_observe, 2u);
}

TEST(ScheduleIo, RejectsObserveBeyondChain) {
  const std::string head = "chain 3\npis 1\nvector 3 1 101\n";
  EXPECT_THROW(read_schedule_string(head + "observe 99\n"),
               vcomp::ContractError);
  EXPECT_THROW(read_schedule_string(head + "observe 4\n"),
               vcomp::ContractError);
  EXPECT_EQ(read_schedule_string(head + "observe 3\n").terminal_observe, 3u);
}

TEST(ScheduleIo, EngineScheduleRoundTrips) {
  CircuitLab lab("fig1", netgen::example_circuit());
  StitchOptions opts;
  opts.fixed_shift = 2;
  const auto run = lab.run(opts);
  const auto parsed = read_schedule_string(
      write_schedule_string(run.schedule));
  EXPECT_EQ(parsed.vectors.size(), run.schedule.vectors.size());
  EXPECT_EQ(parsed.shifts, run.schedule.shifts);
  EXPECT_EQ(parsed.terminal_observe, run.schedule.terminal_observe);
  for (std::size_t i = 0; i < parsed.vectors.size(); ++i)
    EXPECT_EQ(parsed.vectors[i], run.schedule.vectors[i]);
}

}  // namespace
}  // namespace vcomp::core
