#include "vcomp/atpg/test_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "vcomp/fault/fault_sim.hpp"
#include "vcomp/netgen/example_circuit.hpp"
#include "vcomp/netgen/netgen.hpp"
#include "vcomp/util/parallel.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::atpg {
namespace {

using fault::DiffSim;
using sim::Word;

TEST(TestSet, ExampleCircuitFullCoverage) {
  auto nl = netgen::example_circuit();
  auto cf = fault::collapsed_fault_list(nl);
  const auto res = generate_full_scan_tests(nl, cf.faults());
  EXPECT_EQ(res.num_redundant, 1u);  // E-F/1
  EXPECT_EQ(res.num_aborted, 0u);
  EXPECT_EQ(res.num_detected, cf.size() - 1);
  EXPECT_DOUBLE_EQ(res.coverage(), 1.0);
  // The paper needs 4 vectors; a compacted set should be close.
  EXPECT_LE(res.vectors.size(), 6u);
  EXPECT_GE(res.vectors.size(), 3u);
}

TEST(TestSet, VectorsActuallyCoverDetectedFaults) {
  // Re-simulate the final vector set: every Detected fault must be caught.
  auto nl = netgen::generate("s444");
  auto cf = fault::collapsed_fault_list(nl);
  const auto res = generate_full_scan_tests(nl, cf.faults());

  DiffSim sim(nl);
  std::vector<std::uint8_t> caught(cf.size(), 0);
  for (const auto& v : res.vectors) {
    for (std::size_t i = 0; i < nl.num_inputs(); ++i)
      sim.good().set_input(i, v.pi[i] ? ~Word{0} : Word{0});
    for (std::size_t i = 0; i < nl.num_dffs(); ++i)
      sim.good().set_state(i, v.ppi[i] ? ~Word{0} : Word{0});
    sim.commit_good();
    for (std::size_t fi = 0; fi < cf.size(); ++fi)
      if (!caught[fi] && sim.simulate(cf[fi]).any() != 0) caught[fi] = 1;
  }
  for (std::size_t fi = 0; fi < cf.size(); ++fi) {
    if (res.classes[fi] == FaultClass::Detected) {
      EXPECT_TRUE(caught[fi]) << fault_name(nl, cf[fi]);
    }
  }
}

TEST(TestSet, CompactionDoesNotIncreaseCount) {
  auto nl = netgen::generate("s526");
  auto cf = fault::collapsed_fault_list(nl);
  TestSetOptions with;
  with.seed = 3;
  with.reverse_compaction = true;
  TestSetOptions without;
  without.seed = 3;
  without.reverse_compaction = false;
  const auto a = generate_full_scan_tests(nl, cf.faults(), with);
  const auto b = generate_full_scan_tests(nl, cf.faults(), without);
  EXPECT_LE(a.vectors.size(), b.vectors.size());
  EXPECT_EQ(a.num_detected, b.num_detected);
}

TEST(TestSet, DeterministicForSeed) {
  auto nl = netgen::generate("s444");
  auto cf = fault::collapsed_fault_list(nl);
  TestSetOptions opts;
  opts.seed = 11;
  const auto a = generate_full_scan_tests(nl, cf.faults(), opts);
  const auto b = generate_full_scan_tests(nl, cf.faults(), opts);
  EXPECT_EQ(a.vectors.size(), b.vectors.size());
  for (std::size_t i = 0; i < a.vectors.size(); ++i)
    EXPECT_EQ(a.vectors[i], b.vectors[i]);
}

TEST(TestSet, HighCoverageOnSyntheticBenchmark) {
  auto nl = netgen::generate("s953");
  auto cf = fault::collapsed_fault_list(nl);
  const auto res = generate_full_scan_tests(nl, cf.faults());
  EXPECT_GT(res.coverage(), 0.95);
}

TEST(TestSet, DeterministicOnlyFlow) {
  // Disabling the random phase must still reach the same coverage.
  auto nl = netgen::generate("s444");
  auto cf = fault::collapsed_fault_list(nl);
  TestSetOptions opts;
  opts.random_idle_blocks = 0;
  const auto det = generate_full_scan_tests(nl, cf.faults(), opts);
  const auto mixed = generate_full_scan_tests(nl, cf.faults());
  EXPECT_EQ(det.num_detected + det.num_aborted,
            mixed.num_detected + mixed.num_aborted);
  EXPECT_GE(det.coverage(), mixed.coverage() - 0.02);
}

// ---- first_detections vs the one-vector-per-pass loop ---------------------

/// Reference: the sequential fault-dropping loop, one vector broadcast into
/// every lane per DiffSim pass.
std::vector<std::size_t> naive_first_detections(
    const netlist::Netlist& nl, const std::vector<fault::Fault>& faults,
    const std::vector<std::size_t>& targets,
    const std::vector<TestVector>& vectors) {
  std::vector<std::size_t> first(targets.size(), kUndetected);
  DiffSim sim(nl);
  for (std::size_t v = 0; v < vectors.size(); ++v) {
    load_vector(sim, vectors[v]);
    sim.commit_good();
    for (std::size_t k = 0; k < targets.size(); ++k)
      if (first[k] == kUndetected &&
          sim.simulate(faults[targets[k]]).any() != 0)
        first[k] = v;
  }
  return first;
}

std::vector<TestVector> random_vectors(const netlist::Netlist& nl,
                                       std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TestVector> out(n);
  for (auto& v : out) {
    v.pi.resize(nl.num_inputs());
    for (auto& b : v.pi) b = rng.bit();
    v.ppi.resize(nl.num_dffs());
    for (auto& b : v.ppi) b = rng.bit();
  }
  return out;
}

std::vector<std::size_t> all_targets(std::size_t n) {
  std::vector<std::size_t> t(n);
  std::iota(t.begin(), t.end(), std::size_t{0});
  return t;
}

TEST(FirstDetections, MatchesNaiveLoopWithPartialLastBlock) {
  auto nl = netgen::generate("s526");
  auto cf = fault::collapsed_fault_list(nl);
  // 150 vectors = two full 64-lane blocks plus a 22-lane tail.
  const auto vectors = random_vectors(nl, 150, 7);
  const auto targets = all_targets(cf.size());
  fault::DiffSimShards sims(nl);
  const auto got = first_detections(sims, cf.faults(), targets, vectors);
  EXPECT_EQ(got, naive_first_detections(nl, cf.faults(), targets, vectors));
  // Random vectors leave some faults for the later blocks and some
  // undetected, so every branch of the drop is exercised.
  EXPECT_TRUE(std::any_of(got.begin(), got.end(),
                          [](std::size_t k) {
                            return k >= 128 && k != kUndetected;
                          }));
  EXPECT_TRUE(std::any_of(got.begin(), got.end(),
                          [](std::size_t k) { return k == kUndetected; }));
}

TEST(FirstDetections, TargetSubsetMatchesNaiveLoop) {
  auto nl = netgen::generate("s444");
  auto cf = fault::collapsed_fault_list(nl);
  const auto vectors = random_vectors(nl, 131, 3);
  std::vector<std::size_t> targets;
  for (std::size_t i = 2; i < cf.size(); i += 3) targets.push_back(i);
  fault::DiffSimShards sims(nl);
  EXPECT_EQ(first_detections(sims, cf.faults(), targets, vectors),
            naive_first_detections(nl, cf.faults(), targets, vectors));
}

TEST(FirstDetections, BlockBoundaryLanes) {
  // One fault, one vector that detects it (d) and one that does not (u):
  // a detector only at indices 63 and 64 (last lane of block 0, first lane
  // of block 1) must report 63; a detector only at 64 must report 64.
  auto nl = netgen::generate("s444");
  auto cf = fault::collapsed_fault_list(nl);
  const auto pool = random_vectors(nl, 64, 11);
  const std::vector<std::size_t> one = {0};
  std::vector<fault::Fault> f;
  TestVector d, u;
  for (std::size_t i = 0; i < cf.size() && f.empty(); ++i) {
    const auto hits = naive_first_detections(nl, {cf[i]}, one, pool);
    if (hits[0] == kUndetected) continue;
    // Need a non-detecting vector too.
    for (const auto& v : pool)
      if (naive_first_detections(nl, {cf[i]}, one, {v})[0] == kUndetected) {
        f = {cf[i]};
        d = pool[hits[0]];
        u = v;
        break;
      }
  }
  ASSERT_FALSE(f.empty());
  fault::DiffSimShards sims(nl);

  std::vector<TestVector> vectors(130, u);
  vectors[63] = d;
  vectors[64] = d;
  EXPECT_EQ(first_detections(sims, f, one, vectors),
            std::vector<std::size_t>{63});
  vectors[63] = u;
  EXPECT_EQ(first_detections(sims, f, one, vectors),
            std::vector<std::size_t>{64});
  vectors[64] = u;
  EXPECT_EQ(first_detections(sims, f, one, vectors),
            std::vector<std::size_t>{kUndetected});
}

TEST(FirstDetections, EmptyVectorsOrTargets) {
  auto nl = netgen::generate("s444");
  auto cf = fault::collapsed_fault_list(nl);
  fault::DiffSimShards sims(nl);
  const auto targets = all_targets(cf.size());
  EXPECT_EQ(first_detections(sims, cf.faults(), targets, {}),
            std::vector<std::size_t>(cf.size(), kUndetected));
  EXPECT_TRUE(first_detections(sims, cf.faults(), {},
                               random_vectors(nl, 70, 5))
                  .empty());
}

TEST(FirstDetections, IdenticalAtOneAndFourThreads) {
  auto nl = netgen::generate("s953");
  auto cf = fault::collapsed_fault_list(nl);
  const auto vectors = random_vectors(nl, 200, 9);
  const auto targets = all_targets(cf.size());
  auto run = [&](std::size_t threads) {
    util::ScopedParallelism scoped(threads);
    fault::DiffSimShards sims(nl);
    return first_detections(sims, cf.faults(), targets, vectors);
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(TestSet, CompactionKeepsEveryFirstDetector) {
  // Reverse-order compaction keeps a vector iff, walking the uncompacted
  // list backwards, it detects a fault no later vector detects.
  auto nl = netgen::generate("s526");
  auto cf = fault::collapsed_fault_list(nl);
  TestSetOptions opts;
  opts.seed = 3;
  opts.reverse_compaction = false;
  const auto raw = generate_full_scan_tests(nl, cf.faults(), opts);
  opts.reverse_compaction = true;
  const auto compacted = generate_full_scan_tests(nl, cf.faults(), opts);

  std::vector<std::size_t> targets;
  for (std::size_t i = 0; i < cf.size(); ++i)
    if (raw.classes[i] == FaultClass::Detected) targets.push_back(i);
  std::vector<TestVector> reversed(raw.vectors.rbegin(), raw.vectors.rend());
  const auto first =
      naive_first_detections(nl, cf.faults(), targets, reversed);
  std::vector<TestVector> want;
  for (std::size_t k = reversed.size(); k-- > 0;)
    if (std::find(first.begin(), first.end(), k) != first.end())
      want.push_back(reversed[k]);
  EXPECT_EQ(compacted.vectors, want);
}

}  // namespace
}  // namespace vcomp::atpg
