#include "vcomp/util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "vcomp/util/assert.hpp"

namespace vcomp::util {
namespace {

TEST(ThreadPool, ParallelismIsAtLeastOne) {
  EXPECT_GE(parallelism(), 1u);
}

TEST(ThreadPool, ConfigureResizes) {
  ScopedParallelism scoped(3);
  EXPECT_EQ(parallelism(), 3u);
}

TEST(ThreadPool, ConfigureRejectsSizeAboveCapBeforeStoppingWorkers) {
  // Starts no thread: the cap check throws before the pool is touched.
  const std::size_t before = parallelism();
  EXPECT_THROW(ThreadPool::instance().configure(kMaxParallelism + 1),
               vcomp::ContractError);
  EXPECT_EQ(parallelism(), before);
}

TEST(ScopedParallelism, RestoresPreviousSize) {
  const std::size_t before = parallelism();
  {
    ScopedParallelism scoped(before + 2);
    EXPECT_EQ(parallelism(), before + 2);
  }
  EXPECT_EQ(parallelism(), before);
}

TEST(ParallelFor, EmptyRangeCallsNothing) {
  std::atomic<int> calls{0};
  parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ScopedParallelism scoped(4);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForShards, ShardsPartitionTheRange) {
  ScopedParallelism scoped(4);
  const std::size_t n = 1003;
  std::vector<int> owner(n, -1);
  std::atomic<std::size_t> shard_calls{0};
  parallel_for_shards(n, 4, [&](std::size_t shard, std::size_t b,
                                std::size_t e) {
    ++shard_calls;
    ASSERT_LE(b, e);
    for (std::size_t i = b; i < e; ++i) {
      EXPECT_EQ(owner[i], -1);  // no overlap between shards
      owner[i] = static_cast<int>(shard);
    }
  });
  EXPECT_LE(shard_calls.load(), 4u);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NE(owner[i], -1) << i;
}

TEST(ParallelForShards, RespectsMaxShardsCap) {
  ScopedParallelism scoped(8);
  std::atomic<std::size_t> max_shard{0};
  parallel_for_shards(1000, 2, [&](std::size_t shard, std::size_t,
                                   std::size_t) {
    std::size_t cur = max_shard.load();
    while (shard > cur && !max_shard.compare_exchange_weak(cur, shard)) {
    }
  });
  EXPECT_LT(max_shard.load(), 2u);
}

TEST(ParallelMap, PreservesOrder) {
  ScopedParallelism scoped(4);
  const auto out =
      parallel_map(257, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelMap, WorksWithMoveOnlyResults) {
  ScopedParallelism scoped(4);
  auto out = parallel_map(16, [](std::size_t i) {
    return std::make_unique<std::size_t>(i);
  });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(*out[i], i);
}

TEST(ParallelReduce, FoldsInIndexOrder) {
  ScopedParallelism scoped(4);
  // String concatenation is non-commutative: any out-of-order fold would
  // differ from the serial result.
  const auto serial = [] {
    std::string s;
    for (int i = 0; i < 100; ++i) s += std::to_string(i) + ",";
    return s;
  }();
  const auto parallel = parallel_reduce(
      100, std::string{},
      [](std::size_t i) { return std::to_string(i) + ","; },
      [](std::string acc, std::string v) { return acc + v; });
  EXPECT_EQ(parallel, serial);
}

TEST(ParallelFor, ExceptionsPropagate) {
  ScopedParallelism scoped(4);
  EXPECT_THROW(parallel_for(1000,
                            [](std::size_t i) {
                              if (i == 57)
                                throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ParallelFor, NestedCallsDoNotDeadlock) {
  ScopedParallelism scoped(4);
  std::atomic<std::size_t> total{0};
  parallel_for(8, [&](std::size_t) {
    parallel_for(64, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 8u * 64u);
}

TEST(ParallelFor, SerialModeMatchesParallel) {
  std::vector<std::uint64_t> a, b;
  {
    ScopedParallelism scoped(1);
    a = parallel_map(512, [](std::size_t i) {
      return splitmix64(static_cast<std::uint64_t>(i));
    });
  }
  {
    ScopedParallelism scoped(4);
    b = parallel_map(512, [](std::size_t i) {
      return splitmix64(static_cast<std::uint64_t>(i));
    });
  }
  EXPECT_EQ(a, b);
}

TEST(Splitmix64, MatchesReferenceStream) {
  // Reference values from the splitmix64 stream seeded with 0.
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_NE(splitmix64(1), splitmix64(2));
}

}  // namespace
}  // namespace vcomp::util
