#pragma once

/// \file parallel.hpp
/// Deterministic data-parallel primitives on a lazily-started thread pool.
///
/// The pool is a process-wide singleton started on first use, sized by the
/// `VCOMP_THREADS` environment variable (unset or 0 means
/// `hardware_concurrency`; values above kMaxParallelism are capped).  The
/// calling thread always participates in parallel loops, so a parallelism
/// of N spawns N-1 workers; with `VCOMP_THREADS=1` no worker thread is
/// ever created and every primitive degenerates to the plain serial loop.
///
/// Determinism contract: `parallel_map` and `parallel_reduce` deliver
/// results in index order, and shard boundaries are observable only through
/// the shard index handed to `parallel_for_shards` (intended for picking
/// per-shard scratch state, never for changing the computed values).  Any
/// caller whose per-index work is a pure function of the index therefore
/// computes bit-identical results for every thread count.
///
/// All primitives BLOCK until the whole range has been processed and
/// rethrow the first exception thrown by any iteration.  Primitives invoked
/// from inside a pool worker run inline on that worker, so nesting can
/// never deadlock.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

namespace vcomp::util {

/// SplitMix64 finalizer: the standard cheap mix for deriving independent
/// per-shard seeds (`seed ^ splitmix64(shard)`) without stream correlation.
std::uint64_t splitmix64(std::uint64_t x);

/// \name Task context
/// A small per-thread context — an opaque scope token plus an optional
/// dynamic parallelism ceiling — that `run_on_pool` copies onto every pool
/// worker for the duration of the tasks it executes on the submitter's
/// behalf.  Token 0 is the default (process) scope.
///
/// The token lets cross-cutting layers attribute work to a logical task
/// tree: the obs metrics registry keys per-scope counter sinks by it (see
/// obs::scoped_counters, which the serve job daemon opens around each job
/// so concurrent jobs keep separable, deterministic counter snapshots).
///
/// The cap is the *malleable* part: it points at an atomic owned by a
/// scheduler, and every parallel primitive reads it at loop entry, so the
/// owner can grow or shrink a running task tree's parallelism between
/// loops without synchronisation.  Because results are byte-identical for
/// every thread count (the standing determinism contract), reallocation
/// points are unobservable in any computed value.
/// @{

struct TaskContext {
  std::uint64_t token = 0;
  /// Dynamic parallelism ceiling (loaded relaxed at every loop entry;
  /// values < 1 read as 1).  nullptr = uncapped.
  const std::atomic<std::size_t>* cap = nullptr;
};

/// Allocates a fresh, process-unique scope token (monotonic, never
/// reused).  Every scoped-metrics window (serve jobs,
/// obs::scoped_counters) must draw its token here: per-thread metric sinks
/// fold lazily on token *change*, so reusing a token while an idle pool
/// worker still carries counts tagged with it would leak them into the new
/// scope's snapshot.
std::uint64_t new_task_token();

/// The calling thread's current task context.
TaskContext task_context();
/// Current scope token only (hot-path accessor for the obs layer).
std::uint64_t task_token();
void set_task_context(const TaskContext& ctx);

/// RAII context override restoring the previous context on destruction.
class ScopedTaskContext {
 public:
  explicit ScopedTaskContext(const TaskContext& ctx)
      : prev_(task_context()) {
    set_task_context(ctx);
  }
  ~ScopedTaskContext() { set_task_context(prev_); }
  ScopedTaskContext(const ScopedTaskContext&) = delete;
  ScopedTaskContext& operator=(const ScopedTaskContext&) = delete;

 private:
  TaskContext prev_;
};

/// @}

/// Upper bound on the pool's total parallelism, on every route that sizes
/// it: `VCOMP_THREADS` is capped to it, ThreadPool::configure rejects more.
inline constexpr std::size_t kMaxParallelism = 1024;

class ThreadPool {
 public:
  /// The process-wide pool; first call resolves `VCOMP_THREADS` and spawns
  /// the workers (if any).
  static ThreadPool& instance();

  /// Degree of parallelism: pool workers plus the calling thread.
  std::size_t parallelism() const;

  /// Joins all workers and respawns the pool at \p threads total
  /// parallelism (0 reads as 1).  Throws ContractError, leaving the pool
  /// untouched, when \p threads exceeds kMaxParallelism.  Must not race
  /// with running parallel loops; meant for tests and `main()`-level
  /// overrides (see ScopedParallelism).
  void configure(std::size_t threads);

  /// True iff the calling thread is one of this process's pool workers.
  static bool on_worker();

  /// Enqueues a task for any worker.  Low-level; the parallel_* primitives
  /// are the intended interface.
  void submit(std::function<void()> task);

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  explicit ThreadPool(std::size_t threads);
  void start(std::size_t workers);
  void stop();
  void worker_loop();

  mutable std::mutex m_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Current degree of parallelism (1 = serial).
inline std::size_t parallelism() { return ThreadPool::instance().parallelism(); }

/// Pool parallelism clamped by the calling task's malleable cap (see
/// TaskContext).  Every parallel primitive reads this at loop entry, so a
/// scheduler can retune a running task tree between loops.
inline std::size_t effective_parallelism() {
  const std::size_t p = ThreadPool::instance().parallelism();
  const TaskContext ctx = task_context();
  if (ctx.cap == nullptr) return p;
  const std::size_t cap = ctx.cap->load(std::memory_order_relaxed);
  return std::min(p, cap > 0 ? cap : std::size_t{1});
}

/// RAII parallelism override: reconfigures the pool to \p threads and
/// restores the previous size on destruction.  Used by the determinism
/// tests and by CLI `--threads` flags.
class ScopedParallelism {
 public:
  explicit ScopedParallelism(std::size_t threads);
  ~ScopedParallelism();
  ScopedParallelism(const ScopedParallelism&) = delete;
  ScopedParallelism& operator=(const ScopedParallelism&) = delete;

 private:
  std::size_t prev_;
};

namespace detail {

/// Runs \p body on \p helpers pool workers plus the calling thread; blocks
/// until every copy returns and rethrows the first captured exception.
void run_on_pool(std::size_t helpers, const std::function<void()>& body);

}  // namespace detail

/// Calls `fn(i)` for every i in [0, n), in unspecified order, possibly
/// concurrently.  Blocks until done.  \p grain is the smallest batch of
/// consecutive indices handed to one thread at a time.
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn, std::size_t grain = 1) {
  if (n == 0) return;
  const std::size_t p = effective_parallelism();
  if (p <= 1 || ThreadPool::on_worker() || n <= grain) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const std::size_t chunk =
      std::max<std::size_t>({grain, n / (4 * p), std::size_t{1}});
  std::atomic<std::size_t> next{0};
  auto body = [&fn, &next, n, chunk] {
    for (;;) {
      const std::size_t b = next.fetch_add(chunk, std::memory_order_relaxed);
      if (b >= n) return;
      const std::size_t e = std::min(n, b + chunk);
      for (std::size_t i = b; i < e; ++i) fn(i);
    }
  };
  const std::size_t tasks = (n + chunk - 1) / chunk;
  detail::run_on_pool(std::min(p, tasks) - 1, body);
}

/// Splits [0, n) into at most `min(parallelism(), max_shards)` contiguous
/// shards and calls `fn(shard, begin, end)` exactly once per shard,
/// possibly concurrently.  The shard index is dense in [0, num_shards) so
/// callers can key per-shard scratch state (e.g. a private DiffSim) by it.
template <typename Fn>
void parallel_for_shards(std::size_t n, std::size_t max_shards, Fn&& fn) {
  if (n == 0) return;
  std::size_t shards = std::min(effective_parallelism(), max_shards);
  shards = std::min(shards, n);
  if (shards <= 1 || ThreadPool::on_worker()) {
    fn(std::size_t{0}, std::size_t{0}, n);
    return;
  }
  std::atomic<std::size_t> next{0};
  auto body = [&fn, &next, n, shards] {
    for (;;) {
      const std::size_t s = next.fetch_add(1, std::memory_order_relaxed);
      if (s >= shards) return;
      fn(s, n * s / shards, n * (s + 1) / shards);
    }
  };
  detail::run_on_pool(shards - 1, body);
}

/// Order-preserving map: returns `{fn(0), fn(1), ..., fn(n-1)}` with the
/// calls possibly running concurrently.  Results are positionally identical
/// to the serial loop for every thread count.
template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn) {
  using R = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
  std::vector<std::optional<R>> slots(n);
  parallel_for(n, [&](std::size_t i) { slots[i].emplace(fn(i)); });
  std::vector<R> out;
  out.reserve(n);
  for (auto& s : slots) out.push_back(std::move(*s));
  return out;
}

/// Parallel map followed by a serial index-order fold:
/// `combine(...combine(init, fn(0))..., fn(n-1))`.  Deterministic even for
/// non-commutative combines because the fold order is fixed.
template <typename T, typename Fn, typename Combine>
T parallel_reduce(std::size_t n, T init, Fn&& fn, Combine&& combine) {
  auto vals = parallel_map(n, std::forward<Fn>(fn));
  T acc = std::move(init);
  for (auto& v : vals) acc = combine(std::move(acc), std::move(v));
  return acc;
}

}  // namespace vcomp::util
