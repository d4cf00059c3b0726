#pragma once
// vcomp::obs -- process-wide metrics registry.
//
// The registry hands out small value-type handles (Counter, Histogram,
// Timer) identified by a stable slot index.  Updates go to a
// per-thread sink (a deque of atomics, so slot addresses never move while
// the owning thread appends), which keeps the hot path to one relaxed
// atomic add with zero contention.  Snapshots merge the per-thread sinks
// in registration order under the registry mutex, then sort by metric
// name, so the merged result is independent of thread count and thread
// interleaving for every kind whose merge is commutative+associative:
//
//   counter    sum
//   histogram  per-bucket sum + count/sum/min/max
//   timer      sum of double seconds -- NOT deterministic, and therefore
//              excluded from Snapshot::counters_only() and every digest.
//
// Determinism contract: as long as the instrumented code performs the
// same multiset of metric updates regardless of VCOMP_THREADS (which the
// engine's parallel layer guarantees), counters_only() is byte-identical
// across thread counts.
//
// The registry is always on: it is the one place work is counted, so
// there is no switch that would silently empty it.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vcomp::obs {

namespace detail {
void counter_add(std::uint32_t slot, std::uint64_t n);
void histogram_record(std::uint32_t slot, std::uint64_t v);
void timer_add(std::uint32_t slot, double seconds);
}  // namespace detail

/// Monotonic event count.  Merge across threads: sum.
class Counter {
 public:
  Counter() = default;
  void inc() const { add(1); }
  void add(std::uint64_t n) const {
    if (n != 0) detail::counter_add(slot_, n);
  }

 private:
  friend class Registry;
  explicit Counter(std::uint32_t slot) : slot_(slot) {}
  std::uint32_t slot_ = 0;
};

/// Power-of-two bucketed value distribution (bucket k counts values whose
/// bit width is k, i.e. v==0 -> bucket 0, v in [2^(k-1), 2^k) -> bucket k).
class Histogram {
 public:
  Histogram() = default;
  void record(std::uint64_t v) const { detail::histogram_record(slot_, v); }

 private:
  friend class Registry;
  explicit Histogram(std::uint32_t slot) : slot_(slot) {}
  std::uint32_t slot_ = 0;
};

/// Accumulated wall-clock seconds.  Inherently nondeterministic; excluded
/// from counters_only() and digests, reported only for humans.
class Timer {
 public:
  Timer() = default;
  void add_seconds(double s) const { detail::timer_add(slot_, s); }

 private:
  friend class Registry;
  explicit Timer(std::uint32_t slot) : slot_(slot) {}
  std::uint32_t slot_ = 0;
};

/// Deterministic slice of a snapshot: name-sorted integer metrics only
/// (counters and histogram summaries; no wall-clock values).
/// This is the type tests compare and digests hash.
class CounterSet {
 public:
  std::vector<std::pair<std::string, std::uint64_t>> values;

  bool operator==(const CounterSet&) const = default;
  /// "name=value\n" lines in sorted order; stable across platforms.
  std::string digest() const;
  std::uint64_t get(std::string_view name) const;  // 0 when absent
};

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // 0 when count == 0
  std::uint64_t max = 0;
  std::vector<std::uint64_t> buckets;  // trailing zeros trimmed

  bool operator==(const HistogramSnapshot&) const = default;
};

/// Point-in-time merged view of every registered metric, sorted by name.
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<HistogramSnapshot> histograms;
  std::vector<std::pair<std::string, double>> timings;  // seconds

  /// Deterministic view: counters + histogram summaries
  /// (name.count/.sum/.min/.max), timings excluded.
  CounterSet counters_only() const;
  /// Pretty JSON object {"counters":{...},"histograms":{...},
  /// "timings_seconds":{...}}.
  void write_json(std::ostream& os, int indent = 0) const;
};

/// Process-wide metric registry.  Handle creation and snapshotting are
/// mutex-guarded cold paths; handle updates are lock-free.
class Registry {
 public:
  static Registry& instance();

  /// Idempotent by name: the same name always yields the same slot.
  Counter counter(std::string_view name);
  Histogram histogram(std::string_view name);
  Timer timer(std::string_view name);

  /// Merge all per-thread sinks (live + retired) in registration order.
  Snapshot snapshot() const;
  /// Zero every value (names and slots survive).  Caller must ensure no
  /// concurrent updates are in flight (quiescent point between runs).
  void reset();

 private:
  Registry();
  ~Registry() = delete;  // leaked singleton: outlives thread-exit hooks
};

/// Shorthands for function-local static handles at instrumentation sites.
inline Counter counter(std::string_view name) {
  return Registry::instance().counter(name);
}
inline Histogram histogram(std::string_view name) {
  return Registry::instance().histogram(name);
}
inline Timer timer(std::string_view name) {
  return Registry::instance().timer(name);
}

/// Runs \p body under a fresh scope token (util::new_task_token(), keeping
/// the caller's parallelism cap) and returns the counters that scope
/// collected: the per-run counts of work whose callers share one process
/// (serve jobs, concurrent bench configs, CLI runs, oracle replays).
///
/// Metric updates are attributed to the calling thread's task token
/// (util::task_token(), propagated to pool workers), so the window sees
/// exactly the updates made under it while Registry::snapshot() keeps
/// reporting process-wide totals.  The window merges the same multiset of
/// updates regardless of which threads carried them, so — by the engine's
/// thread-invariance contract — its counters are byte-identical to the
/// same run executed alone in a fresh process.  On return (or throw) the
/// window's totals fold into the process-wide ones.
///
/// Scopes do not nest: a window folds into the process-wide totals, not
/// into an enclosing window, so counts taken inside a nested
/// scoped_counters() call are missing from the outer window.
CounterSet scoped_counters(const std::function<void()>& body);

}  // namespace vcomp::obs
