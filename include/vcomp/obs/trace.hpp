#pragma once
// vcomp::obs -- lightweight scoped spans exported as Chrome-trace JSON.
//
// Tracing is opt-in (set_trace_enabled(true), or the --trace flag on the
// CLI tools) and entirely separate from the metrics registry: metrics stay
// exact and deterministic whether or not a trace is being captured.
// Events are complete-style ("ph":"X") records {name, ts, dur, tid}
// appended to a mutex-guarded global buffer -- span granularity here is
// per phase / per engine call, not per gate, so a lock per event is
// cheap relative to the work being timed.  write_chrome_trace() emits a
// JSON object loadable by chrome://tracing and Perfetto.
//
// Span names must be string literals (or otherwise outlive the trace
// buffer); they are stored as const char*.

#include <iosfwd>

#include "vcomp/obs/metrics.hpp"

namespace vcomp::obs {

/// True when span capture is active (off by default).
bool trace_enabled();
void set_trace_enabled(bool on);
/// Drop all buffered events (epoch is kept).
void clear_trace();
/// Emit the buffered events as Chrome-trace JSON ({"traceEvents":[...]}).
void write_chrome_trace(std::ostream& os);

/// RAII span: records a complete trace event for its lifetime and adds
/// the elapsed seconds to \p timer and to \p seconds (a per-run profile
/// field) when given — one clock read feeds the trace, the metrics
/// registry and the caller's profile.
class Span {
 public:
  explicit Span(const char* name, double* seconds = nullptr)
      : Span(name, Timer{}, false, seconds) {}
  Span(const char* name, Timer timer, double* seconds = nullptr)
      : Span(name, timer, true, seconds) {}
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Elapsed seconds so far (0 when no trace, Timer or profile wants it).
  double elapsed_seconds() const;

 private:
  Span(const char* name, Timer timer, bool has_timer, double* seconds);
  const char* name_;
  Timer timer_;
  bool has_timer_;
  double* seconds_;   // profile field to add into (may be null)
  bool active_;       // tracing, the Timer or the profile wanted a clock
  double start_us_;   // trace-epoch microseconds (valid when tracing)
  long long start_ns_;  // steady_clock ns (valid when active_)
};

}  // namespace vcomp::obs
