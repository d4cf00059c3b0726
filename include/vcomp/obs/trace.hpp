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
/// Microseconds since the trace epoch; 0 when tracing is disabled.
/// Pair with trace_complete() for code that already does its own timing.
double trace_now_us();
/// Record a complete event: started at start_us (from trace_now_us()),
/// lasted dur_seconds.  No-op when tracing is disabled.
void trace_complete(const char* name, double start_us, double dur_seconds);
/// Emit the buffered events as Chrome-trace JSON ({"traceEvents":[...]}).
void write_chrome_trace(std::ostream& os);

/// RAII span: records a complete trace event for its lifetime and, when
/// constructed with a Timer, also adds the elapsed seconds to it (so one
/// clock read feeds both the trace and the metrics registry).
class Span {
 public:
  explicit Span(const char* name) : Span(name, Timer{}, /*has_timer=*/false) {}
  Span(const char* name, Timer timer) : Span(name, timer, true) {}
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Elapsed seconds so far (0 when neither tracing nor a Timer wants it).
  double elapsed_seconds() const;

 private:
  Span(const char* name, Timer timer, bool has_timer);
  const char* name_;
  Timer timer_;
  bool has_timer_;
  bool active_;       // tracing or the Timer wanted a clock read
  double start_us_;   // trace-epoch microseconds (valid when tracing)
  long long start_ns_;  // steady_clock ns (valid when active_)
};

}  // namespace vcomp::obs
