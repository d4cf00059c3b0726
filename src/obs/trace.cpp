#include "vcomp/obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <ostream>
#include <vector>

#include "vcomp/util/parallel.hpp"

namespace vcomp::obs {

namespace {

using Clock = std::chrono::steady_clock;

struct TraceEvent {
  const char* name;
  double ts_us;
  double dur_us;
  int tid;
  // Task-scope token at record time (util::task_token()); emitted as the
  // Chrome-trace "pid" so each serve job renders as its own process row.
  std::uint64_t scope;
};

struct TraceState {
  std::mutex m;
  std::vector<TraceEvent> events;
  Clock::time_point epoch = Clock::now();
  std::atomic<int> next_tid{0};
};

// Leaked so thread-exit paths can never observe a destroyed buffer.
TraceState& tstate() {
  static TraceState* t = new TraceState;
  return *t;
}

std::atomic<bool> g_trace_on{false};

int thread_tid() {
  thread_local const int tid =
      tstate().next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() -
                                                   tstate().epoch)
      .count();
}

long long now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void write_escaped(std::ostream& os, const char* s) {
  os << '"';
  for (; *s; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      os << buf;
    } else {
      os << c;
    }
  }
  os << '"';
}

void write_double(std::ostream& os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  os << buf;
}

}  // namespace

bool trace_enabled() { return g_trace_on.load(std::memory_order_relaxed); }

void set_trace_enabled(bool on) {
  (void)tstate();  // pin the epoch before the first event
  g_trace_on.store(on, std::memory_order_relaxed);
}

void clear_trace() {
  TraceState& t = tstate();
  const std::lock_guard<std::mutex> lk(t.m);
  t.events.clear();
}

double trace_now_us() { return trace_enabled() ? now_us() : 0.0; }

void trace_complete(const char* name, double start_us, double dur_seconds) {
  if (!trace_enabled()) return;
  TraceState& t = tstate();
  const TraceEvent ev{name, start_us, dur_seconds * 1e6, thread_tid(),
                      util::task_token()};
  const std::lock_guard<std::mutex> lk(t.m);
  t.events.push_back(ev);
}

void write_chrome_trace(std::ostream& os) {
  std::vector<TraceEvent> events;
  {
    TraceState& t = tstate();
    const std::lock_guard<std::mutex> lk(t.m);
    events = t.events;
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.tid < b.tid;
            });
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& ev : events) {
    os << (first ? "\n" : ",\n") << "  {\"name\": ";
    write_escaped(os, ev.name);
    os << ", \"cat\": \"vcomp\", \"ph\": \"X\", \"ts\": ";
    write_double(os, ev.ts_us);
    os << ", \"dur\": ";
    write_double(os, ev.dur_us);
    os << ", \"pid\": " << (ev.scope == 0 ? 1 : ev.scope)
       << ", \"tid\": " << ev.tid << "}";
    first = false;
  }
  os << (first ? "]}" : "\n]}") << '\n';
}

Span::Span(const char* name, Timer timer, bool has_timer)
    : name_(name),
      timer_(timer),
      has_timer_(has_timer),
      active_(false),
      start_us_(-1.0),
      start_ns_(0) {
  const bool want_trace = trace_enabled();
  if (want_trace || has_timer_) {
    active_ = true;
    start_ns_ = now_ns();
    if (want_trace) start_us_ = now_us();
  }
}

Span::~Span() {
  if (!active_) return;
  const double dur_seconds =
      static_cast<double>(now_ns() - start_ns_) * 1e-9;
  if (has_timer_) timer_.add_seconds(dur_seconds);
  if (start_us_ >= 0.0) trace_complete(name_, start_us_, dur_seconds);
}

double Span::elapsed_seconds() const {
  if (!active_) return 0.0;
  return static_cast<double>(now_ns() - start_ns_) * 1e-9;
}

}  // namespace vcomp::obs
