// Scoped wall-time spans, folded into the span table and optionally
// recorded as a Chrome-format trace.
//
// Usage on a hot-ish path (per run / per replication, never per frame):
//
//   void FluidMux::run(...) {
//     CTS_TRACE_SPAN("fluid_mux.run");
//     ...
//   }
//
// Every span folds into the always-on SpanTable (cts/obs/span_stats.hpp)
// as it closes: two steady-clock and two thread-CPU-clock reads plus one
// mutex-guarded table update.  The raw TraceRecorder keeps individual
// spans only while it is enabled — benches enable it when --trace=<path>
// is passed; the resulting file loads in chrome://tracing or
// https://ui.perfetto.dev.

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace cts::obs {

/// One completed span ("X" complete event in Chrome trace terms).
struct TraceEvent {
  std::string name;
  int tid = 0;               ///< small per-thread ordinal, stable per run
  std::int64_t ts_us = 0;    ///< start, microseconds since recorder epoch
  std::int64_t dur_us = 0;   ///< duration, microseconds
};

/// Process-wide span recorder.
class TraceRecorder {
 public:
  TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Process-wide recorder.  Deliberately leaked (see MetricsRegistry).
  static TraceRecorder& global();

  void enable() noexcept { enabled_.store(true, std::memory_order_relaxed); }
  void disable() noexcept { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Microseconds since the recorder's epoch (monotonic clock).
  std::int64_t now_us() const noexcept;

  /// Appends a completed span.  Thread-safe.
  void record(std::string name, std::int64_t ts_us, std::int64_t dur_us);

  std::size_t event_count() const;
  std::vector<TraceEvent> events() const;  ///< copy, for tests

  /// Writes the Chrome trace JSON document ({"traceEvents":[...]}).
  void write_json(std::ostream& os) const;

  /// Writes the trace to `path`; returns false on I/O failure.
  bool write(const std::string& path) const;

  /// Drops all recorded events (tests; between bench phases).
  void reset();

 private:
  std::atomic<bool> enabled_{false};
  std::int64_t epoch_ns_ = 0;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

/// RAII span.  Keeps a thread-local pointer to the enclosing open span, so
/// on close it knows its path and hands the enclosing span its duration;
/// then it folds into SpanTable::global() and, when the recorder was
/// enabled at open and still is, records one TraceEvent.  Spans on one
/// thread must close in reverse order of opening, which scopes guarantee.
/// `name` must outlive the span (a literal, in practice).  Never throws.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) noexcept;
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  ScopedSpan* parent_;           ///< enclosing open span on this thread
  std::size_t path_len_ = 0;     ///< the thread's path length before ours
  std::int64_t start_us_ = 0;
  std::int64_t cpu_start_us_ = 0;
  std::int64_t child_us_ = 0;      ///< wall time of direct children
  std::int64_t child_cpu_us_ = 0;  ///< thread-CPU time of direct children
  bool traced_ = false;            ///< the recorder was enabled at open
};

}  // namespace cts::obs

#define CTS_OBS_CONCAT_INNER(a, b) a##b
#define CTS_OBS_CONCAT(a, b) CTS_OBS_CONCAT_INNER(a, b)

/// Opens a scoped wall-time span named `name` for the rest of the block.
#define CTS_TRACE_SPAN(name) \
  ::cts::obs::ScopedSpan CTS_OBS_CONCAT(cts_trace_span_, __LINE__)(name)
