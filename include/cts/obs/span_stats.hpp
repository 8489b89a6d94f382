// Span-time attribution: one exact, bounded table of every span that has
// closed, keyed by span path.
//
// A ScopedSpan (cts/obs/trace.hpp) folds into the table as it closes.  Its
// path is the names of the spans open on its thread when it opened,
// outermost first, joined with ';' ("replication.run;fluid_mux.run").  An
// entry holds the span count, the total (inclusive) wall time, the self
// time — duration minus the durations of the spans directly nested in it —
// the shortest and longest span and the thread-CPU self time, all in
// integer microseconds.  Because self = duration − Σ children, the self
// times of one thread's spans add up to exactly the duration of its root
// spans.  Nesting is per thread: a span opened on a pool thread is a root
// there, whoever submitted the work.
//
// Folding is always on; spans are per run, per replication or per request,
// never per frame.  The table grows with the number of distinct paths,
// which the code fixes, not with how long a process runs.
//
// Readers: the cts.perf.v2 report (write_perf_report in perf.hpp, behind
// --perf) carries the path table itself as "paths" and the phase table, a
// roll-up of the per-name roll-up (SpanAgg) that groups names by their
// prefix before the first '.' ("fluid_mux.run" -> "fluid_mux"); the
// per-name roll-up is also the cts.stats.v1 span table.

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace cts::obs {

/// Aggregate over all spans sharing one name.
struct SpanAgg {
  std::string name;
  std::uint64_t count = 0;
  std::int64_t total_us = 0;  ///< sum of span durations (inclusive)
  std::int64_t self_us = 0;   ///< total minus time in directly nested spans
  std::int64_t min_us = 0;    ///< shortest single span
  std::int64_t max_us = 0;    ///< longest single span
};

/// Aggregate over all spans that closed under one path.
struct SpanPathAgg {
  std::string path;  ///< "outer;inner", outermost first
  std::string name;  ///< the innermost span's name
  std::uint64_t count = 0;
  std::int64_t total_us = 0;
  std::int64_t self_us = 0;
  std::int64_t min_us = 0;
  std::int64_t max_us = 0;
  std::int64_t cpu_self_us = 0;  ///< thread-CPU time minus the children's
};

/// Coarse per-phase rollup (phase = span name prefix before the first '.').
struct PhaseSelfTime {
  std::string phase;
  std::int64_t self_us = 0;
  std::uint64_t spans = 0;
};

/// The process-wide span table.
class SpanTable {
 public:
  SpanTable() = default;
  SpanTable(const SpanTable&) = delete;
  SpanTable& operator=(const SpanTable&) = delete;

  /// Process-wide table.  Deliberately leaked (see MetricsRegistry).
  static SpanTable& global();

  /// Adds one closed span under `path`.  Thread-safe.
  void fold(const std::string& path, const char* name, std::int64_t dur_us,
            std::int64_t self_us, std::int64_t cpu_self_us);

  /// Every path's totals, sorted by path.
  std::vector<SpanPathAgg> paths() const;

  /// Drops every entry (tests; between phases).  Spans open across the
  /// reset fold into the emptied table when they close.
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, SpanPathAgg> paths_;
};

/// The phase a span name belongs to: everything before the first '.', the
/// whole name when there is no dot ("replication" -> "replication").
std::string span_phase(const std::string& name);

/// Rolls a path table up into per-name totals, sorted by self_us
/// descending.
std::vector<SpanAgg> spans_by_name(const std::vector<SpanPathAgg>& paths);

/// Rolls span aggregates up into phases, sorted by self_us descending.
std::vector<PhaseSelfTime> phase_self_times(const std::vector<SpanAgg>& spans);

}  // namespace cts::obs
