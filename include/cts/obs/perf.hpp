// Performance telemetry: per-run resource usage and span self-times.
//
// ResourceProbe snapshots getrusage(RUSAGE_SELF) plus the monotonic clock
// at construction and reports deltas on sample(), so a bench can attribute
// user/system CPU time, peak RSS and context switches to exactly the
// measured region.
//
// write_perf_report is the one span report: a probe's resources plus every
// view of the span table (span_stats.hpp) as the cts.perf.v2 JSON document
// that the benches, the daemons and the dispatcher write for --perf=<path>
// and tools/cts_benchd aggregates.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cts::obs {

/// Deltas of process resource usage over a measured region.
struct ResourceUsage {
  double wall_s = 0.0;   ///< monotonic wall time
  double user_s = 0.0;   ///< user CPU time (all threads)
  double sys_s = 0.0;    ///< system CPU time (all threads)
  std::int64_t max_rss_kb = 0;  ///< peak RSS of the process (absolute, KiB)
  std::int64_t ctx_voluntary = 0;    ///< voluntary context switches
  std::int64_t ctx_involuntary = 0;  ///< involuntary context switches
};

/// Captures getrusage + monotonic clock at construction; sample() returns
/// the delta since then (max RSS is the absolute process peak: the kernel
/// reports a high-water mark, not a resettable counter).
class ResourceProbe {
 public:
  ResourceProbe();

  /// Re-arms the probe at the current instant.
  void restart();

  ResourceUsage sample() const;

 private:
  std::int64_t wall_start_ns_ = 0;
  double user_start_s_ = 0.0;
  double sys_start_s_ = 0.0;
  std::int64_t vol_start_ = 0;
  std::int64_t invol_start_ = 0;
};

/// The schema tag of the document write_perf_report writes.
inline constexpr const char* kPerfSchema = "cts.perf.v2";

/// Writes this process's cts.perf.v2 report to `path`:
///
///   {"schema":"cts.perf.v2","info":{...},
///    "resources":{"wall_s":...,"user_s":...,"sys_s":...,"max_rss_kb":...,
///                 "ctx_voluntary":...,"ctx_involuntary":...},
///    "paths":[{"path":...,"count":...,"total_us":...,"self_us":...,
///              "cpu_self_us":...,"min_us":...,"max_us":...},...],
///    "phases":[{"phase":...,"self_us":...,"spans":...},...]}
///
/// `resources` is probe.sample(), `paths` is SpanTable::global().paths()
/// and `phases` is phase_self_times(spans_by_name(paths)), all from one
/// snapshot of the table; `info` is echoed as strings.  Logs one
/// perf.write event.  Returns false on I/O failure.
bool write_perf_report(
    const std::string& path, const ResourceProbe& probe,
    const std::vector<std::pair<std::string, std::string>>& info);

}  // namespace cts::obs
