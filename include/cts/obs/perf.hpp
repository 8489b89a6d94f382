// Performance telemetry: per-run resource usage and span self-times.
//
// ResourceProbe snapshots getrusage(RUSAGE_SELF) plus the monotonic clock
// at construction and reports deltas on sample(), so a bench can attribute
// user/system CPU time, peak RSS and context switches to exactly the
// measured region.
//
// PerfReport bundles one run's resources + span self-time table (see
// span_stats.hpp) into the cts.perf.v1 JSON document written by the bench
// harness for --perf=<path> and aggregated by tools/cts_benchd.

#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "cts/obs/span_stats.hpp"

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

/// One run's perf telemetry, serialised as the cts.perf.v1 JSON schema:
///
///   {"schema":"cts.perf.v1","info":{...},
///    "resources":{"wall_s":...,"user_s":...,"sys_s":...,"max_rss_kb":...,
///                 "ctx_voluntary":...,"ctx_involuntary":...},
///    "spans":[{"name":...,"count":...,"total_us":...,"self_us":...,
///              "min_us":...,"max_us":...},...],
///    "phases":[{"phase":...,"self_us":...,"spans":...},...]}
struct PerfReport {
  static constexpr const char* kSchema = "cts.perf.v1";

  std::vector<std::pair<std::string, std::string>> info;  ///< config echo
  ResourceUsage resources;
  std::vector<SpanAgg> spans;

  void write_json(std::ostream& os) const;

  /// Writes the report to `path`; returns false on I/O failure.
  bool write(const std::string& path) const;
};

}  // namespace cts::obs
