// OpenMetrics 1.0 text exposition for metrics snapshots, so any
// Prometheus-family scraper can ingest a daemon's stats endpoint without
// bespoke glue.
//
// Mapping (one metric family per registry entry, names sanitized to the
// OpenMetrics charset):
//   counters        -> counter  (`name_total` sample)
//   sums            -> gauge    (compensated totals can move either way)
//   gauges          -> gauge
//   log_histograms  -> summary   (`quantile` samples for p50/p95/p99/p999
//                                 + `_sum`/`_count`)
//
// When two entries share a sanitized name, the later family gets `_`
// appended so the exposition never declares one family twice.  Output
// ends with the mandatory `# EOF` terminator.

#pragma once

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "cts/obs/metrics.hpp"

namespace cts::obs {

/// Sanitizes a metric name to the OpenMetrics charset: every character
/// outside [a-zA-Z0-9_:] becomes '_', and a leading digit is prefixed
/// with '_'.  Returns "_" for an empty name.
std::string openmetrics_name(const std::string& name);

/// Escapes a label value (backslash, double quote, newline).
std::string openmetrics_label_escape(const std::string& value);

struct OpenMetricsOptions {
  /// Constant labels attached to every sample (e.g. {"worker", "w1"}).
  std::vector<std::pair<std::string, std::string>> labels;
};

/// Renders `shard` as OpenMetrics 1.0 text (terminated by `# EOF`).
void write_openmetrics(std::ostream& os, const MetricsShard& shard,
                       const OpenMetricsOptions& opts = {});

/// Strict OpenMetrics checker for the subset this repo emits.  Verifies:
/// the `# EOF` terminator, `# TYPE` declared once per family and before
/// its samples, sample names consistent with the family type (counter
/// `_total`, histogram `_bucket`/`_sum`/`_count`, summary quantiles),
/// histogram buckets cumulative and monotone with a final `+Inf` equal to
/// `_count`, summary families carrying at least one `quantile` sample,
/// quantiles within [0, 1], parseable values, and no duplicate samples.
/// Returns human-readable problems ("line N: ..."); empty means valid.
std::vector<std::string> validate_openmetrics(const std::string& text);

}  // namespace cts::obs
