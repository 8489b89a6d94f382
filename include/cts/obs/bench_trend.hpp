// The perf gate: reading cts.bench.v1 documents (BENCH_*.json, emitted by
// tools/cts_benchd) and the one regression rule every bench gate applies.
//
// Baselines are ordered by date and turned into per-bench metric series
// (median with the MAD and t-corrected 95% CI cts_benchd records).  Each
// point is measured against the first baseline:
//
//   excess_i = median_i - median_0
//   band_i   = max(k_mad * max(MAD_i, MAD_0), min_rel * |median_0|,
//                  metric_resolution(metric))
//
// so a 2% wobble on a noisy metric and a 20-microsecond jitter on a
// sub-millisecond one both stay inside the band, and a zero median with
// zero MADs cannot turn one clock tick into a regression.  A series drifts
// when excess_i > band_i for every one of the last `window` points: a
// sustained trend, not a single noisy delta.  An improvement drift (all
// below -band_i) is reported but never gates.  A Theil-Sen slope per
// series summarises the overall direction robustly.
//
// A two-point trajectory with window = 1 is the classic "did THIS run
// regress against ONE baseline?" gate.  tools/cts_benchd builds every
// trajectory through one gate function: `cts_benchd trend` over any
// baselines, grouped by suite and scale, and `cts_benchd --compare` over
// {baseline, fresh document}.  It renders each as a markdown table.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "cts/obs/json.hpp"

namespace cts::obs {

/// Schema identifier stamped into BENCH_*.json by cts_benchd.
inline constexpr const char* kBenchSchema = "cts.bench.v1";

/// Throws util::InvalidArgument unless `doc` carries the cts.bench.v1
/// schema tag and a "benches" object.  The message names what was
/// actually found (missing field, non-string, unknown schema string) so
/// a stray JSON file is rejected loudly instead of best-effort parsed.
void require_bench_schema(const JsonValue& doc);

/// One parsed baseline document in the trajectory.
struct BaselineDoc {
  std::string path;       ///< file it was loaded from
  std::string label;      ///< short label (file stem, e.g. BENCH_2026-08-05)
  std::string generated;  ///< the document's "generated" ISO date
  std::string suite;
  std::string scale;  ///< the "scale" object as sorted "key=value" pairs
  JsonValue doc;
};

/// Parses one cts.bench.v1 document into a BaselineDoc.  Throws
/// util::InvalidArgument when `text` is not valid JSON or does not carry
/// the cts.bench.v1 schema (missing/unknown "schema" fields are rejected
/// with a message naming what was found — never best-effort parsed).
BaselineDoc parse_baseline(const std::string& path, const std::string& text);

/// Sorts baselines by (generated date, label) so a trajectory reads
/// oldest -> newest even when files are listed in shell-glob order.
void sort_baselines(std::vector<BaselineDoc>& docs);

struct TrendOptions {
  double k_mad = 3.0;       ///< noise gate in MAD multiples
  double min_rel = 0.05;    ///< relative gate (fraction of first median)
  std::size_t window = 2;   ///< trailing points that must all drift
  /// sys_s stays out by default: at the tens-of-milliseconds scale it
  /// measures kernel scheduling and page-cache state, not the code.
  std::vector<std::string> metrics = {"wall_s", "user_s", "max_rss_kb"};
};

/// The smallest change `metric` can resolve (its unit: seconds, kB,
/// counts), the floor under every noise band.  1e-4 for a metric the
/// table does not know.
double metric_resolution(const std::string& metric);

/// One baseline's contribution to a series.  Only median and mad feed
/// the gate; n and the CI are display-only and read as 0 when absent.
struct TrendPoint {
  std::string label;      ///< baseline label
  std::string generated;  ///< baseline date
  std::size_t n = 0;      ///< repeats behind the median
  double median = 0.0;
  double mad = 0.0;
  double ci95_lo = 0.0;
  double ci95_hi = 0.0;
  double excess = 0.0;  ///< median - first median
  double band = 0.0;    ///< noise band half-width around the first median
  bool beyond_band = false;  ///< |excess| > band (either direction)
};

/// One bench x metric trajectory over all baselines that carry it.
struct TrendSeries {
  std::string bench;
  std::string metric;
  std::vector<TrendPoint> points;
  double slope = 0.0;  ///< Theil-Sen slope per baseline step
  bool drift_regression = false;  ///< last `window` points all above +band
  bool drift_improvement = false; ///< last `window` points all below -band
  std::string verdict() const;  ///< "DRIFT" | "improvement" | "ok"
};

struct TrendReport {
  std::string suite;
  std::vector<std::string> labels;  ///< baseline labels, oldest first
  std::vector<TrendSeries> series;
  std::vector<std::string> notes;   ///< benches missing from some baselines

  bool has_drift() const noexcept;
};

/// Theil-Sen estimator: the median over i<j of (y_j - y_i)/(j - i).
/// Robust to a single outlier baseline; 0 for fewer than two points.
double theil_sen_slope(const std::vector<double>& y);

/// Builds the trajectory over `docs` in the given order: oldest first
/// (see sort_baselines), all of one suite.  Throws
/// util::InvalidArgument when fewer than two baselines are given.
TrendReport build_trend(const std::vector<BaselineDoc>& docs,
                        const TrendOptions& options = {});

/// Renders the report as a GitHub-flavoured markdown section (one table
/// per metric, plus the notes).
std::string trend_markdown(const TrendReport& report,
                           const TrendOptions& options = {});

/// One line naming a drifting series: "REGRESSION: <bench> <metric>
/// <+x.x% | n/a> (median a -> b, excess e > band w)", last point against
/// the first; n/a when the first median is zero.
std::string regression_line(const TrendSeries& series);

}  // namespace cts::obs
