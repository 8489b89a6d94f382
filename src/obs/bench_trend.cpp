#include "cts/obs/bench_trend.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "cts/util/error.hpp"
#include "cts/util/table.hpp"

namespace cts::obs {

namespace {

/// File stem ("dir/BENCH_2026-08-05.json" -> "BENCH_2026-08-05").
std::string stem_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  std::string name = slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = name.find_last_of('.');
  if (dot != std::string::npos && dot > 0) name.resize(dot);
  return name;
}

/// "+3.2%" for a relative delta; "-" when the reference median is zero.
std::string rel_pct(double excess, double reference) {
  if (reference == 0.0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", excess / reference * 100.0);
  return buf;
}

/// `summary[key]` as a number, or 0 when the display-only field is absent.
double optional_number(const JsonValue& summary, const char* key) {
  const JsonValue* value = summary.find(key);
  return value != nullptr ? value->as_number() : 0.0;
}

/// The "scale" object as sorted "key=value" pairs ("" when absent): two
/// documents are comparable only when these strings match.
std::string scale_text(const JsonValue* scale) {
  if (scale == nullptr) return "";
  std::vector<std::string> pairs;
  for (const auto& [key, value] : scale->members) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value.as_number());
    pairs.push_back(key + "=" + buf);
  }
  std::sort(pairs.begin(), pairs.end());
  std::string text;
  for (const std::string& pair : pairs) {
    text += (text.empty() ? "" : " ") + pair;
  }
  return text;
}

/// Resolution floors for the metrics cts_benchd records.
struct MetricResolution {
  const char* metric;
  double floor;
};
constexpr MetricResolution kResolutions[] = {
    // Wall time of a spawned child includes fork/exec, loading and reaping,
    // which jitter by a few hundred microseconds on a loaded host.
    {"wall_s", 3e-4},
    // The kernel splits a task's CPU time between user and system in
    // proportion to its tick samples, so a bench shorter than a tick can
    // read all user or all system from one run to the next: about 1 ms.
    {"user_s", 1e-3},
    {"sys_s", 1e-3},
    // ru_maxrss counts kilobytes of resident pages: one 4 KiB page.
    {"max_rss_kb", 4.0},
    // Context switches are counted one by one.
    {"ctx_voluntary", 1.0},
    {"ctx_involuntary", 1.0},
};

}  // namespace

void require_bench_schema(const JsonValue& doc) {
  util::require(doc.is_object(), "bench report: top level must be an object");
  const JsonValue* schema = doc.find("schema");
  util::require(schema != nullptr,
                std::string("bench report: missing \"schema\" field "
                            "(expected \"") +
                    kBenchSchema + "\") — not a cts_benchd document");
  util::require(schema->is_string(),
                std::string("bench report: \"schema\" must be a string "
                            "(expected \"") +
                    kBenchSchema + "\")");
  util::require(schema->string == kBenchSchema,
                "bench report: unknown schema \"" + schema->string +
                    "\" (this tool understands \"" + kBenchSchema + "\")");
  const JsonValue* benches = doc.find("benches");
  util::require(benches != nullptr && benches->is_object(),
                "bench report: missing \"benches\" object");
}

BaselineDoc parse_baseline(const std::string& path, const std::string& text) {
  BaselineDoc doc;
  doc.path = path;
  doc.label = stem_of(path);
  try {
    doc.doc = json_parse(text);
  } catch (const util::Error& e) {
    throw util::InvalidArgument(path + ": invalid JSON: " + e.what());
  }
  try {
    require_bench_schema(doc.doc);
  } catch (const util::Error& e) {
    throw util::InvalidArgument(path + ": " + e.what());
  }
  const JsonValue* generated = doc.doc.find("generated");
  if (generated != nullptr && generated->is_string()) {
    doc.generated = generated->string;
  }
  const JsonValue* suite = doc.doc.find("suite");
  if (suite != nullptr && suite->is_string()) doc.suite = suite->string;
  try {
    doc.scale = scale_text(doc.doc.find("scale"));
  } catch (const util::Error& e) {
    throw util::InvalidArgument(path + ": scale: " + e.what());
  }
  return doc;
}

void sort_baselines(std::vector<BaselineDoc>& docs) {
  std::stable_sort(docs.begin(), docs.end(),
                   [](const BaselineDoc& a, const BaselineDoc& b) {
                     if (a.generated != b.generated) {
                       return a.generated < b.generated;
                     }
                     return a.label < b.label;
                   });
}

double metric_resolution(const std::string& metric) {
  for (const MetricResolution& entry : kResolutions) {
    if (metric == entry.metric) return entry.floor;
  }
  return 1e-4;
}

std::string TrendSeries::verdict() const {
  if (drift_regression) return "DRIFT";
  if (drift_improvement) return "improvement";
  return "ok";
}

bool TrendReport::has_drift() const noexcept {
  return std::any_of(series.begin(), series.end(), [](const TrendSeries& s) {
    return s.drift_regression;
  });
}

double theil_sen_slope(const std::vector<double>& y) {
  if (y.size() < 2) return 0.0;
  std::vector<double> slopes;
  slopes.reserve(y.size() * (y.size() - 1) / 2);
  for (std::size_t i = 0; i < y.size(); ++i) {
    for (std::size_t j = i + 1; j < y.size(); ++j) {
      slopes.push_back((y[j] - y[i]) / static_cast<double>(j - i));
    }
  }
  std::sort(slopes.begin(), slopes.end());
  const std::size_t m = slopes.size();
  return m % 2 == 1 ? slopes[m / 2]
                    : 0.5 * (slopes[m / 2 - 1] + slopes[m / 2]);
}

TrendReport build_trend(const std::vector<BaselineDoc>& docs,
                        const TrendOptions& options) {
  util::require(docs.size() >= 2,
                "build_trend: need at least two baselines for a trajectory");
  util::require(options.window >= 1, "build_trend: window must be >= 1");

  TrendReport report;
  report.suite = docs.front().suite;
  for (const BaselineDoc& doc : docs) report.labels.push_back(doc.label);

  // The union of bench ids, in first-seen (i.e. oldest-baseline) order.
  std::vector<std::string> bench_ids;
  std::set<std::string> seen;
  for (const BaselineDoc& doc : docs) {
    for (const auto& [id, bench] : doc.doc.at("benches").members) {
      (void)bench;
      if (seen.insert(id).second) bench_ids.push_back(id);
    }
  }

  for (const std::string& metric : options.metrics) {
    for (const std::string& id : bench_ids) {
      TrendSeries series;
      series.bench = id;
      series.metric = metric;
      std::size_t missing = 0;
      for (const BaselineDoc& doc : docs) {
        const JsonValue* bench = doc.doc.at("benches").find(id);
        const JsonValue* summary =
            bench != nullptr && bench->find("metrics") != nullptr
                ? bench->at("metrics").find(metric)
                : nullptr;
        if (summary == nullptr) {
          ++missing;
          continue;
        }
        TrendPoint point;
        point.label = doc.label;
        point.generated = doc.generated;
        const JsonValue* n = summary->find("n");
        point.n = n != nullptr ? static_cast<std::size_t>(n->as_int(
                                     "bench report: " + metric + " n"))
                               : 0;
        point.median = summary->at("median").as_number();
        point.mad = summary->at("mad").as_number();
        point.ci95_lo = optional_number(*summary, "ci95_lo");
        point.ci95_hi = optional_number(*summary, "ci95_hi");
        series.points.push_back(point);
      }
      if (missing > 0 && !series.points.empty()) {
        report.notes.push_back("'" + id + "." + metric + "' present in only " +
                               std::to_string(series.points.size()) + " of " +
                               std::to_string(docs.size()) + " baselines");
      }
      if (series.points.size() < 2) continue;

      const TrendPoint& first = series.points.front();
      const double resolution = metric_resolution(metric);
      std::vector<double> medians;
      for (TrendPoint& point : series.points) {
        point.excess = point.median - first.median;
        point.band = std::max({options.k_mad * std::max(point.mad, first.mad),
                               options.min_rel * std::fabs(first.median),
                               resolution});
        point.beyond_band = std::fabs(point.excess) > point.band;
        medians.push_back(point.median);
      }
      series.slope = theil_sen_slope(medians);

      // Sustained drift: every one of the last `window` points beyond the
      // band on the same side.  The first point is its own reference and
      // can never drift, so the window is capped at n-1.
      const std::size_t window =
          std::min(options.window, series.points.size() - 1);
      bool all_above = true;
      bool all_below = true;
      for (std::size_t i = series.points.size() - window;
           i < series.points.size(); ++i) {
        const TrendPoint& point = series.points[i];
        all_above = all_above && point.excess > point.band;
        all_below = all_below && point.excess < -point.band;
      }
      series.drift_regression = all_above;
      series.drift_improvement = all_below;
      report.series.push_back(std::move(series));
    }
  }
  return report;
}

std::string trend_markdown(const TrendReport& report,
                           const TrendOptions& options) {
  std::ostringstream os;
  os << "## Perf trajectory";
  if (!report.suite.empty()) os << " — suite `" << report.suite << "`";
  os << "\n\n";
  os << report.labels.size() << " baselines, oldest first: ";
  for (std::size_t i = 0; i < report.labels.size(); ++i) {
    os << (i == 0 ? "`" : ", `") << report.labels[i] << "`";
  }
  os << ".\nDrift gate: the last " << options.window
     << " baseline(s) beyond max(" << options.k_mad << "×MAD, "
     << options.min_rel * 100.0
     << "%, metric resolution) of the first baseline.\n";

  std::string current_metric;
  for (const TrendSeries& series : report.series) {
    if (series.metric != current_metric) {
      current_metric = series.metric;
      os << "\n### `" << current_metric << "`\n\n";
      os << "| bench |";
      for (const std::string& label : report.labels) os << " " << label << " |";
      os << " slope/step | verdict |\n";
      os << "|---|";
      for (std::size_t i = 0; i < report.labels.size(); ++i) os << "---|";
      os << "---|---|\n";
    }
    os << "| " << series.bench << " |";
    std::size_t next = 0;
    for (const std::string& label : report.labels) {
      if (next < series.points.size() && series.points[next].label == label) {
        const TrendPoint& point = series.points[next];
        os << " " << util::format_sci(point.median, 3);
        if (next > 0) {
          os << " (" << rel_pct(point.excess, series.points.front().median)
             << ")";
        }
        if (point.beyond_band && next > 0) os << " ‡";
        ++next;
      } else {
        os << " –";
      }
      os << " |";
    }
    os << " " << util::format_sci(series.slope, 2) << " | "
       << series.verdict() << " |\n";
  }
  os << "\n‡ beyond the noise band around the first baseline.\n";
  if (!report.notes.empty()) {
    os << "\n";
    for (const std::string& note : report.notes) {
      os << "- note: " << note << "\n";
    }
  }
  return os.str();
}

std::string regression_line(const TrendSeries& series) {
  const TrendPoint& base = series.points.front();
  const TrendPoint& last = series.points.back();
  const std::string change =
      base.median == 0.0 ? "n/a" : rel_pct(last.excess, base.median);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                " %s (median %.6g -> %.6g, excess %.3g > band %.3g)",
                change.c_str(), base.median, last.median, last.excess,
                last.band);
  return "REGRESSION: " + series.bench + " " + series.metric + buf;
}

}  // namespace cts::obs
