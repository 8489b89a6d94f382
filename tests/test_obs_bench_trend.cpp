// Perf-trajectory analysis across BENCH_*.json baselines: schema checks,
// ordering, Theil-Sen slopes, sustained-drift gating (not
// last-vs-previous), the two-point window-1 gate cts_benchd --compare
// runs (CompareBench, plus exact band-edge ties and the per-metric
// resolution floors), and the markdown renderer.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "cts/obs/bench_trend.hpp"
#include "cts/util/error.hpp"

namespace obs = cts::obs;

namespace {

/// A minimal cts.bench.v1 document with one bench and a full wall_s
/// summary block (the trend builder reads n/median/mad/ci95_lo/ci95_hi).
std::string doc(const std::string& generated, double median, double mad) {
  return std::string(R"({"schema":"cts.bench.v1","suite":"smoke",)") +
         R"("generated":")" + generated + R"(","benches":{"fig9":)" +
         R"({"metrics":{"wall_s":{"n":5,"median":)" + std::to_string(median) +
         R"(,"mad":)" + std::to_string(mad) +
         R"(,"ci95_lo":0.9,"ci95_hi":1.1}}}}})";
}

/// The summary shape the cts_benchd --compare fixtures use: median and
/// mad only (n and the CI are display-only, so they may be absent).
/// Printed with %.17g so band-edge ties survive the JSON round trip.
std::string bare_doc(double median, double mad,
                     const std::string& metric = "wall_s") {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                R"({"schema":"cts.bench.v1","benches":{"fig9":)"
                R"({"metrics":{"%s":{"median":%.17g,"mad":%.17g}}}}})",
                metric.c_str(), median, mad);
  return buf;
}

/// The two-point, window-1 gate of `candidate` against `baseline`.
obs::TrendReport gate(const std::string& baseline,
                      const std::string& candidate,
                      obs::TrendOptions options = {}) {
  options.window = 1;
  return obs::build_trend({obs::parse_baseline("base.json", baseline),
                           obs::parse_baseline("cand.json", candidate)},
                          options);
}

std::vector<obs::BaselineDoc> chain(const std::vector<double>& medians,
                                    double mad = 0.01) {
  std::vector<obs::BaselineDoc> docs;
  for (std::size_t i = 0; i < medians.size(); ++i) {
    const std::string date = "2026-08-0" + std::to_string(i + 1);
    docs.push_back(
        obs::parse_baseline("BENCH_" + date + ".json", doc(date, medians[i], mad)));
  }
  return docs;
}

TEST(RequireBenchSchema, AcceptsAndRejects) {
  EXPECT_NO_THROW(obs::require_bench_schema(obs::json_parse(doc("d", 1, 0.1))));
  EXPECT_THROW(obs::require_bench_schema(obs::json_parse("[1,2]")),
               cts::util::InvalidArgument);
  EXPECT_THROW(obs::require_bench_schema(
                   obs::json_parse(R"({"schema":"other.v9","benches":{}})")),
               cts::util::InvalidArgument);
  EXPECT_THROW(obs::require_bench_schema(
                   obs::json_parse(R"({"schema":"cts.bench.v1"})")),
               cts::util::InvalidArgument);
}

TEST(ParseBaseline, ExtractsLabelSuiteAndDate) {
  const obs::BaselineDoc b =
      obs::parse_baseline("perf/BENCH_2026-08-05.json",
                          doc("2026-08-05", 1.0, 0.01));
  EXPECT_EQ(b.label, "BENCH_2026-08-05");
  EXPECT_EQ(b.suite, "smoke");
  EXPECT_EQ(b.generated, "2026-08-05");
}

TEST(ParseBaseline, RejectsInvalidJsonAndWrongSchema) {
  EXPECT_THROW(obs::parse_baseline("x.json", "{nope"),
               cts::util::InvalidArgument);
  // A document without a "schema" field must not be best-effort parsed.
  EXPECT_THROW(obs::parse_baseline("x.json", R"({"benches":{}})"),
               cts::util::InvalidArgument);
  try {
    obs::parse_baseline("x.json", R"({"schema":"cts.perf.v1","benches":{}})");
    FAIL() << "unknown schema must throw";
  } catch (const cts::util::InvalidArgument& e) {
    // The message must name the offending schema so the fix is obvious.
    EXPECT_NE(std::string(e.what()).find("cts.perf.v1"), std::string::npos);
  }
}

TEST(ParseBaseline, ReadsTheScaleAsSortedPairs) {
  const obs::BaselineDoc scaled = obs::parse_baseline(
      "x.json", R"({"schema":"cts.bench.v1","benches":{},)"
                R"("scale":{"repro_reps":2,"repro_frames":2000}})");
  EXPECT_EQ(scaled.scale, "repro_frames=2000 repro_reps=2");
  EXPECT_EQ(obs::parse_baseline("y.json", bare_doc(1.0, 0.1)).scale, "");
  EXPECT_THROW(obs::parse_baseline(
                   "z.json", R"({"schema":"cts.bench.v1","benches":{},)"
                             R"("scale":{"repro_reps":"two"}})"),
               cts::util::InvalidArgument);
}

TEST(SortBaselines, OrdersByDateThenLabel) {
  std::vector<obs::BaselineDoc> docs;
  docs.push_back(obs::parse_baseline("b2.json", doc("2026-08-02", 1, 0.01)));
  docs.push_back(obs::parse_baseline("a1.json", doc("2026-08-01", 1, 0.01)));
  docs.push_back(obs::parse_baseline("a2.json", doc("2026-08-02", 1, 0.01)));
  obs::sort_baselines(docs);
  EXPECT_EQ(docs[0].label, "a1");
  EXPECT_EQ(docs[1].label, "a2");
  EXPECT_EQ(docs[2].label, "b2");
}

TEST(TheilSen, ExactOnLinearSeriesRobustToOutlier) {
  EXPECT_DOUBLE_EQ(obs::theil_sen_slope({1.0, 2.0, 3.0, 4.0}), 1.0);
  // One wild outlier must not drag the slope (an OLS fit would).
  EXPECT_NEAR(obs::theil_sen_slope({1.0, 2.0, 100.0, 4.0, 5.0}), 1.0, 0.5);
  EXPECT_DOUBLE_EQ(obs::theil_sen_slope({42.0}), 0.0);
}

TEST(BuildTrend, NeedsTwoBaselines) {
  EXPECT_THROW(obs::build_trend(chain({1.0})), cts::util::InvalidArgument);
}

TEST(BuildTrend, StableSeriesIsOk) {
  const obs::TrendReport report = obs::build_trend(chain({1.0, 1.001, 0.999}));
  ASSERT_EQ(report.series.size(), 1u);
  EXPECT_EQ(report.series[0].verdict(), "ok");
  EXPECT_FALSE(report.has_drift());
}

TEST(BuildTrend, SustainedDriftTripsTheGate) {
  // Last two points both +50% over the first with tiny MAD: sustained.
  const obs::TrendReport report =
      obs::build_trend(chain({1.0, 1.0, 1.5, 1.55}));
  ASSERT_EQ(report.series.size(), 1u);
  EXPECT_TRUE(report.series[0].drift_regression);
  EXPECT_EQ(report.series[0].verdict(), "DRIFT");
  EXPECT_TRUE(report.has_drift());
  EXPECT_GT(report.series[0].slope, 0.0);
}

TEST(BuildTrend, SingleSpikeIsNotSustainedDrift) {
  // Only the LAST point is beyond the band; the default window of 2
  // requires the previous point to be out too — one noisy baseline must
  // not page anyone.
  const obs::TrendReport report =
      obs::build_trend(chain({1.0, 1.0, 1.0, 1.5}));
  ASSERT_EQ(report.series.size(), 1u);
  EXPECT_FALSE(report.series[0].drift_regression);
  EXPECT_TRUE(report.series[0].points.back().beyond_band);
  EXPECT_FALSE(report.has_drift());
}

TEST(BuildTrend, ImprovementIsReportedButNeverGates) {
  const obs::TrendReport report =
      obs::build_trend(chain({1.0, 1.0, 0.5, 0.45}));
  ASSERT_EQ(report.series.size(), 1u);
  EXPECT_TRUE(report.series[0].drift_improvement);
  EXPECT_EQ(report.series[0].verdict(), "improvement");
  EXPECT_FALSE(report.has_drift());
}

TEST(BuildTrend, DriftWithinNoiseBandStaysQuiet) {
  // +8% everywhere but MAD 0.1 -> 3*MAD = 0.3 band: not significant.
  const obs::TrendReport report =
      obs::build_trend(chain({1.0, 1.08, 1.08}, 0.1));
  ASSERT_EQ(report.series.size(), 1u);
  EXPECT_EQ(report.series[0].verdict(), "ok");

  // Two points, window 1 (the cts_benchd --compare gate): exact band-edge
  // ties sit inside the band, in both directions:
  // delta == 3 x MAD (0.375), delta == 5% of a median of 20 (1.0), and a
  // zero baseline median, where only the MAD gate is left.
  for (const auto& [base, mad, delta] :
       {std::tuple{1.0, 0.125, 0.375}, std::tuple{20.0, 0.0001, 1.0},
        std::tuple{0.0, 0.125, 0.375}}) {
    SCOPED_TRACE(base);
    for (const double sign : {1.0, -1.0}) {
      const obs::TrendReport tie =
          gate(bare_doc(base, mad), bare_doc(base + sign * delta, mad));
      ASSERT_EQ(tie.series.size(), 1u);
      EXPECT_DOUBLE_EQ(tie.series[0].points[1].band, delta);
      EXPECT_EQ(tie.series[0].verdict(), "ok");
    }
  }
  // One step past the zero-median MAD edge drifts.
  EXPECT_TRUE(gate(bare_doc(0.0, 0.125), bare_doc(0.5, 0.125)).has_drift());
}

TEST(BuildTrend, BenchMissingFromSomeBaselinesIsNoted) {
  std::vector<obs::BaselineDoc> docs = chain({1.0, 1.0});
  docs.push_back(obs::parse_baseline(
      "BENCH_2026-08-03.json",
      R"({"schema":"cts.bench.v1","suite":"smoke","generated":"2026-08-03",)"
      R"("benches":{"table1":{"metrics":{"wall_s":)"
      R"({"n":5,"median":2.0,"mad":0.01,"ci95_lo":1.9,"ci95_hi":2.1}}}}})"));
  const obs::TrendReport report = obs::build_trend(docs);
  // fig9 appears in 2 of 3 baselines -> still a series, plus a note;
  // table1 appears once -> no series at all.
  ASSERT_EQ(report.series.size(), 1u);
  EXPECT_EQ(report.series[0].bench, "fig9");
  ASSERT_EQ(report.notes.size(), 2u);
  EXPECT_NE(report.notes[0].find("fig9"), std::string::npos);
  EXPECT_NE(report.notes[1].find("table1"), std::string::npos);
}

// CompareBench: one baseline document against one candidate, through the
// two-point, window-1 gate that cts_benchd --compare and the offline
// `cts_benchd trend --gate --window=1 A B` run.  A regression trips only when
// a metric moves beyond BOTH the k x MAD gate and the relative gate, in
// the worse direction.

TEST(CompareBench, IdenticalFilesHaveNoRegression) {
  const obs::TrendReport same = gate(bare_doc(1.0, 0.05), bare_doc(1.0, 0.05));
  ASSERT_EQ(same.series.size(), 1u);
  EXPECT_EQ(same.series[0].verdict(), "ok");
  EXPECT_FALSE(same.has_drift());
  EXPECT_DOUBLE_EQ(same.series[0].points[1].excess, 0.0);
  // n and the CI are optional; absent, they read as zero.
  EXPECT_EQ(same.series[0].points[1].n, 0u);
  EXPECT_DOUBLE_EQ(same.series[0].points[1].ci95_hi, 0.0);
}

TEST(CompareBench, RegressionBeyondBothGates) {
  // +50% with MAD 0.05: delta 0.5 > 3*0.05 and > 5% -> regression.
  const obs::TrendReport pair = gate(bare_doc(1.0, 0.05), bare_doc(1.5, 0.05));
  ASSERT_EQ(pair.series.size(), 1u);
  EXPECT_TRUE(pair.series[0].drift_regression);
  EXPECT_TRUE(pair.has_drift());
  EXPECT_NEAR(pair.series[0].points[1].excess, 0.5, 1e-12);
}

TEST(CompareBench, NoiseWithinMadGateStaysQuiet) {
  // +8% relative but within 3 x MAD (MAD 0.1 -> gate 0.3): not significant.
  EXPECT_FALSE(gate(bare_doc(1.0, 0.1), bare_doc(1.08, 0.1)).has_drift());
}

TEST(CompareBench, SmallRelativeChangeStaysQuietEvenWithTinyMad) {
  // +2% with near-zero MAD: trips the MAD gate but not the 5% gate.
  const obs::TrendReport small =
      gate(bare_doc(1.0, 0.0001), bare_doc(1.02, 0.0001));
  ASSERT_EQ(small.series.size(), 1u);
  EXPECT_FALSE(small.has_drift());
  EXPECT_FALSE(small.series[0].points[1].beyond_band);
}

TEST(CompareBench, ImprovementNeverFails) {
  const obs::TrendReport pair = gate(bare_doc(1.5, 0.05), bare_doc(1.0, 0.05));
  ASSERT_EQ(pair.series.size(), 1u);
  EXPECT_TRUE(pair.series[0].drift_improvement);
  EXPECT_FALSE(pair.has_drift());
}

TEST(CompareBench, ThresholdsAreConfigurable) {
  // +8% within default gates becomes a regression at k=0.5, pct=2%.
  obs::TrendOptions tight;
  tight.k_mad = 0.5;
  tight.min_rel = 0.02;
  EXPECT_TRUE(gate(bare_doc(1.0, 0.1), bare_doc(1.08, 0.1), tight).has_drift());
}

TEST(CompareBench, SysTimeIsInformationalByDefault) {
  // A 10x sys_s blow-up at the tens-of-milliseconds scale is kernel noise
  // on small benches: it is outside the default metric list, so it never
  // gates.  Naming it in an explicit metric list restores gating.
  const std::string baseline = bare_doc(0.01, 0.001, "sys_s");
  const std::string candidate = bare_doc(0.1, 0.001, "sys_s");
  const obs::TrendReport report = gate(baseline, candidate);
  EXPECT_TRUE(report.series.empty());
  EXPECT_FALSE(report.has_drift());
  obs::TrendOptions gate_sys;
  gate_sys.metrics = {"sys_s"};
  EXPECT_TRUE(gate(baseline, candidate, gate_sys).has_drift());
}

TEST(CompareBench, MissingBenchesAreNotedNotFatal) {
  const obs::TrendReport pair = gate(
      R"({"schema":"cts.bench.v1","benches":{)"
      R"("fig9":{"metrics":{"wall_s":{"median":1.0,"mad":0.1}}},)"
      R"("table1":{"metrics":{"wall_s":{"median":0.5,"mad":0.01}}}}})",
      bare_doc(1.0, 0.1));
  EXPECT_FALSE(pair.has_drift());
  ASSERT_EQ(pair.series.size(), 1u);
  ASSERT_EQ(pair.notes.size(), 1u);
  EXPECT_NE(pair.notes[0].find("table1"), std::string::npos);
}

TEST(CompareBench, DefaultMetricsAreWallUserAndRss) {
  EXPECT_EQ(obs::TrendOptions{}.metrics,
            (std::vector<std::string>{"wall_s", "user_s", "max_rss_kb"}));
}

TEST(CompareBench, CpuTickOnAZeroBaselineIsNotARegression) {
  // table1 of the 2026-10-17 smoke baseline: user_s median 0 with MAD 0 (the
  // kernel put the whole sub-millisecond run in sys_s), then 0.336 ms in
  // the next run.  Under one tick of CPU accounting this is not a change.
  const obs::TrendReport pair = gate(bare_doc(0.0, 0.0, "user_s"),
                                     bare_doc(0.000336, 0.00005, "user_s"));
  ASSERT_EQ(pair.series.size(), 1u);
  EXPECT_FALSE(pair.has_drift());
  EXPECT_DOUBLE_EQ(pair.series[0].points[1].band,
                   obs::metric_resolution("user_s"));
  // A whole tick-sized jump of the same zero median still gates, and its
  // line reads n/a: no relative change exists against a zero median.
  const obs::TrendReport jump = gate(bare_doc(0.0, 0.0, "user_s"),
                                     bare_doc(0.01, 0.0002, "user_s"));
  ASSERT_TRUE(jump.has_drift());
  const std::string line = obs::regression_line(jump.series[0]);
  EXPECT_EQ(line.rfind("REGRESSION: fig9 user_s n/a (median 0 -> 0.01", 0), 0u)
      << line;
}

TEST(CompareBench, TwentyPercentStepOnATenMillisecondBenchIsFlagged) {
  // A 10 ms bench with realistic spread (the cacd and fig5 rows of the
  // committed baselines): +20% on each gated metric is a regression.
  for (const auto& [metric, median, mad] :
       {std::tuple{"wall_s", 0.010, 0.0002}, std::tuple{"user_s", 0.010, 0.0003},
        std::tuple{"max_rss_kb", 5600.0, 16.0}}) {
    SCOPED_TRACE(metric);
    const obs::TrendReport pair =
        gate(bare_doc(median, mad, metric), bare_doc(median * 1.2, mad, metric));
    ASSERT_EQ(pair.series.size(), 1u);
    EXPECT_TRUE(pair.has_drift());
    EXPECT_EQ(obs::regression_line(pair.series[0]).find(
                  std::string("REGRESSION: fig9 ") + metric + " +20.0% "),
              0u)
        << obs::regression_line(pair.series[0]);
  }
}

TEST(CompareBench, ResolutionFloorsAreKeyedByMetric) {
  EXPECT_DOUBLE_EQ(obs::metric_resolution("user_s"), 1e-3);
  EXPECT_DOUBLE_EQ(obs::metric_resolution("max_rss_kb"), 4.0);
  // A metric the table does not know keeps the generic floor.
  EXPECT_DOUBLE_EQ(obs::metric_resolution("cycles"), 1e-4);
}

TEST(TrendRenderers, MarkdownCarriesTheSeries) {
  const obs::TrendReport report =
      obs::build_trend(chain({1.0, 1.0, 1.5, 1.55}));

  const std::string md = obs::trend_markdown(report);
  EXPECT_NE(md.find("| fig9 |"), std::string::npos);
  EXPECT_NE(md.find("DRIFT"), std::string::npos);
  EXPECT_NE(md.find("‡"), std::string::npos);  // beyond-band marker
}

}  // namespace
