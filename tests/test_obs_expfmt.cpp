#include "cts/obs/expfmt.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace obs = cts::obs;

namespace {

std::string render(const obs::MetricsShard& shard,
                   const obs::OpenMetricsOptions& opts = {}) {
  std::ostringstream os;
  obs::write_openmetrics(os, shard, opts);
  return os.str();
}

void expect_valid(const std::string& text) {
  const std::vector<std::string> errors = obs::validate_openmetrics(text);
  EXPECT_TRUE(errors.empty()) << "first error: "
                              << (errors.empty() ? "" : errors.front())
                              << "\n--- text ---\n"
                              << text;
}

TEST(OpenMetricsName, SanitizesCharset) {
  EXPECT_EQ(obs::openmetrics_name("shardd.job_wall_ms"),
            "shardd_job_wall_ms");
  EXPECT_EQ(obs::openmetrics_name("a-b c/d"), "a_b_c_d");
  EXPECT_EQ(obs::openmetrics_name("ns:ok"), "ns:ok");
  EXPECT_EQ(obs::openmetrics_name("9lives"), "_9lives");
  EXPECT_EQ(obs::openmetrics_name(""), "_");
}

TEST(OpenMetricsName, LabelEscape) {
  EXPECT_EQ(obs::openmetrics_label_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(OpenMetrics, EmptyShardIsJustEof) {
  obs::MetricsShard shard;
  const std::string text = render(shard);
  EXPECT_EQ(text, "# EOF\n");
  expect_valid(text);
}

TEST(OpenMetrics, RendersEverySectionAndValidates) {
  obs::MetricsShard shard;
  shard.add("jobs.ok", 7);
  shard.add_sum("cells.total", 123.5);
  shard.gauge("queue.depth", 42.0, obs::GaugeMode::kMax);
  for (double v : {1.0, 2.0, 3.0, 400.0}) shard.observe_log("rpc.ms", v);

  const std::string text = render(shard);
  expect_valid(text);

  EXPECT_NE(text.find("# TYPE jobs_ok counter\n"), std::string::npos);
  EXPECT_NE(text.find("jobs_ok_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cells_total gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("queue_depth 42\n"), std::string::npos);
  EXPECT_EQ(text.find(" histogram\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE rpc_ms summary\n"), std::string::npos);
  EXPECT_NE(text.find("rpc_ms{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("rpc_ms{quantile=\"0.999\"}"), std::string::npos);
  EXPECT_NE(text.find("rpc_ms_count 4\n"), std::string::npos);
  // Terminator is last.
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);
}

TEST(OpenMetrics, ConstantLabelsOnEverySample) {
  obs::MetricsShard shard;
  shard.add("jobs", 1);
  for (double v : {1.0, 2.0}) shard.observe_log("wall_ms", v);
  obs::OpenMetricsOptions opts;
  opts.labels = {{"worker", "w\"1"}};
  const std::string text = render(shard, opts);
  expect_valid(text);
  EXPECT_NE(text.find("jobs_total{worker=\"w\\\"1\"} 1\n"),
            std::string::npos);
  // Quantile samples merge the constant labels with quantile.
  EXPECT_NE(text.find("wall_ms{worker=\"w\\\"1\",quantile=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(text.find("wall_ms_count{worker=\"w\\\"1\"} 2\n"),
            std::string::npos);
}

// A counter and a gauge whose names sanitize alike: the later family gets
// a `_` suffix so no family is declared twice.
TEST(OpenMetrics, CollidingFamilySuffixed) {
  obs::MetricsShard shard;
  shard.add("job.depth", 1);
  shard.gauge("job_depth", 2.0);
  const std::string text = render(shard);
  expect_valid(text);
  EXPECT_NE(text.find("# TYPE job_depth counter\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE job_depth_ gauge\n"), std::string::npos);
  EXPECT_NE(text.find("job_depth_ 2\n"), std::string::npos);
}

TEST(OpenMetricsValidate, CatchesMissingEof) {
  const auto errors = obs::validate_openmetrics(
      "# TYPE a counter\na_total 1\n");
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.back().find("EOF"), std::string::npos);
}

TEST(OpenMetricsValidate, CatchesUndeclaredFamily) {
  const auto errors = obs::validate_openmetrics("a_total 1\n# EOF\n");
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("no preceding # TYPE"), std::string::npos);
}

TEST(OpenMetricsValidate, CatchesDuplicateTypeAndSample) {
  const auto errors = obs::validate_openmetrics(
      "# TYPE a counter\n# TYPE a counter\na_total 1\na_total 1\n# EOF\n");
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_NE(errors[0].find("declared twice"), std::string::npos);
  EXPECT_NE(errors[1].find("duplicate sample"), std::string::npos);
}

TEST(OpenMetricsValidate, CatchesNonCumulativeBuckets) {
  const auto errors = obs::validate_openmetrics(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 5\n"
      "h_bucket{le=\"2\"} 3\n"
      "h_bucket{le=\"+Inf\"} 6\n"
      "h_count 6\n"
      "h_sum 1\n"
      "# EOF\n");
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("not cumulative"), std::string::npos);
}

TEST(OpenMetricsValidate, CatchesMissingInfBucketAndCountMismatch) {
  auto errors = obs::validate_openmetrics(
      "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_count 5\n# EOF\n");
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("+Inf"), std::string::npos);

  errors = obs::validate_openmetrics(
      "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_count 6\n# EOF\n");
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("!= _count"), std::string::npos);
}

TEST(OpenMetricsValidate, CatchesSummaryWithoutQuantiles) {
  const auto errors = obs::validate_openmetrics(
      "# TYPE s summary\ns_count 3\ns_sum 1.5\n# EOF\n");
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("no quantile samples"), std::string::npos);
}

TEST(OpenMetricsValidate, CatchesQuantileOutOfRange) {
  const auto errors = obs::validate_openmetrics(
      "# TYPE s summary\ns{quantile=\"1.5\"} 2\n# EOF\n");
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("outside [0, 1]"), std::string::npos);
}

TEST(OpenMetricsValidate, CatchesGarbageValueAndContentAfterEof) {
  auto errors = obs::validate_openmetrics(
      "# TYPE g gauge\ng pancake\n# EOF\n");
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("unparseable sample value"),
            std::string::npos);

  errors = obs::validate_openmetrics("# EOF\n# TYPE g gauge\n");
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("after '# EOF'"), std::string::npos);
}

TEST(OpenMetricsValidate, AcceptsInfNanAndTimestamps) {
  expect_valid(
      "# TYPE g gauge\n"
      "g{host=\"a\"} +Inf 1700000000\n"
      "g{host=\"b\"} NaN\n"
      "# EOF\n");
}

}  // namespace
