#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include "cts/obs/json.hpp"
#include "cts/obs/metrics.hpp"
#include "cts/util/error.hpp"

namespace obs = cts::obs;

namespace {

constexpr double kAlpha = obs::LogHistogramCell::kRelativeAccuracy;

// Exact sample quantile with the matching-rank convention the cell
// documents: sorted[ceil(q * n) - 1] (0-based).
double exact_quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  if (rank == 0) rank = 1;
  return xs[rank - 1];
}

TEST(LogHistogram, EmptyPercentileIsZero) {
  obs::LogHistogramCell h;
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_EQ(h.stats().count(), 0u);
}

TEST(LogHistogram, SingleValueAllPercentilesWithinAccuracy) {
  obs::LogHistogramCell h;
  h.observe(12.5);
  for (const double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_NEAR(h.percentile(q), 12.5, 12.5 * kAlpha) << q;
  }
}

// The documented guarantee: every percentile of every (positive)
// distribution within 2% relative error of the exact sample quantile.
// Log-normal latencies are the adversarial case for fixed-edge
// histograms — the tail spans orders of magnitude.
TEST(LogHistogram, PercentilesWithinTwoPercentOfExactLogNormal) {
  std::mt19937_64 rng(20260807);
  std::lognormal_distribution<double> lat(1.5, 1.2);
  obs::LogHistogramCell h;
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) {
    const double v = lat(rng);
    xs.push_back(v);
    h.observe(v);
  }
  for (const double q : {0.01, 0.10, 0.50, 0.90, 0.95, 0.99, 0.999}) {
    const double exact = exact_quantile(xs, q);
    const double est = h.percentile(q);
    EXPECT_LE(std::abs(est - exact) / exact, 0.0201)
        << "q=" << q << " exact=" << exact << " est=" << est;
  }
}

TEST(LogHistogram, PercentilesWithinTwoPercentOfExactUniform) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> lat(0.05, 900.0);
  obs::LogHistogramCell h;
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) {
    const double v = lat(rng);
    xs.push_back(v);
    h.observe(v);
  }
  for (const double q : {0.05, 0.50, 0.95, 0.99}) {
    const double exact = exact_quantile(xs, q);
    EXPECT_LE(std::abs(h.percentile(q) - exact) / exact, 0.0201) << q;
  }
}

TEST(LogHistogram, ZeroAndNegativeObservationsLandInZeroBucket) {
  obs::LogHistogramCell h;
  h.observe(0.0);
  h.observe(-3.0);
  h.observe(10.0);
  EXPECT_EQ(h.zero_count(), 2u);
  EXPECT_EQ(h.stats().count(), 3u);
  // Ranks 1 and 2 are the non-positive observations; rank 3 is 10.
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_NEAR(h.percentile(1.0), 10.0, 10.0 * kAlpha);
}

// Merging shards must be lossless: merged percentiles/buckets identical to
// a single cell fed the union of the observations.
TEST(LogHistogram, MergeIsLossless) {
  std::mt19937_64 rng(99);
  std::lognormal_distribution<double> lat(0.0, 2.0);
  obs::LogHistogramCell whole, a, b;
  for (int i = 0; i < 4000; ++i) {
    const double v = lat(rng);
    whole.observe(v);
    (i % 2 == 0 ? a : b).observe(v);
  }
  a.merge(b);
  EXPECT_EQ(a.buckets(), whole.buckets());
  EXPECT_EQ(a.zero_count(), whole.zero_count());
  EXPECT_EQ(a.stats().count(), whole.stats().count());
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.percentile(q), whole.percentile(q)) << q;
  }
}

TEST(LogHistogram, MergeFromEmptyIsNoop) {
  obs::LogHistogramCell h, empty;
  h.observe(5.0);
  h.merge(empty);
  EXPECT_EQ(h.stats().count(), 1u);
}

TEST(LogHistogram, ShardRegistryRoundTrip) {
  obs::MetricsShard shard;
  std::mt19937_64 rng(41);
  std::lognormal_distribution<double> lat(2.0, 0.7);
  for (int i = 0; i < 1000; ++i) shard.observe_log("rpc.ms", lat(rng));
  shard.observe_log("rpc.ms", 0.0);

  obs::MetricsRegistry reg;
  reg.merge(shard);
  obs::LogHistogramCell cell;
  ASSERT_TRUE(reg.log_histogram("rpc.ms", &cell));
  EXPECT_FALSE(reg.log_histogram("missing", nullptr));
  EXPECT_EQ(cell.stats().count(), 1001u);
  EXPECT_EQ(cell.buckets(), shard.log_histograms().at("rpc.ms").buckets());
}

// Snapshot JSON round-trip must preserve the full merge state — a cell
// restored on another process merges exactly like the original.
TEST(LogHistogram, SnapshotJsonRoundTripIsExact) {
  obs::MetricsShard shard;
  std::mt19937_64 rng(5);
  std::lognormal_distribution<double> lat(1.0, 1.5);
  for (int i = 0; i < 3000; ++i) shard.observe_log("svc.ms", lat(rng));
  shard.observe_log("svc.ms", -1.0);
  shard.add("jobs", 3);

  std::ostringstream os;
  obs::JsonWriter w(os);
  obs::write_metrics_snapshot(w, shard);
  const obs::JsonValue doc = obs::json_parse(os.str());
  EXPECT_EQ(doc.at("log_histograms").at("svc.ms").at("gamma").as_number(),
            obs::LogHistogramCell::kGamma);
  const obs::MetricsShard back = obs::metrics_snapshot_from_json(doc);

  const obs::LogHistogramCell& orig = shard.log_histograms().at("svc.ms");
  const obs::LogHistogramCell& rest = back.log_histograms().at("svc.ms");
  EXPECT_EQ(rest.zero_count(), orig.zero_count());
  EXPECT_EQ(rest.buckets(), orig.buckets());
  EXPECT_EQ(rest.stats().count(), orig.stats().count());
  EXPECT_DOUBLE_EQ(rest.stats().mean(), orig.stats().mean());
  EXPECT_DOUBLE_EQ(rest.stats().m2(), orig.stats().m2());
  EXPECT_DOUBLE_EQ(rest.stats().min(), orig.stats().min());
  EXPECT_DOUBLE_EQ(rest.stats().max(), orig.stats().max());
  for (const double q : {0.5, 0.99, 0.999}) {
    EXPECT_DOUBLE_EQ(rest.percentile(q), orig.percentile(q)) << q;
  }

  // A restored cell must merge with a live one.
  obs::LogHistogramCell live;
  live.observe(4.2);
  obs::LogHistogramCell merged = rest;
  EXPECT_NO_THROW(merged.merge(live));
  EXPECT_EQ(merged.stats().count(), orig.stats().count() + 1);
}

// Non-finite values are refused: +inf has no bucket index (the cast of
// its log overflows int32), and NaN or inf would poison the mean.  They
// leave the cell as it was, and its snapshot still parses.
TEST(LogHistogram, NonFiniteObservationsAreRefused) {
  obs::MetricsShard shard;
  shard.observe_log("svc.ms", 2.0);
  shard.observe_log("svc.ms", std::numeric_limits<double>::infinity());
  shard.observe_log("svc.ms", -std::numeric_limits<double>::infinity());
  shard.observe_log("svc.ms", std::numeric_limits<double>::quiet_NaN());
  shard.observe_log("svc.ms", 4.0);

  const obs::LogHistogramCell& cell = shard.log_histograms().at("svc.ms");
  EXPECT_EQ(cell.stats().count(), 2u);
  EXPECT_EQ(cell.zero_count(), 0u);
  EXPECT_DOUBLE_EQ(cell.stats().mean(), 3.0);
  EXPECT_DOUBLE_EQ(cell.stats().max(), 4.0);

  std::ostringstream os;
  obs::JsonWriter w(os);
  obs::write_metrics_snapshot(w, shard);
  const obs::MetricsShard back =
      obs::metrics_snapshot_from_json(obs::json_parse(os.str()));
  const obs::LogHistogramCell& rest = back.log_histograms().at("svc.ms");
  EXPECT_EQ(rest.stats().count(), 2u);
  EXPECT_EQ(rest.buckets(), cell.buckets());
  EXPECT_DOUBLE_EQ(rest.percentile(1.0), cell.percentile(1.0));
}

// The section is written even when empty, and a snapshot without it is
// refused like one without counters.
TEST(LogHistogram, SnapshotSectionIsAlwaysWrittenAndRequired) {
  obs::MetricsShard shard;
  shard.add("jobs", 1);
  std::ostringstream os;
  obs::JsonWriter w(os);
  obs::write_metrics_snapshot(w, shard);
  EXPECT_NE(os.str().find("\"log_histograms\":{}"), std::string::npos);
  const obs::MetricsShard back =
      obs::metrics_snapshot_from_json(obs::json_parse(os.str()));
  EXPECT_TRUE(back.log_histograms().empty());
  EXPECT_EQ(back.counters().at("jobs"), 1u);
  EXPECT_THROW(obs::metrics_snapshot_from_json(obs::json_parse(
                   R"({"counters":{},"sums":{},"gauges":{}})")),
               cts::util::InvalidArgument);

  obs::MetricsRegistry reg;
  std::ostringstream report;
  reg.write_json(report);
  EXPECT_NE(report.str().find("\"log_histograms\":{}"), std::string::npos);
}

TEST(LogHistogram, RegistryWriteJsonEmitsPercentileSection) {
  obs::MetricsRegistry reg;
  reg.observe_log("rpc.ms", 10.0);
  reg.observe_log("rpc.ms", 20.0);
  std::ostringstream os;
  reg.write_json(os);
  const obs::JsonValue doc = obs::json_parse(os.str());
  const obs::JsonValue& h = doc.at("log_histograms").at("rpc.ms");
  EXPECT_EQ(h.at("count").as_number(), 2.0);
  EXPECT_NEAR(h.at("p50").as_number(), 10.0, 10.0 * 0.02);
  EXPECT_NEAR(h.at("p99").as_number(), 20.0, 20.0 * 0.02);
}

TEST(LogHistogram, FromStateRejectsBadGamma) {
  EXPECT_THROW(obs::LogHistogramCell::from_state(
                   1.0, 0, {}, cts::util::MomentAccumulator()),
               cts::util::InvalidArgument);
  // A valid base of another accuracy (1%) is refused too: its buckets
  // cannot merge with this process's.
  EXPECT_THROW(obs::LogHistogramCell::from_state(
                   1.01 / 0.99, 0, {}, cts::util::MomentAccumulator()),
               cts::util::InvalidArgument);
  EXPECT_NO_THROW(obs::LogHistogramCell::from_state(
      obs::LogHistogramCell::kGamma, 0, {}, cts::util::MomentAccumulator()));
}

// zero + sum(bucket counts) must equal count: a restored cell with more or
// fewer bucket entries than observations would give wrong percentiles.
TEST(LogHistogram, FromStateRejectsInconsistentCounts) {
  constexpr double g = obs::LogHistogramCell::kGamma;
  const auto stats = [](std::uint64_t n) {
    return cts::util::MomentAccumulator::from_state(n, 1.0, 0.0, 1.0, 1.0);
  };
  EXPECT_NO_THROW(obs::LogHistogramCell::from_state(g, 1, {{3, 2}}, stats(3)));
  EXPECT_THROW(obs::LogHistogramCell::from_state(g, 1, {{3, 2}}, stats(4)),
               cts::util::InvalidArgument);
  EXPECT_THROW(obs::LogHistogramCell::from_state(g, 0, {{3, 2}}, stats(3)),
               cts::util::InvalidArgument);
  // Buckets but no count: merge() would skip such a cell and lose them.
  EXPECT_THROW(obs::LogHistogramCell::from_state(g, 0, {{3, 2}}, stats(0)),
               cts::util::InvalidArgument);
  // The sum wraps to exactly `count` in 64 bits; the overflow is caught.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_THROW(
      obs::LogHistogramCell::from_state(g, kMax, {{0, 3}}, stats(2)),
      cts::util::InvalidArgument);

  // The same through the wire parser: a valid snapshot with its count
  // raised from 2 to 5.
  obs::MetricsShard shard;
  shard.observe_log("x_ms", 4.0);
  shard.observe_log("x_ms", 4.0);
  std::ostringstream os;
  obs::JsonWriter w(os);
  obs::write_metrics_snapshot(w, shard);
  std::string doc = os.str();
  EXPECT_NO_THROW(obs::metrics_snapshot_from_json(obs::json_parse(doc)));
  const std::size_t at = doc.find("\"count\":2,");
  ASSERT_NE(at, std::string::npos);
  doc.replace(at, 10, "\"count\":5,");
  EXPECT_THROW(obs::metrics_snapshot_from_json(obs::json_parse(doc)),
               cts::util::InvalidArgument);
}

}  // namespace
