#include "cts/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "cts/obs/json.hpp"
#include "cts/util/error.hpp"

namespace obs = cts::obs;

namespace {

TEST(MetricsRegistry, CounterAccumulatesAndDefaultsToZero) {
  obs::MetricsRegistry reg;
  EXPECT_EQ(reg.counter("missing"), 0u);
  reg.add("frames");
  reg.add("frames", 41);
  EXPECT_EQ(reg.counter("frames"), 42u);
}

TEST(MetricsRegistry, GaugeSetModeLastWriteWins) {
  obs::MetricsRegistry reg;
  EXPECT_FALSE(reg.has_gauge("threads"));
  EXPECT_DOUBLE_EQ(reg.gauge_value("threads", -1.0), -1.0);
  reg.gauge("threads", 8.0);
  reg.gauge("threads", 4.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("threads"), 4.0);
  EXPECT_TRUE(reg.has_gauge("threads"));
}

TEST(MetricsRegistry, GaugeMaxModeKeepsPeak) {
  obs::MetricsRegistry reg;
  reg.gauge("peak", 10.0, obs::GaugeMode::kMax);
  reg.gauge("peak", 3.0, obs::GaugeMode::kMax);
  reg.gauge("peak", 17.0, obs::GaugeMode::kMax);
  EXPECT_DOUBLE_EQ(reg.gauge_value("peak"), 17.0);
}

TEST(MetricsRegistry, CompensatedSumSurvivesMagnitudeSpread) {
  obs::MetricsRegistry reg;
  // 1e16 + 1.0 + ... + 1.0 loses every unit in naive double addition.
  reg.add_sum("cells", 1e16);
  for (int i = 0; i < 1000; ++i) reg.add_sum("cells", 1.0);
  EXPECT_DOUBLE_EQ(reg.sum("cells") - 1e16, 1000.0);
}

TEST(Histogram, UpperInclusiveBucketsAndStats) {
  obs::HistogramCell h({1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0
  h.observe(1.0);    // bucket 0 (upper-inclusive)
  h.observe(5.0);    // bucket 1
  h.observe(100.0);  // bucket 2
  h.observe(1e6);    // overflow bucket
  ASSERT_EQ(h.buckets().size(), 4u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);
  EXPECT_EQ(h.stats().count(), 5u);
  EXPECT_DOUBLE_EQ(h.stats().min(), 0.5);
  EXPECT_DOUBLE_EQ(h.stats().max(), 1e6);
}

TEST(Histogram, BinningAndBounds) {
  obs::HistogramCell h({0.0, 2.0, 4.0});
  ASSERT_EQ(h.edges().size(), 3u);
  ASSERT_EQ(h.buckets().size(), 4u);  // one per edge plus overflow
  h.observe(-HUGE_VAL);  // bucket 0: everything <= the first edge
  h.observe(-1.0);       // bucket 0
  h.observe(0.0);        // bucket 0 (upper-inclusive)
  h.observe(0.5);        // bucket 1
  h.observe(2.0);        // bucket 1 (upper-inclusive)
  h.observe(3.999);      // bucket 2
  h.observe(4.0);        // bucket 2: the last edge is still in range
  h.observe(HUGE_VAL);   // overflow
  EXPECT_EQ(h.buckets()[0], 3u);
  EXPECT_EQ(h.buckets()[1], 2u);
  EXPECT_EQ(h.buckets()[2], 2u);
  EXPECT_EQ(h.buckets()[3], 1u);
  EXPECT_EQ(h.stats().count(), 8u);
}

TEST(Histogram, RejectsBadConfig) {
  EXPECT_THROW(obs::HistogramCell(std::vector<double>{}),
               cts::util::InvalidArgument);
  EXPECT_THROW(obs::HistogramCell({1.0, 3.0, 2.0}),
               cts::util::InvalidArgument);
  // A snapshot must carry one bucket per edge plus the overflow bucket.
  EXPECT_THROW(obs::HistogramCell::from_state({1.0, 2.0}, {0, 0}, {}),
               cts::util::InvalidArgument);
  EXPECT_THROW(obs::HistogramCell::from_state({2.0, 1.0}, {0, 0, 0}, {}),
               cts::util::InvalidArgument);
  EXPECT_NO_THROW(obs::HistogramCell::from_state({1.0, 2.0}, {1, 0, 2}, {}));
}

TEST(Histogram, MergeRequiresMatchingEdges) {
  obs::HistogramCell a({1.0, 2.0});
  obs::HistogramCell b({1.0, 3.0});
  b.observe(0.5);
  EXPECT_THROW(a.merge(b), cts::util::InvalidArgument);
}

TEST(Histogram, MergeSumsBucketsAndStats) {
  obs::HistogramCell a({1.0, 2.0});
  obs::HistogramCell b({1.0, 2.0});
  a.observe(0.5);
  a.observe(1.5);
  b.observe(1.5);
  b.observe(9.0);
  a.merge(b);
  EXPECT_EQ(a.buckets()[0], 1u);
  EXPECT_EQ(a.buckets()[1], 2u);
  EXPECT_EQ(a.buckets()[2], 1u);
  EXPECT_EQ(a.stats().count(), 4u);
  EXPECT_DOUBLE_EQ(a.stats().mean(), (0.5 + 1.5 + 1.5 + 9.0) / 4.0);
}

TEST(MetricsShard, RegistryObserveCreatesHistogramWithGivenEdges) {
  obs::MetricsRegistry reg;
  reg.observe("wall_ms", 2.0, {1.0, 3.0});
  reg.observe("wall_ms", 10.0);  // edges fixed by first observation
  obs::HistogramSnapshot snap;
  ASSERT_TRUE(reg.histogram("wall_ms", &snap));
  EXPECT_EQ(snap.count, 2u);
  ASSERT_EQ(snap.edges.size(), 2u);
  EXPECT_EQ(snap.buckets[1], 1u);  // 2.0 <= 3.0
  EXPECT_EQ(snap.buckets[2], 1u);  // 10.0 overflows
}

TEST(MetricsShard, ConcurrentShardMergeIsDeterministic) {
  // Eight workers each build a shard with integer-valued metrics and merge
  // it; every interleaving must produce identical registry contents.
  for (int round = 0; round < 3; ++round) {
    obs::MetricsRegistry reg;
    std::vector<std::thread> pool;
    for (int t = 0; t < 8; ++t) {
      pool.emplace_back([&reg, t]() {
        obs::MetricsShard shard;
        for (int i = 0; i < 1000; ++i) {
          shard.add("events");
          shard.add_sum("cells", 3.0);
          shard.observe("size", static_cast<double>(i % 7), {2.0, 5.0});
        }
        shard.gauge("peak", static_cast<double>(t), obs::GaugeMode::kMax);
        reg.merge(shard);
      });
    }
    for (auto& t : pool) t.join();

    EXPECT_EQ(reg.counter("events"), 8000u);
    EXPECT_DOUBLE_EQ(reg.sum("cells"), 24000.0);
    EXPECT_DOUBLE_EQ(reg.gauge_value("peak"), 7.0);
    obs::HistogramSnapshot snap;
    ASSERT_TRUE(reg.histogram("size", &snap));
    EXPECT_EQ(snap.count, 8000u);
    // i % 7 in 0..6: values <= 2 are {0,1,2}, <= 5 are {3,4,5}, above: {6}.
    EXPECT_EQ(snap.buckets[0], 8u * (143u + 143u + 143u));
    EXPECT_EQ(snap.buckets[2], 8u * 142u);
    EXPECT_DOUBLE_EQ(snap.min, 0.0);
    EXPECT_DOUBLE_EQ(snap.max, 6.0);
  }
}

TEST(MetricsRegistry, WriteJsonIsWellFormedAndComplete) {
  obs::MetricsRegistry reg;
  reg.add("a.count", 3);
  reg.add_sum("b.total", 1.5);
  reg.gauge("c.value", 2.25);
  reg.observe("d.hist", 0.5, {1.0});
  std::ostringstream os;
  reg.write_json(os);
  std::string error;
  EXPECT_TRUE(obs::json_parse_check(os.str(), &error)) << error;
  EXPECT_NE(os.str().find("\"a.count\":3"), std::string::npos);
  EXPECT_NE(os.str().find("\"counters\""), std::string::npos);
  EXPECT_NE(os.str().find("\"histograms\""), std::string::npos);
}

TEST(MetricsRegistry, ResetClearsEverything) {
  obs::MetricsRegistry reg;
  reg.add("x");
  reg.gauge("y", 1.0);
  reg.reset();
  EXPECT_EQ(reg.counter("x"), 0u);
  EXPECT_FALSE(reg.has_gauge("y"));
}

TEST(MetricsRegistry, GlobalIsASingleton) {
  obs::MetricsRegistry& a = obs::MetricsRegistry::global();
  obs::MetricsRegistry& b = obs::MetricsRegistry::global();
  EXPECT_EQ(&a, &b);
}

}  // namespace
