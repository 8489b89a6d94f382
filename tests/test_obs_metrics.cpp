#include "cts/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "cts/obs/json.hpp"

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
          shard.observe_log("size", static_cast<double>(i % 7));
        }
        shard.gauge("peak", static_cast<double>(t), obs::GaugeMode::kMax);
        reg.merge(shard);
      });
    }
    for (auto& t : pool) t.join();

    EXPECT_EQ(reg.counter("events"), 8000u);
    EXPECT_DOUBLE_EQ(reg.sum("cells"), 24000.0);
    EXPECT_DOUBLE_EQ(reg.gauge_value("peak"), 7.0);
    obs::LogHistogramCell cell;
    ASSERT_TRUE(reg.log_histogram("size", &cell));
    EXPECT_EQ(cell.stats().count(), 8000u);
    // i % 7 in 0..6: 0 is in the zero bucket, 1..6 one bucket each.
    EXPECT_EQ(cell.zero_count(), 8u * 143u);
    ASSERT_EQ(cell.buckets().size(), 6u);
    EXPECT_EQ(cell.buckets().rbegin()->second, 8u * 142u);  // the 6s
    EXPECT_DOUBLE_EQ(cell.stats().min(), 0.0);
    EXPECT_DOUBLE_EQ(cell.stats().max(), 6.0);
  }
}

TEST(MetricsRegistry, WriteJsonIsWellFormedAndComplete) {
  obs::MetricsRegistry reg;
  reg.add("a.count", 3);
  reg.add_sum("b.total", 1.5);
  reg.gauge("c.value", 2.25);
  reg.observe_log("d.hist_ms", 0.5);
  std::ostringstream os;
  reg.write_json(os);
  std::string error;
  EXPECT_TRUE(obs::json_parse_check(os.str(), &error)) << error;
  EXPECT_NE(os.str().find("\"a.count\":3"), std::string::npos);
  EXPECT_NE(os.str().find("\"counters\""), std::string::npos);
  EXPECT_NE(os.str().find("\"log_histograms\":{\"d.hist_ms\""),
            std::string::npos);
  EXPECT_EQ(os.str().find("\"histograms\""), std::string::npos);
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
