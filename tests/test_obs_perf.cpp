// ResourceProbe / write_perf_report: the probe must measure a busy region
// (wall and CPU time move, RSS is positive) and the cts.perf.v2 report must
// pass the strict JSON validator with exactly the info, resources, paths
// and phases sections.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cts/obs/json.hpp"
#include "cts/obs/perf.hpp"
#include "cts/obs/span_stats.hpp"
#include "cts/util/file.hpp"

namespace obs = cts::obs;
namespace cu = cts::util;

namespace {

/// Burns CPU long enough for getrusage's clock granularity to register.
volatile std::uint64_t sink = 0;
void busy_work() {
  std::uint64_t acc = 1;
  for (std::uint64_t i = 0; i < 30'000'000; ++i) acc = acc * 2862933555777941757ULL + 3037000493ULL;
  sink = acc;
}

TEST(ResourceProbe, MeasuresBusyRegion) {
  obs::ResourceProbe probe;
  busy_work();
  const obs::ResourceUsage u = probe.sample();
  EXPECT_GT(u.wall_s, 0.0);
  EXPECT_LT(u.wall_s, 60.0);
  EXPECT_GT(u.user_s + u.sys_s, 0.0);
  EXPECT_GT(u.max_rss_kb, 0);
  EXPECT_GE(u.ctx_voluntary, 0);
  EXPECT_GE(u.ctx_involuntary, 0);
}

TEST(ResourceProbe, RestartRearmsDeltas) {
  obs::ResourceProbe probe;
  busy_work();
  probe.restart();
  const obs::ResourceUsage u = probe.sample();
  // After restart the accumulated busy time must not be attributed.
  EXPECT_LT(u.user_s + u.sys_s, 0.5);
}

TEST(PerfReport, SerialisesToValidJson) {
  obs::SpanTable& table = obs::SpanTable::global();
  table.reset();
  for (int i = 0; i < 4; ++i) {
    table.fold("replication;fluid_mux.run", "fluid_mux.run", 250, 200, 150);
  }
  table.fold("replication", "replication", 1200, 200, 180);
  obs::ResourceProbe probe;
  busy_work();

  const std::string path = ::testing::TempDir() + "/perf_report.json";
  ASSERT_TRUE(obs::write_perf_report(
      path, probe, {{"run_id", "unit_test"}, {"bench_kind", "sim"}}));
  table.reset();
  const std::string text = cu::read_text_file(path);
  std::string error;
  ASSERT_TRUE(obs::json_parse_check(text, &error)) << error << text;

  const obs::JsonValue doc = obs::json_parse(text);
  EXPECT_EQ(doc.at("schema").as_string(), "cts.perf.v2");
  EXPECT_EQ(doc.at("info").at("run_id").as_string(), "unit_test");
  EXPECT_GT(doc.at("resources").at("wall_s").as_number(), 0.0);
  EXPECT_GT(doc.at("resources").at("max_rss_kb").as_number(), 0.0);
  // No hardware-counter section and no by-name span array: the report's
  // top level is exactly this.
  std::vector<std::string> keys;
  for (const auto& [key, value] : doc.members) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"schema", "info", "resources",
                                            "paths", "phases"}));
  const obs::JsonValue& paths = doc.at("paths");
  ASSERT_EQ(paths.size(), 2u);
  const obs::JsonValue& mux = paths.at(std::size_t{1});
  EXPECT_EQ(mux.at("path").as_string(), "replication;fluid_mux.run");
  EXPECT_EQ(mux.int_at("count"), 4);
  EXPECT_EQ(mux.int_at("total_us"), 1000);
  EXPECT_EQ(mux.int_at("self_us"), 800);
  EXPECT_EQ(mux.int_at("cpu_self_us"), 600);
  EXPECT_EQ(mux.int_at("min_us"), 250);
  EXPECT_EQ(mux.int_at("max_us"), 250);
  // Phase rollup: fluid_mux (self 800) sorts before replication (self 200).
  const obs::JsonValue& phases = doc.at("phases");
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases.at(std::size_t{0}).at("phase").as_string(), "fluid_mux");
  EXPECT_DOUBLE_EQ(phases.at(std::size_t{0}).at("self_us").as_number(), 800.0);
}

TEST(PerfReport, WriteFailsGracefullyOnBadPath) {
  EXPECT_FALSE(obs::write_perf_report("/nonexistent_dir_cts_test/perf.json",
                                      obs::ResourceProbe(), {}));
}

}  // namespace
