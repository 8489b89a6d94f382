// ResourceProbe / PerfReport: the probe must measure a busy region (wall
// and CPU time move, RSS is positive) and the serialised cts.perf.v1
// report must pass the strict JSON validator with exactly the info,
// resources, spans and phases sections.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "cts/obs/json.hpp"
#include "cts/obs/perf.hpp"

namespace obs = cts::obs;

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
  obs::PerfReport report;
  report.info.emplace_back("run_id", "unit_test");
  report.info.emplace_back("bench_kind", "sim");
  obs::ResourceProbe probe;
  busy_work();
  report.resources = probe.sample();
  report.spans.push_back({"fluid_mux.run", 4, 1000, 800, 100, 400});
  report.spans.push_back({"replication", 2, 1200, 200, 500, 700});

  std::ostringstream os;
  report.write_json(os);
  std::string error;
  ASSERT_TRUE(obs::json_parse_check(os.str(), &error)) << error << os.str();

  const obs::JsonValue doc = obs::json_parse(os.str());
  EXPECT_EQ(doc.at("schema").as_string(), "cts.perf.v1");
  EXPECT_EQ(doc.at("info").at("run_id").as_string(), "unit_test");
  EXPECT_GT(doc.at("resources").at("wall_s").as_number(), 0.0);
  EXPECT_GT(doc.at("resources").at("max_rss_kb").as_number(), 0.0);
  // No hardware-counter section: the report's top level is exactly this.
  std::vector<std::string> keys;
  for (const auto& [key, value] : doc.members) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"schema", "info", "resources",
                                            "spans", "phases"}));
  // Phase rollup: fluid_mux (self 800) sorts before replication (self 200).
  const obs::JsonValue& phases = doc.at("phases");
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases.at(std::size_t{0}).at("phase").as_string(), "fluid_mux");
  EXPECT_DOUBLE_EQ(phases.at(std::size_t{0}).at("self_us").as_number(), 800.0);
}

TEST(PerfReport, WriteFailsGracefullyOnBadPath) {
  obs::PerfReport report;
  EXPECT_FALSE(report.write("/nonexistent_dir_cts_test/perf.json"));
}

}  // namespace
