// Scenario executor (cts/sim/scenario_run.hpp): per-hop cell
// conservation holds exactly by construction, shard layout and thread
// count never change the samples (bit-identical doubles), the serialized
// merge of partials equals the single-process document byte for byte,
// and the dormant ATM components (smoothing, GCRA, AAL5, priority
// buffer) wired into the pipeline publish their cts::obs metrics.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "cts/atm/gcra.hpp"
#include "cts/obs/metrics.hpp"
#include "cts/sim/scenario.hpp"
#include "cts/sim/scenario_run.hpp"
#include "cts/util/error.hpp"
#include "cts/util/rng.hpp"

namespace sim = cts::sim;
namespace obs = cts::obs;

namespace {

// A small but full-featured scenario: a smoothed + AAL5 + policed group
// and a plain group into a priority tandem head, cross traffic into the
// FIFO tail.  Capacities are tight so losses actually occur.
const char* kSpec =
    "cts.scenario.v1\n"
    "[scenario]\n"
    "name = run_test\n"
    "frames = 400\n"
    "warmup = 50\n"
    "replications = 6\n"
    "seed = 12345\n"
    "[source video]\n"
    "kind = geometric\n"
    "mean = 200\n"
    "variance = 4000\n"
    "a = 0.8\n"
    "count = 3\n"
    "smooth = 4\n"
    "aal5 = on\n"
    "police_scr = 5200\n"
    "police_bt = 0.05\n"
    "police_pcr = 9000\n"
    "police_cdvt = 0.002\n"
    "[source bulk]\n"
    "kind = white\n"
    "mean = 200\n"
    "variance = 3000\n"
    "count = 2\n"
    "priority = low\n"
    "[source bg]\n"
    "kind = lrd\n"
    "mean = 150\n"
    "variance = 2000\n"
    "hurst = 0.85\n"
    "weight = 0.5\n"
    "[hop head]\n"
    "input = video, bulk\n"
    "capacity = 1030\n"
    "buffer = 260\n"
    "threshold = 160\n"
    "[hop tail]\n"
    "input = head, bg\n"
    "capacity = 1180\n"
    "buffer = 220\n"
    "[output]\n"
    "occupancy_buckets = 8\n"
    "hop_trace_every = 20\n";

sim::ScenarioRunResult run_slice(const sim::Scenario& sc, std::size_t index,
                                 std::size_t count, unsigned threads = 1) {
  sim::ScenarioRunOptions options;
  options.shard_index = index;
  options.shard_count = count;
  options.threads = threads;
  options.progress = false;
  return sim::run_scenario(sc, options);
}

TEST(ScenarioRun, PerHopCellConservationIsExact) {
  const sim::Scenario sc = sim::parse_scenario(kSpec);
  const sim::ScenarioRunResult result = run_slice(sc, 0, 1);
  ASSERT_EQ(result.samples.size(), 6u);
  bool any_loss = false;
  for (const sim::ScenarioRepSample& sample : result.samples) {
    ASSERT_EQ(sample.hops.size(), 2u);
    for (const sim::ScenarioHopTally& hop : sample.hops) {
      const double growth = hop.final_workload - hop.initial_workload;
      const double balance = hop.departed + hop.lost() + growth;
      EXPECT_NEAR(hop.arrived(), balance,
                  1e-9 * std::max(1.0, hop.arrived()))
          << "rep " << sample.rep;
      EXPECT_GE(hop.peak_workload, hop.final_workload);
      if (hop.lost() > 0.0) any_loss = true;
      // Occupancy histogram counts every measured frame exactly once.
      std::uint64_t frames = 0;
      for (std::uint64_t c : hop.occupancy) frames += c;
      EXPECT_EQ(frames, sample.frames);
    }
  }
  EXPECT_TRUE(any_loss) << "capacities too loose: conservation untested "
                           "under loss";
}

TEST(ScenarioRun, PriorityHopSplitsClassesAndFifoFoldsThem) {
  const sim::Scenario sc = sim::parse_scenario(kSpec);
  const sim::ScenarioRunResult result = run_slice(sc, 0, 1);
  for (const sim::ScenarioRepSample& sample : result.samples) {
    const sim::ScenarioHopTally& head = sample.hops[0];  // priority
    const sim::ScenarioHopTally& tail = sample.hops[1];  // FIFO
    EXPECT_GT(head.arrived_low, 0.0);   // bulk is low priority
    EXPECT_GT(head.arrived_high, 0.0);  // video is high priority
    // FIFO hops are class-blind: everything is tallied as high.
    EXPECT_EQ(tail.arrived_low, 0.0);
    EXPECT_EQ(tail.lost_low, 0.0);
  }
}

TEST(ScenarioRun, ShardLayoutsAndThreadsAreBitIdentical) {
  const sim::Scenario sc = sim::parse_scenario(kSpec);
  const sim::ScenarioRunResult single = run_slice(sc, 0, 1, 2);

  for (std::size_t shards : {2u, 3u}) {
    std::vector<sim::ScenarioRepSample> stitched;
    for (std::size_t i = 0; i < shards; ++i) {
      const sim::ScenarioRunResult part =
          run_slice(sc, i, shards, i % 2 ? 2 : 1);
      stitched.insert(stitched.end(), part.samples.begin(),
                      part.samples.end());
    }
    ASSERT_EQ(stitched.size(), single.samples.size()) << shards;
    for (std::size_t r = 0; r < stitched.size(); ++r) {
      const sim::ScenarioRepSample& a = single.samples[r];
      const sim::ScenarioRepSample& b = stitched[r];
      ASSERT_EQ(a.rep, b.rep);
      ASSERT_EQ(a.hops.size(), b.hops.size());
      for (std::size_t h = 0; h < a.hops.size(); ++h) {
        // Exact equality: same seeds, same order, same arithmetic.
        EXPECT_EQ(a.hops[h].arrived_high, b.hops[h].arrived_high);
        EXPECT_EQ(a.hops[h].arrived_low, b.hops[h].arrived_low);
        EXPECT_EQ(a.hops[h].lost_high, b.hops[h].lost_high);
        EXPECT_EQ(a.hops[h].lost_low, b.hops[h].lost_low);
        EXPECT_EQ(a.hops[h].departed, b.hops[h].departed);
        EXPECT_EQ(a.hops[h].final_workload, b.hops[h].final_workload);
        EXPECT_EQ(a.hops[h].occupancy, b.hops[h].occupancy);
      }
      for (std::size_t s = 0; s < a.sources.size(); ++s) {
        EXPECT_EQ(a.sources[s].offered, b.sources[s].offered);
        EXPECT_EQ(a.sources[s].policed, b.sources[s].policed);
      }
    }
  }
}

TEST(ScenarioRun, MergedDocumentIsByteIdenticalToSingleProcess) {
  const sim::Scenario sc = sim::parse_scenario(kSpec);
  const std::string single =
      sim::write_scenario_result_json(sc, run_slice(sc, 0, 1));

  std::vector<sim::ScenarioResultDoc> parts;
  for (std::size_t i = 0; i < 2; ++i) {
    sim::ScenarioRunResult part = run_slice(sc, i, 2);
    parts.push_back(sim::parse_scenario_result(
        sim::write_scenario_result_json(sc, part)));
  }
  EXPECT_EQ(sim::merge_scenario_result_json(parts), single);
}

TEST(ScenarioRun, ResultParserRejectsCountsThatAreNotUint64) {
  const sim::Scenario sc = sim::parse_scenario(kSpec);
  const std::string good =
      sim::write_scenario_result_json(sc, run_slice(sc, 0, 1));
  ASSERT_NO_THROW(sim::parse_scenario_result(good));
  // Replaces the value after the first `from` (up to the next ',').
  const auto with = [&](const std::string& from, const std::string& value) {
    const std::size_t at = good.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    const std::size_t begin = at + from.size();
    return good.substr(0, begin) + value + good.substr(good.find(',', begin));
  };
  // The seed used to saturate to 2^64 - 1, a seed that reproduces nothing.
  for (const std::string& doc :
       {with("\"seed\":", "\"99999999999999999999999\""),
        with("\"seed\":", "\"-5\""), with("\"seed\":", "\" 5\""),
        with("\"frames\":", "1e300"), with("\"frames\":", "400.5"),
        with("\"rep\":", "-1"), with("\"replications\":", "6.5")}) {
    EXPECT_THROW(sim::parse_scenario_result(doc), cts::util::InvalidArgument)
        << doc.substr(0, 200);
  }
}

// The field-name prefix of a read is built only when the read fails; the
// message still names the field.
TEST(ScenarioRun, ResultParserErrorsNameTheField) {
  const sim::Scenario sc = sim::parse_scenario(kSpec);
  const std::string good =
      sim::write_scenario_result_json(sc, run_slice(sc, 0, 1));
  const auto with = [&](const std::string& from, const std::string& value) {
    const std::size_t at = good.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    const std::size_t begin = at + from.size();
    return good.substr(0, begin) + value + good.substr(good.find(',', begin));
  };
  const std::pair<std::string, std::string> cases[] = {
      {with("\"seed\":", "\"-5\""),
       "scenario result: seed must be a decimal"},
      {with("\"frames\":", "400.5"),
       "scenario result: frames must be an integer"},
      {with("\"rep\":", "-1"),
       "scenario result: rep index must be an integer"},
      {with("\"offered\":", "-1"),
       "scenario result: source offered must be finite and >= 0"},
  };
  for (const auto& [doc, message] : cases) {
    try {
      (void)sim::parse_scenario_result(doc);
      ADD_FAILURE() << "accepted: " << message;
    } catch (const cts::util::InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioRun, TraceOnlyInSliceContainingReplicationZero) {
  const sim::Scenario sc = sim::parse_scenario(kSpec);
  const sim::ScenarioRunResult with = run_slice(sc, 0, 2);
  const sim::ScenarioRunResult without = run_slice(sc, 1, 2);
  ASSERT_EQ(with.traces.size(), 2u);
  EXPECT_FALSE(with.traces[0].empty());
  EXPECT_TRUE(without.traces.empty());
  // Rows are sampled from measured frames of replication 0 only.
  EXPECT_EQ(with.traces[0].size(), 400u / 20u);
}

TEST(ScenarioRun, AtmComponentsPublishObsMetrics) {
  const sim::Scenario sc = sim::parse_scenario(kSpec);
  (void)run_slice(sc, 0, 1);
  const obs::MetricsShard snap = obs::MetricsRegistry::global().snapshot();

  for (const char* counter :
       {"atm.smoothing.frames", "atm.gcra.cells", "atm.aal5.pdus",
        "atm.aal5.cells", "atm.priority.frames",
        "scenario.replications"}) {
    auto it = snap.counters().find(counter);
    ASSERT_NE(it, snap.counters().end()) << counter;
    EXPECT_GT(it->second, 0u) << counter;
  }
  for (const char* sum :
       {"atm.smoothing.cells_in", "atm.smoothing.cells_out",
        "atm.priority.high_arrived", "atm.priority.low_arrived",
        "scenario.arrived_cells", "scenario.lost_cells",
        "scenario.departed_cells"}) {
    auto it = snap.sums().find(sum);
    ASSERT_NE(it, snap.sums().end()) << sum;
    EXPECT_GT(it->second.value(), 0.0) << sum;
  }
  // The policer saw non-conforming cells in this tight configuration.
  auto nc = snap.counters().find("atm.gcra.nonconforming");
  ASSERT_NE(nc, snap.counters().end());
  EXPECT_GT(nc->second, 0u);
}

TEST(ScenarioRun, AnalyticsOnlyForUnshapedSourceFedFifoHops) {
  const sim::Scenario sc = sim::parse_scenario(kSpec);
  const std::vector<sim::ScenarioHopAnalytic> analytics =
      sim::scenario_analytics(sc);
  ASSERT_EQ(analytics.size(), 2u);
  EXPECT_FALSE(analytics[0].available);  // priority hop
  EXPECT_FALSE(analytics[1].available);  // fed by an upstream hop

  const sim::Scenario plain = sim::parse_scenario(
      "cts.scenario.v1\n"
      "[source a]\n"
      "kind = geometric\n"
      "mean = 500\n"
      "variance = 5000\n"
      "a = 0.8\n"
      "count = 4\n"
      "[hop m]\n"
      "input = a\n"
      "capacity = 2400\n"
      "buffer = 600\n");
  const std::vector<sim::ScenarioHopAnalytic> ok =
      sim::scenario_analytics(plain);
  ASSERT_EQ(ok.size(), 1u);
  ASSERT_TRUE(ok[0].available);
  EXPECT_LT(ok[0].log10_bop, 0.0);
  EXPECT_GE(ok[0].critical_m, 1u);
}

// A policed white source whose four frames average `mean` cells each.
std::string huge_frame_spec(const std::string& mean) {
  return "cts.scenario.v1\n"
         "[scenario]\n"
         "frames = 4\n"
         "warmup = 0\n"
         "replications = 1\n"
         "[source big]\n"
         "kind = white\n"
         "mean = " + mean + "\n"
         "variance = 1\n"
         "police_scr = 13750\n"
         "[hop m]\n"
         "input = big\n"
         "capacity = 1e13\n"
         "buffer = 1e12\n";
}

TEST(ScenarioRun, HugePolicedFramesFinishAndKeepWholeCells) {
  // 4e12 cells: a cell-by-cell policer would run for hours.
  const sim::Scenario sc = sim::parse_scenario(huge_frame_spec("1e12"));
  const auto start = std::chrono::steady_clock::now();
  const sim::ScenarioRunResult result = run_slice(sc, 0, 1);
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(took.count(), 1.0);

  // The same frames, regenerated from the run's seed stream.
  cts::util::SplitMix64 seeder(sim::replication_seed_root(sc.seed, 0));
  const auto source =
      sim::resolve_scenario_model(sc.sources[0].model).make_source(
          seeder.next());
  double whole = 0.0;
  for (std::uint64_t n = 0; n < sc.warmup + sc.frames; ++n) {
    const double x = std::max(source->next_frame(), 0.0);
    if (n >= sc.warmup) whole += static_cast<double>(cts::atm::whole_cells(x));
  }
  ASSERT_EQ(result.samples.size(), 1u);
  const sim::ScenarioSourceTally& tally = result.samples[0].sources[0];
  EXPECT_GE(tally.policed, 0.0);
  EXPECT_GT(tally.offered, 0.0);
  EXPECT_EQ(tally.policed + tally.offered, whole);
}

TEST(ScenarioRun, PolicedFrameBeyondTwoTo53CellsIsAStructuredError) {
  // Several replications on two threads: the first one to throw is
  // rethrown on the caller once both workers have joined.
  sim::Scenario sc = sim::parse_scenario(huge_frame_spec("1e20"));
  sc.replications = 4;
  try {
    (void)run_slice(sc, 0, 1, 2);
    FAIL() << "a 1e20-cell frame was policed";
  } catch (const cts::util::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("frame of 1"), std::string::npos) << what;
    EXPECT_NE(what.find("e+20 cells"), std::string::npos) << what;
  }
}

}  // namespace
