// Unit tests for process-level replication sharding: the determinism
// matrix (thread count x shard layout), the cts.shard.v1 round-trip, the
// shard merge, the metrics-snapshot round-trip, and the env-override
// validation the sharded path depends on.

#include "cts/sim/shard.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cts/obs/json.hpp"
#include "cts/obs/metrics.hpp"
#include "cts/sim/replication.hpp"
#include "cts/util/error.hpp"

namespace cf = cts::fit;
namespace cm = cts::sim;
namespace co = cts::obs;
namespace cu = cts::util;

namespace {

/// 5 replications: both 5/2 (2+3) and 5/3 (1+2+2) split unevenly.
cm::ReplicationConfig small_config() {
  cm::ReplicationConfig config;
  config.replications = 5;
  config.frames_per_replication = 3000;
  config.warmup_frames = 200;
  config.n_sources = 10;
  config.capacity_cells = 10 * 520.0;
  config.buffer_sizes_cells = {0.0, 500.0};
  config.bop_thresholds_cells = {200.0};
  config.progress = false;
  return config;
}

/// Runs every shard of an n-shard layout and merges the slices the way
/// tools/cts_simd does: concatenate in shard order, re-aggregate.
cm::ReplicationResult run_sharded(const cf::ModelSpec& model,
                                  cm::ReplicationConfig config,
                                  std::size_t shard_count) {
  std::vector<cm::ReplicationSample> samples;
  for (std::size_t i = 0; i < shard_count; ++i) {
    config.shard_index = i;
    config.shard_count = shard_count;
    cm::ReplicationResult slice = cm::run_replicated(model, config);
    samples.insert(samples.end(), slice.samples.begin(), slice.samples.end());
  }
  return cm::aggregate_replications(config.buffer_sizes_cells,
                                    config.bop_thresholds_cells,
                                    std::move(samples));
}

void expect_bit_identical(const cm::ReplicationResult& a,
                          const cm::ReplicationResult& b) {
  // EXPECT_EQ, not EXPECT_NEAR: the sharding contract is bit-identity.
  EXPECT_EQ(a.total_arrived_cells, b.total_arrived_cells);
  EXPECT_EQ(a.total_frames, b.total_frames);
  ASSERT_EQ(a.clr.size(), b.clr.size());
  for (std::size_t i = 0; i < a.clr.size(); ++i) {
    EXPECT_EQ(a.clr[i].buffer_cells, b.clr[i].buffer_cells);
    EXPECT_EQ(a.clr[i].pooled_clr, b.clr[i].pooled_clr);
    EXPECT_EQ(a.clr[i].clr.mean, b.clr[i].clr.mean);
    EXPECT_EQ(a.clr[i].clr.half_width, b.clr[i].clr.half_width);
    EXPECT_EQ(a.clr[i].clr.samples, b.clr[i].clr.samples);
  }
  ASSERT_EQ(a.bop.size(), b.bop.size());
  for (std::size_t i = 0; i < a.bop.size(); ++i) {
    EXPECT_EQ(a.bop[i].pooled_bop, b.bop[i].pooled_bop);
    EXPECT_EQ(a.bop[i].bop.mean, b.bop[i].bop.mean);
    EXPECT_EQ(a.bop[i].bop.half_width, b.bop[i].bop.half_width);
  }
}

/// A worker's shard file as the ShardRecorder would emit it, built from an
/// in-process run of that shard's slice.
cm::ShardFile make_shard_file(const cf::ModelSpec& model,
                              cm::ReplicationConfig config, std::size_t index,
                              std::size_t count) {
  config.shard_index = index;
  config.shard_count = count;
  cm::ReplicationResult slice = cm::run_replicated(model, config);
  cm::ShardFile file;
  file.shard_index = index;
  file.shard_count = count;
  cm::ShardExperiment experiment;
  experiment.label = "test";
  experiment.config = config;
  experiment.samples = slice.samples;
  file.experiments.push_back(std::move(experiment));
  file.metrics.add("test.runs", 1);
  file.metrics.add_sum("test.cells", slice.total_arrived_cells);
  return file;
}

std::string to_json(const cm::ShardFile& file) {
  std::ostringstream os;
  cm::write_shard_json(os, file);
  return os.str();
}

/// `json` with the number right after the first `prefix` (e.g. "\"rep\":")
/// replaced by `value`.
std::string with_number(const std::string& json, const std::string& prefix,
                        const std::string& value) {
  const std::size_t at = json.find(prefix);
  EXPECT_NE(at, std::string::npos) << "no '" << prefix << "' in the file";
  if (at == std::string::npos) return json;
  const std::size_t begin = at + prefix.size();
  const std::size_t end = json.find_first_not_of("-+.eE0123456789", begin);
  return json.substr(0, begin) + value + json.substr(end);
}

}  // namespace

TEST(ShardSpec, ParsesAndFormats) {
  const cm::ShardSpec spec = cm::parse_shard_spec("2/5");
  EXPECT_EQ(spec.index, 2u);
  EXPECT_EQ(spec.count, 5u);
  EXPECT_EQ(cm::format_shard_spec(spec), "2/5");
  EXPECT_EQ(cm::parse_shard_spec("0/1").count, 1u);
}

TEST(ShardSpec, RejectsMalformedSpecs) {
  for (const char* bad : {"", "3", "/4", "3/", "4/4", "5/4", "-1/4", "a/4",
                          "1/b", "1/4x", "1.5/4"}) {
    EXPECT_THROW(cm::parse_shard_spec(bad), cu::InvalidArgument) << bad;
  }
}

TEST(ShardedReplication, DeterminismMatrix) {
  const cf::ModelSpec model = cf::make_ar1(0.8);
  cm::ReplicationConfig config = small_config();
  config.threads = 1;
  const cm::ReplicationResult baseline = cm::run_replicated(model, config);
  ASSERT_EQ(baseline.samples.size(), config.replications);

  for (const unsigned threads : {1u, 4u}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{3}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " shards=" + std::to_string(shards));
      cm::ReplicationConfig c = small_config();
      c.threads = threads;
      expect_bit_identical(baseline, run_sharded(model, c, shards));
    }
  }
}

TEST(ShardedReplication, SlicesAreContiguousAndComplete) {
  const cf::ModelSpec model = cf::make_ar1(0.8);
  cm::ReplicationConfig config = small_config();  // 5 reps
  config.shard_count = 3;
  std::vector<std::uint64_t> seen;
  for (std::size_t i = 0; i < 3; ++i) {
    config.shard_index = i;
    const cm::ReplicationResult slice = cm::run_replicated(model, config);
    for (const cm::ReplicationSample& s : slice.samples) seen.push_back(s.rep);
  }
  // 5/3 splits 1+2+2 and covers every global index exactly once, in order.
  ASSERT_EQ(seen.size(), 5u);
  for (std::uint64_t k = 0; k < 5; ++k) EXPECT_EQ(seen[k], k);
}

TEST(ShardedReplication, RejectsBadShardConfig) {
  const cf::ModelSpec model = cf::make_ar1(0.5);
  cm::ReplicationConfig config = small_config();
  config.shard_index = 2;
  config.shard_count = 2;
  EXPECT_THROW(cm::run_replicated(model, config), cu::InvalidArgument);
  config = small_config();
  config.shard_count = 0;
  EXPECT_THROW(cm::run_replicated(model, config), cu::InvalidArgument);
  config = small_config();  // 5 reps cannot feed 6 shards
  config.shard_count = 6;
  EXPECT_THROW(cm::run_replicated(model, config), cu::InvalidArgument);
}

TEST(ShardFile, JsonRoundTripIsExact) {
  const cf::ModelSpec model = cf::make_ar1(0.8);
  cm::ReplicationConfig config = small_config();
  config.master_seed = (1ULL << 53) + 12345;  // not representable as double
  const cm::ShardFile file = make_shard_file(model, config, 1, 2);
  const cm::ShardFile parsed = cm::parse_shard_file(to_json(file));

  EXPECT_EQ(parsed.shard_index, 1u);
  EXPECT_EQ(parsed.shard_count, 2u);
  ASSERT_EQ(parsed.experiments.size(), 1u);
  const cm::ShardExperiment& a = file.experiments[0];
  const cm::ShardExperiment& b = parsed.experiments[0];
  EXPECT_EQ(b.label, "test");
  EXPECT_EQ(b.config.master_seed, config.master_seed);  // exact via string
  EXPECT_EQ(b.config.replications, a.config.replications);
  EXPECT_EQ(b.config.buffer_sizes_cells, a.config.buffer_sizes_cells);
  ASSERT_EQ(b.samples.size(), a.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(b.samples[i].rep, a.samples[i].rep);
    EXPECT_EQ(b.samples[i].run.frames, a.samples[i].run.frames);
    EXPECT_EQ(b.samples[i].run.arrived_cells, a.samples[i].run.arrived_cells);
    ASSERT_EQ(b.samples[i].run.clr.size(), a.samples[i].run.clr.size());
    for (std::size_t j = 0; j < a.samples[i].run.clr.size(); ++j) {
      EXPECT_EQ(b.samples[i].run.clr[j].lost_cells,
                a.samples[i].run.clr[j].lost_cells);
      EXPECT_EQ(b.samples[i].run.clr[j].loss_frames,
                a.samples[i].run.clr[j].loss_frames);
    }
  }
  EXPECT_EQ(parsed.metrics.counters().at("test.runs"), 1u);
  EXPECT_EQ(parsed.metrics.sums().at("test.cells").value(),
            file.metrics.sums().at("test.cells").value());
}

TEST(ShardFile, ParserRejectsWrongSchema) {
  EXPECT_THROW(cm::parse_shard_file("{\"schema\":\"other.v1\"}"),
               cu::InvalidArgument);
  EXPECT_THROW(cm::parse_shard_file("{}"), cu::InvalidArgument);
  EXPECT_THROW(cm::parse_shard_file("not json"), cu::InvalidArgument);
}

TEST(ShardFile, ParserRejectsCountsThatAreNotIntegers) {
  const std::string good =
      to_json(make_shard_file(cf::make_ar1(0.8), small_config(), 0, 1));
  ASSERT_NO_THROW(cm::parse_shard_file(good));
  const std::pair<const char*, const char*> cases[] = {
      {"\"rep\":", "1.9"},
      {"\"rep\":", "-1"},
      {"\"frames\":", "1e300"},
      {"\"loss_frames\":", "2.5"},
      {"\"exceed_frames\":", "-0.5"},
      {"\"replications\":", "4.5"},
      {"\"warmup_frames\":", "1e19"},
      {"\"index\":", "0.5"},
  };
  for (const auto& [key, value] : cases) {
    SCOPED_TRACE(std::string(key) + "=" + value);
    EXPECT_THROW(cm::parse_shard_file(with_number(good, key, value)),
                 cu::InvalidArgument);
  }
}

// The field-name prefix of an integer read is built only when the read
// fails; the message still names the field.
TEST(ShardFile, FailingIntegerReadNamesTheField) {
  const std::string good =
      to_json(make_shard_file(cf::make_ar1(0.8), small_config(), 0, 1));
  const std::pair<const char*, const char*> cases[] = {
      {"\"rep\":", "cts.shard.v1 rep must be an integer"},
      {"\"loss_frames\":", "cts.shard.v1 loss_frames must be an integer"},
      {"\"exceed_frames\":",
       "cts.shard.v1 exceed_frames must be an integer"},
      {"\"warmup_frames\":",
       "cts.shard.v1 warmup_frames must be an integer"},
  };
  for (const auto& [key, message] : cases) {
    SCOPED_TRACE(key);
    try {
      (void)cm::parse_shard_file(with_number(good, key, "2.5"));
      ADD_FAILURE() << "a count of 2.5 was accepted";
    } catch (const cu::InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
}

TEST(ShardMerge, WriteParseMergeIsBitIdentical) {
  const cf::ModelSpec model = cf::make_ar1(0.8);
  cm::ReplicationConfig config = small_config();
  config.threads = 1;
  const cm::ReplicationResult baseline = cm::run_replicated(model, config);

  // Full pipeline: run each shard, serialize, parse back, merge.
  std::vector<cm::ShardFile> files;
  for (std::size_t i = 0; i < 2; ++i) {
    files.push_back(
        cm::parse_shard_file(to_json(make_shard_file(model, config, i, 2))));
  }
  const cm::MergedShards merged = cm::merge_shard_files(files);
  ASSERT_EQ(merged.experiments.size(), 1u);
  expect_bit_identical(baseline, merged.experiments[0].result);
  EXPECT_EQ(merged.experiments[0].config.shard_count, 1u);
  // Registry snapshots fold across shards: counters add, sums accumulate.
  EXPECT_EQ(merged.metrics.counters().at("test.runs"), 2u);
}

TEST(ShardMerge, RejectsIncompleteOrInconsistentSets) {
  const cf::ModelSpec model = cf::make_ar1(0.8);
  const cm::ReplicationConfig config = small_config();
  const cm::ShardFile s0 = make_shard_file(model, config, 0, 2);
  const cm::ShardFile s1 = make_shard_file(model, config, 1, 2);

  EXPECT_THROW(cm::merge_shard_files({}), cu::InvalidArgument);
  EXPECT_THROW(cm::merge_shard_files({s0}), cu::InvalidArgument);     // missing
  EXPECT_THROW(cm::merge_shard_files({s0, s0}), cu::InvalidArgument);  // dup

  cm::ShardFile tampered = s1;
  tampered.experiments[0].config.master_seed ^= 1;
  EXPECT_THROW(cm::merge_shard_files({s0, tampered}), cu::InvalidArgument);

  cm::ShardFile relabeled = s1;
  relabeled.experiments[0].label = "other";
  EXPECT_THROW(cm::merge_shard_files({s0, relabeled}), cu::InvalidArgument);
}

TEST(ShardRecorder, RecordsRunsAndWritesFile) {
  const std::string path =
      testing::TempDir() + "/cts_shard_recorder_test.json";
  cm::ShardRecorder& recorder = cm::ShardRecorder::global();
  recorder.enable(path);
  EXPECT_TRUE(recorder.enabled());

  const cf::ModelSpec model = cf::make_ar1(0.8);
  cm::ReplicationConfig config = small_config();
  config.shard_index = 1;
  config.shard_count = 2;
  config.progress_label = "recorded";
  (void)cm::run_replicated(model, config);

  co::MetricsRegistry snapshot_source;
  snapshot_source.add("recorder.test", 7);
  ASSERT_TRUE(recorder.write(snapshot_source));
  recorder.disable();
  EXPECT_FALSE(recorder.enabled());

  const cm::ShardFile file = cm::read_shard_file(path);
  EXPECT_EQ(file.shard_index, 1u);
  EXPECT_EQ(file.shard_count, 2u);
  ASSERT_EQ(file.experiments.size(), 1u);
  EXPECT_EQ(file.experiments[0].label, "recorded");
  // Shard 1/2 of 5 reps runs global indices 2, 3, 4.
  ASSERT_EQ(file.experiments[0].samples.size(), 3u);
  EXPECT_EQ(file.experiments[0].samples[0].rep, 2u);
  EXPECT_EQ(file.metrics.counters().at("recorder.test"), 7u);
  std::remove(path.c_str());
}

TEST(MetricsSnapshot, RoundTripPreservesMergeState) {
  co::MetricsShard shard;
  shard.add("runs", 3);
  for (int i = 0; i < 1000; ++i) shard.add_sum("cells", 1e-3);
  shard.gauge("peak", 7.5, co::GaugeMode::kMax);
  shard.gauge("threads", 4.0);
  shard.observe_log("wall", 2.5);
  shard.observe_log("wall", 0.5);

  std::ostringstream os;
  co::JsonWriter w(os);
  co::write_metrics_snapshot(w, shard);
  const co::MetricsShard restored =
      co::metrics_snapshot_from_json(co::json_parse(os.str()));

  EXPECT_EQ(restored.counters().at("runs"), 3u);
  EXPECT_EQ(restored.sums().at("cells").value(),
            shard.sums().at("cells").value());
  EXPECT_EQ(restored.sums().at("cells").compensation(),
            shard.sums().at("cells").compensation());
  EXPECT_EQ(restored.gauges().at("peak").mode, co::GaugeMode::kMax);
  EXPECT_EQ(restored.gauges().at("peak").value, 7.5);
  const co::LogHistogramCell& h = restored.log_histograms().at("wall");
  const co::LogHistogramCell& orig = shard.log_histograms().at("wall");
  EXPECT_EQ(h.buckets(), orig.buckets());
  EXPECT_EQ(h.stats().count(), 2u);
  EXPECT_EQ(h.stats().mean(), orig.stats().mean());
  EXPECT_EQ(h.stats().m2(), orig.stats().m2());
  EXPECT_EQ(h.stats().min(), 0.5);
  EXPECT_EQ(h.stats().max(), 2.5);

  // A kMax gauge restored on another process keeps max semantics on merge.
  co::MetricsShard other;
  other.gauge("peak", 3.0, co::GaugeMode::kMax);
  other.merge(restored);
  EXPECT_EQ(other.gauges().at("peak").value, 7.5);
}

TEST(MetricsSnapshot, RejectsCountsThatAreNotIntegers) {
  co::MetricsShard shard;
  shard.add("runs", 3);
  shard.observe_log("lat", 4.0);
  std::ostringstream os;
  co::JsonWriter w(os);
  co::write_metrics_snapshot(w, shard);
  const std::string good = os.str();
  ASSERT_NO_THROW(co::metrics_snapshot_from_json(co::json_parse(good)));
  // A fractional counter used to merge truncated (2.5 -> 2); 1e300 was a
  // cast out of range.
  const std::pair<const char*, const char*> cases[] = {
      {"\"runs\":", "2.5"},   {"\"runs\":", "-1"},
      {"\"runs\":", "1e300"}, {"\"count\":", "1.5"},
      {"\"zero\":", "0.5"},   {"\"indexes\":[", "1e10"},
  };
  for (const auto& [key, value] : cases) {
    SCOPED_TRACE(std::string(key) + "=" + value);
    EXPECT_THROW(co::metrics_snapshot_from_json(
                     co::json_parse(with_number(good, key, value))),
                 cu::InvalidArgument);
  }
}

TEST(SeedProvenance, RegistryCarriesExactSeedAndFrameTotals) {
  co::MetricsRegistry& registry = co::MetricsRegistry::global();
  registry.reset();

  const cf::ModelSpec model = cf::make_ar1(0.8);
  cm::ReplicationConfig config = small_config();
  config.master_seed = (1ULL << 53) + 1;  // rounds away as a double
  (void)cm::run_replicated(model, config);

  // The split hi/lo gauges reconstruct the exact 64-bit seed; each half
  // fits a double exactly.
  const std::uint64_t hi =
      static_cast<std::uint64_t>(registry.gauge_value("sim.master_seed_hi"));
  const std::uint64_t lo =
      static_cast<std::uint64_t>(registry.gauge_value("sim.master_seed_lo"));
  EXPECT_EQ((hi << 32) | lo, config.master_seed);

  // Measured and warmup frames are recorded separately (the old
  // sim.frames_total silently disagreed with the progress total).
  EXPECT_EQ(registry.counter("sim.frames_total"),
            config.replications * config.frames_per_replication);
  EXPECT_EQ(registry.counter("sim.warmup_frames_total"),
            config.replications * config.warmup_frames);
  EXPECT_EQ(registry.counter("sim.replications"), config.replications);
  registry.reset();
}

TEST(EnvOverrides, RejectsInvalidValuesWithClearErrors) {
  const auto expect_rejects = [](const char* var, const char* value) {
    ::setenv(var, value, 1);
    try {
      cm::apply_env_overrides(cm::default_scale());
      ADD_FAILURE() << var << "=" << value << " was accepted";
    } catch (const cu::InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(var), std::string::npos) << what;
      EXPECT_NE(what.find(value), std::string::npos) << what;
    }
    ::unsetenv(var);
  };
  expect_rejects("REPRO_REPS", "-1");
  expect_rejects("REPRO_REPS", "0");
  expect_rejects("REPRO_REPS", "12abc");
  expect_rejects("REPRO_FRAMES", "0");
  expect_rejects("REPRO_FRAMES", "-7");
  expect_rejects("REPRO_SHARD", "junk");
  expect_rejects("REPRO_SHARD", "2/2");
}

TEST(EnvOverrides, AppliesShardSpec) {
  ::setenv("REPRO_SHARD", "1/3", 1);
  const cm::ReplicationConfig config =
      cm::apply_env_overrides(cm::default_scale());
  EXPECT_EQ(config.shard_index, 1u);
  EXPECT_EQ(config.shard_count, 3u);
  ::unsetenv("REPRO_SHARD");
}
