#include "cts/sim/replication.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "cts/obs/metrics.hpp"
#include "cts/obs/progress.hpp"
#include "cts/obs/trace.hpp"
#include "cts/sim/shard.hpp"
#include "cts/util/error.hpp"
#include "cts/util/flags.hpp"
#include "cts/util/rng.hpp"

namespace cts::sim {

ShardSliceRange shard_slice(std::size_t replications, std::size_t shard_index,
                            std::size_t shard_count) {
  util::require(replications >= 1,
                "shard_slice: need at least one replication");
  util::require(shard_count >= 1, "shard_slice: shard count must be >= 1");
  util::require(shard_index < shard_count,
                "shard_slice: shard index " + std::to_string(shard_index) +
                    " out of range for " + std::to_string(shard_count) +
                    " shards");
  util::require(shard_count <= replications,
                "shard_slice: " + std::to_string(shard_count) +
                    " shards need at least as many replications (got " +
                    std::to_string(replications) + ")");
  ShardSliceRange range;
  range.lo = replications * shard_index / shard_count;
  range.hi = replications * (shard_index + 1) / shard_count;
  return range;
}

ShardSliceRange run_replication_slice(const SliceDriverConfig& config,
                                      const ReplicationBody& body) {
  const ShardSliceRange range =
      shard_slice(config.replications, config.shard_index, config.shard_count);
  const std::size_t slice = range.size();

  // Not clamped to the slice: threads with no replication left share the
  // source fills of the others.
  unsigned threads = config.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());

  // Config echo into the registry: a --metrics report then records the
  // exact seed/scale/threads that produced its tallies.  The seed is split
  // into two 32-bit gauges because a double gauge silently rounds values
  // >= 2^53 — a report must never claim a seed that does not reproduce the
  // run.  Counters cover only this worker's slice so that merging all
  // shard registries reproduces the single-process totals.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.gauge("sim.threads", static_cast<double>(threads));
  registry.gauge("sim.master_seed_hi",
                 static_cast<double>(config.master_seed >> 32));
  registry.gauge("sim.master_seed_lo",
                 static_cast<double>(config.master_seed & 0xFFFFFFFFULL));
  if (config.shard_count > 1) {
    registry.gauge("sim.shard.index", static_cast<double>(config.shard_index));
    registry.gauge("sim.shard.count", static_cast<double>(config.shard_count));
  }
  registry.add("sim.replications", slice);
  // Measured and warmup frames are separate totals: the progress reporter
  // counts both, provenance needs them distinguished.
  registry.add("sim.frames_total", slice * config.frames_per_replication);
  registry.add("sim.warmup_frames_total", slice * config.warmup_frames);

  obs::ProgressReporter::Options popts;
  popts.label = config.progress_label.empty() ? "sim" : config.progress_label;
  popts.total_units = slice;
  popts.total_frames =
      slice * (config.frames_per_replication + config.warmup_frames);
  popts.force_disable = !config.progress;
  obs::ProgressReporter reporter(std::move(popts));

  FillBoard board(slice);
  const auto replication = [&](std::size_t local) {
    const std::size_t rep = range.lo + local;  // global index
    {
      CTS_TRACE_SPAN("replication");
      const auto t0 = std::chrono::steady_clock::now();
      body(rep, local, reporter, board);
      const double wall_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
      registry.observe_log("sim.replication.wall_ms", wall_ms);
    }
    reporter.unit_done();
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] { board.work(replication); });
  }
  for (auto& t : pool) t.join();
  reporter.finish();
  if (const std::exception_ptr failure = board.failure()) {
    std::rethrow_exception(failure);
  }
  return range;
}

ShardSliceRange run_replication_slice(
    const SliceDriverConfig& config,
    const std::function<void(std::size_t rep, std::size_t local,
                             obs::ProgressReporter& reporter)>& body) {
  return run_replication_slice(
      config, [&](std::size_t rep, std::size_t local,
                  obs::ProgressReporter& reporter,
                  FillBoard&) { body(rep, local, reporter); });
}

ReplicationResult run_replicated(const fit::ModelSpec& model,
                                 const ReplicationConfig& config) {
  CTS_TRACE_SPAN("replication.run");
  util::require(config.n_sources >= 1,
                "run_replicated: need at least one source");

  std::vector<FluidRunResult> per_rep(
      shard_slice(config.replications, config.shard_index, config.shard_count)
          .size());
  const ShardSliceRange range = run_replication_slice(
      config, [&](std::size_t rep, std::size_t local,
                  obs::ProgressReporter& reporter, FillBoard& board) {
        // Deterministic per-replication seed, derived from the GLOBAL
        // replication index — independent of thread and shard layout.
        util::SplitMix64 seeder(replication_seed_root(config.master_seed, rep));
        std::vector<std::unique_ptr<proc::FrameSource>> sources;
        sources.reserve(config.n_sources);
        for (std::size_t s = 0; s < config.n_sources; ++s) {
          sources.push_back(model.make_source(seeder.next()));
        }
        FluidRunConfig run;
        run.frames = config.frames_per_replication;
        run.warmup_frames = config.warmup_frames;
        run.capacity_cells = config.capacity_cells;
        run.buffer_sizes_cells = config.buffer_sizes_cells;
        run.bop_thresholds_cells = config.bop_thresholds_cells;
        run.progress = &reporter;
        run.fills = &board;
        per_rep[local] = FluidMux::run(sources, run);
      });

  std::vector<ReplicationSample> samples(range.size());
  for (std::size_t local = 0; local < range.size(); ++local) {
    samples[local].rep = range.lo + local;
    samples[local].run = std::move(per_rep[local]);
  }
  ReplicationResult result = aggregate_replications(
      config.buffer_sizes_cells, config.bop_thresholds_cells,
      std::move(samples));

  if (ShardRecorder::global().enabled()) {
    ShardRecorder::global().record(config, result.samples);
  }
  return result;
}

ReplicationResult aggregate_replications(
    const std::vector<double>& buffer_sizes_cells,
    const std::vector<double>& bop_thresholds_cells,
    std::vector<ReplicationSample> samples) {
  util::require(!samples.empty(),
                "aggregate_replications: need at least one sample");
  ReplicationResult result;
  result.clr.resize(buffer_sizes_cells.size());
  result.bop.resize(bop_thresholds_cells.size());
  for (std::size_t i = 0; i < result.clr.size(); ++i) {
    result.clr[i].buffer_cells = buffer_sizes_cells[i];
  }
  for (std::size_t i = 0; i < result.bop.size(); ++i) {
    result.bop[i].threshold_cells = bop_thresholds_cells[i];
  }

  double total_arrived = 0.0;
  std::uint64_t total_frames = 0;
  std::vector<std::vector<double>> clr_samples(result.clr.size());
  std::vector<std::vector<double>> bop_samples(result.bop.size());
  std::vector<double> lost_totals(result.clr.size(), 0.0);
  std::vector<double> exceed_totals(result.bop.size(), 0.0);

  for (const ReplicationSample& sample : samples) {
    const FluidRunResult& run = sample.run;
    util::require(run.clr.size() == result.clr.size() &&
                      run.bop.size() == result.bop.size(),
                  "aggregate_replications: sample tally shape does not match "
                  "the buffer/threshold grids");
    total_arrived += run.arrived_cells;
    total_frames += run.frames;
    for (std::size_t i = 0; i < run.clr.size(); ++i) {
      clr_samples[i].push_back(run.clr[i].clr(run.arrived_cells));
      lost_totals[i] += run.clr[i].lost_cells;
    }
    for (std::size_t i = 0; i < run.bop.size(); ++i) {
      bop_samples[i].push_back(run.bop[i].bop(run.frames));
      exceed_totals[i] += static_cast<double>(run.bop[i].exceed_frames);
    }
  }

  for (std::size_t i = 0; i < result.clr.size(); ++i) {
    result.clr[i].clr = stats::replication_interval(clr_samples[i]);
    result.clr[i].pooled_clr =
        total_arrived > 0.0 ? lost_totals[i] / total_arrived : 0.0;
  }
  for (std::size_t i = 0; i < result.bop.size(); ++i) {
    result.bop[i].bop = stats::replication_interval(bop_samples[i]);
    result.bop[i].pooled_bop =
        total_frames > 0 ? exceed_totals[i] / static_cast<double>(total_frames)
                         : 0.0;
  }
  result.total_arrived_cells = total_arrived;
  result.total_frames = total_frames;
  result.samples = std::move(samples);
  return result;
}

ReplicationConfig default_scale() {
  ReplicationConfig config;
  config.replications = 12;
  config.frames_per_replication = 120000;
  config.warmup_frames = 2000;
  return config;
}

ReplicationConfig paper_scale() {
  ReplicationConfig config;
  config.replications = 60;
  config.frames_per_replication = 500000;
  config.warmup_frames = 5000;
  return config;
}

ReplicationConfig apply_env_overrides(ReplicationConfig config) {
  if (util::env_flag("REPRO_FULL")) {
    const ReplicationConfig full = paper_scale();
    config.replications = full.replications;
    config.frames_per_replication = full.frames_per_replication;
    config.warmup_frames = full.warmup_frames;
  }
  // env_int throws on malformed values; additionally validate the range
  // here — a cast of -1 to unsigned would otherwise ask for ~2^64
  // replications, and 0 would only fail deep inside run_replicated with a
  // message that never mentions the environment variable.
  const std::int64_t reps = util::env_int(
      "REPRO_REPS", static_cast<std::int64_t>(config.replications));
  util::require(reps >= 1, "env REPRO_REPS: need at least 1 replication, got "
                               "'" + std::to_string(reps) + "'");
  config.replications = static_cast<std::size_t>(reps);
  const std::int64_t frames = util::env_int(
      "REPRO_FRAMES",
      static_cast<std::int64_t>(config.frames_per_replication));
  util::require(frames >= 1,
                "env REPRO_FRAMES: need at least 1 frame per replication, "
                "got '" + std::to_string(frames) + "'");
  config.frames_per_replication = static_cast<std::uint64_t>(frames);
  if (const char* raw = std::getenv("REPRO_SHARD")) {
    try {
      const ShardSpec spec = parse_shard_spec(raw);
      config.shard_index = spec.index;
      config.shard_count = spec.count;
    } catch (const util::InvalidArgument& e) {
      throw util::InvalidArgument(std::string("env REPRO_SHARD: ") + e.what());
    }
  }
  return config;
}

}  // namespace cts::sim
