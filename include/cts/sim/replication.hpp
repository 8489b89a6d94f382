// Multithreaded independent-replication harness.
//
// The paper estimates each CLR point from 60 replications of 500k frames.
// This harness runs R independent replications of a fluid-mux experiment
// across a thread pool.  Seeds are derived deterministically from
// (master_seed, replication index, source index), so the results are
// bit-identical for any thread count.
//
// The pool hands out replications, but shares their sources: the fluid
// multiplexer reads its N sources one 256-frame chunk at a time and posts
// the chunk's N source fills to the pool's task board (cts/sim/
// fill_board.hpp), where any idle thread may run them.  Each source owns
// its RNG and each row is one fill() call, so a row holds the frames one
// thread would have drawn, and the rows are summed in source order: the
// tallies are bit-identical to a one-thread run whatever thread fills
// which row.  A curve with fewer replications than threads therefore
// still keeps every thread busy.
//
// Replications can additionally be sharded across worker PROCESSES: a
// worker configured as shard i of n runs only the replications whose
// global index falls in its contiguous slice [i*R/n, (i+1)*R/n).  Seeds
// still derive from the global index, and aggregate_replications consumes
// per-replication tallies in ascending global order, so merging the n
// shard slices reproduces the single-process ReplicationResult bit for
// bit (see cts/sim/shard.hpp for the cts.shard.v1 file format and the
// merge entry points used by tools/cts_simd).

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cts/fit/model_zoo.hpp"
#include "cts/sim/fill_board.hpp"
#include "cts/sim/fluid_mux.hpp"
#include "cts/stats/batch.hpp"

namespace cts::sim {

/// Harness-level knobs of a generic sharded replication run: everything
/// run_replicated needs that is not specific to the fluid-mux experiment.
/// Shared by run_replicated and the scenario executor
/// (cts/sim/scenario_run.hpp) so both inherit the same slice math, thread
/// pool, config-echo gauges, progress wiring, and wall-time histogram.
struct SliceDriverConfig {
  std::size_t replications = 12;  ///< GLOBAL replication count, all shards
  std::uint64_t frames_per_replication = 120000;
  std::uint64_t warmup_frames = 2000;
  std::uint64_t master_seed = 0x5EEDC0DEULL;
  unsigned threads = 0;  ///< 0 = hardware concurrency
  /// Process-level sharding: this worker runs global replication indices
  /// in [shard_index*R/shard_count, (shard_index+1)*R/shard_count).  The
  /// default 0/1 runs everything (single-process mode).
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  /// Label shown on the stderr progress line; empty = "sim".
  std::string progress_label;
  /// Progress reporting opt-out for library callers (the reporter itself
  /// additionally disables when stderr is not a TTY or CTS_QUIET is set).
  bool progress = true;
};

/// Configuration of a replication experiment: the harness knobs plus the
/// fluid-mux geometry every replication shares.
struct ReplicationConfig : SliceDriverConfig {
  std::size_t n_sources = 30;
  double capacity_cells = 16140.0;  ///< total C (cells/frame)
  std::vector<double> buffer_sizes_cells;
  std::vector<double> bop_thresholds_cells;
};

/// Aggregated outcome for one buffer size.
struct ClrEstimate {
  double buffer_cells = 0.0;
  stats::IntervalEstimate clr;      ///< mean CLR across replications
  double pooled_clr = 0.0;          ///< total lost / total arrived
};

/// Aggregated outcome for one BOP threshold.
struct BopEstimate {
  double threshold_cells = 0.0;
  stats::IntervalEstimate bop;
  double pooled_bop = 0.0;
};

/// One replication's raw fluid-mux tallies, tagged with its GLOBAL
/// replication index so shard slices can be merged in canonical order.
struct ReplicationSample {
  std::uint64_t rep = 0;  ///< global replication index
  FluidRunResult run;
};

/// Full result of a replication experiment.  For a sharded run this covers
/// only the worker's slice; merging all slices (cts/sim/shard.hpp)
/// reproduces the single-process result exactly.
struct ReplicationResult {
  std::vector<ClrEstimate> clr;
  std::vector<BopEstimate> bop;
  double total_arrived_cells = 0.0;
  std::uint64_t total_frames = 0;
  /// Raw per-replication tallies (ascending global index) — the shard
  /// serialization payload, and what aggregate_replications consumes.
  std::vector<ReplicationSample> samples;
};

/// One worker's contiguous slice [lo, hi) of global replication indices
/// (shard i of n owns [i*R/n, (i+1)*R/n)).
struct ShardSliceRange {
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::size_t size() const { return hi - lo; }
};

/// Computes shard `shard_index`-of-`shard_count`'s slice of `replications`
/// global indices.  Validates the shard layout (index < count,
/// count <= replications) so every caller fails with the same message.
ShardSliceRange shard_slice(std::size_t replications, std::size_t shard_index,
                            std::size_t shard_count);

/// Deterministic per-replication seed root, derived from the GLOBAL
/// replication index only — independent of thread layout and shard layout.
/// Seed a util::SplitMix64 with this and draw per-source seeds from it in a
/// fixed order; that is the whole bit-identical-sharding contract.
inline std::uint64_t replication_seed_root(std::uint64_t master_seed,
                                           std::size_t rep) {
  return master_seed +
         0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(rep) + 1);
}

/// The body of a replication pool: runs global replication `rep` (`local`
/// = rep - slice.lo).  `board` is the pool's task board; a body that hands
/// it to FluidRunConfig::fills shares its source fills with the pool.
using ReplicationBody =
    std::function<void(std::size_t rep, std::size_t local,
                        obs::ProgressReporter& reporter, FillBoard& board)>;

/// Runs `body` for every global replication index in this worker's slice
/// on a pool of `config.threads` threads (0 = hardware concurrency), even
/// when the slice has fewer replications than that: threads with no
/// replication left run the open source fills of the others (see
/// cts/sim/fill_board.hpp), so a 2-replication curve keeps 4 threads busy.
/// Handles validation, sim.* config-echo gauges/counters, the stderr
/// progress reporter (body may tick frames on it), the per-replication
/// "replication" trace span and sim.replication.wall_ms histogram.
/// Returns the slice so callers can size result arrays (call shard_slice
/// first when sizing must happen before the run).  The body must be
/// thread-safe across distinct `local` indices.  The first exception a body
/// throws is rethrown once every thread has joined.
ShardSliceRange run_replication_slice(const SliceDriverConfig& config,
                                      const ReplicationBody& body);

/// The same pool for a body that does not share its fills.
ShardSliceRange run_replication_slice(
    const SliceDriverConfig& config,
    const std::function<void(std::size_t rep, std::size_t local,
                             obs::ProgressReporter& reporter)>& body);

/// Runs `config.replications` independent fluid-mux runs of N i.i.d. copies
/// of `model` and aggregates the tallies.  With shard_count > 1 only this
/// worker's slice is run (and recorded into the global ShardRecorder when
/// one is enabled).
ReplicationResult run_replicated(const fit::ModelSpec& model,
                                 const ReplicationConfig& config);

/// Aggregates per-replication tallies into estimates: replication CIs from
/// the per-rep CLR/BOP samples, pooled CLR/BOP from the summed tallies.
/// `samples` must be ordered ascending by global index; both run_replicated
/// and the shard merger call this, which is what makes any shard layout
/// bit-identical to a single-process run.
ReplicationResult aggregate_replications(
    const std::vector<double>& buffer_sizes_cells,
    const std::vector<double>& bop_thresholds_cells,
    std::vector<ReplicationSample> samples);

/// Scale presets: `paper_scale()` reproduces the paper's 60 x 500k frames;
/// `default_scale()` is the CI-friendly default.  REPRO_FULL=1 in the
/// environment switches the bench harness to paper scale.
ReplicationConfig default_scale();
ReplicationConfig paper_scale();

/// Applies REPRO_FULL / REPRO_REPS / REPRO_FRAMES / REPRO_SHARD environment
/// overrides to a base configuration.  Malformed or out-of-range values
/// throw util::InvalidArgument naming the variable and the offending value.
ReplicationConfig apply_env_overrides(ReplicationConfig config);

}  // namespace cts::sim
