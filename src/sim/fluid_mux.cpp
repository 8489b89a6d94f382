#include "cts/sim/fluid_mux.hpp"

#include <algorithm>
#include <numeric>

#include "cts/core/simd.hpp"
#include "cts/obs/metrics.hpp"
#include "cts/obs/progress.hpp"
#include "cts/obs/trace.hpp"
#include "cts/sim/fill_board.hpp"
#include "cts/util/error.hpp"

namespace cts::sim {

FluidRunResult FluidMux::run(
    std::vector<std::unique_ptr<proc::FrameSource>>& sources,
    const FluidRunConfig& config) {
  CTS_TRACE_SPAN("fluid_mux.run");
  util::require(!sources.empty(), "FluidMux: need at least one source");
  util::require(config.capacity_cells > 0.0,
                "FluidMux: capacity must be > 0");
  for (const double b : config.buffer_sizes_cells) {
    util::require(b >= 0.0, "FluidMux: buffer sizes must be >= 0");
  }
  for (const double x : config.bop_thresholds_cells) {
    util::require(x >= 0.0, "FluidMux: BOP thresholds must be >= 0");
  }

  FluidRunResult result;
  result.frames = config.frames;
  result.clr.resize(config.buffer_sizes_cells.size());
  for (std::size_t i = 0; i < result.clr.size(); ++i) {
    result.clr[i].buffer_cells = config.buffer_sizes_cells[i];
  }
  result.bop.resize(config.bop_thresholds_cells.size());
  for (std::size_t i = 0; i < result.bop.size(); ++i) {
    result.bop[i].threshold_cells = config.bop_thresholds_cells[i];
  }

  // The finite buffers advance together as the lanes of one SIMD kernel
  // (structure of arrays); the infinite-buffer workload stays scalar.
  const std::size_t k = config.buffer_sizes_cells.size();
  std::vector<double> workload(k, 0.0);
  std::vector<double> lost(k, 0.0);
  std::vector<double> loss_comp(k, 0.0);  // Kahan compensation of `lost`
  std::vector<std::uint64_t> loss_frames(k, 0);
  const core::simd::FifoLanes lanes{workload.data(),
                                    config.buffer_sizes_cells.data(),
                                    lost.data(),
                                    loss_comp.data(),
                                    loss_frames.data(),
                                    k};
  const core::simd::Kind kind = core::simd::active();

  // BOP counting against the sorted thresholds: a measured frame lands in
  // hits[j], j = the number of thresholds strictly below W (lower_bound),
  // so threshold x is exceeded by the frames in hits[j'] for j' above x's
  // first sorted position.  Unsorted and duplicate thresholds work as is.
  std::vector<double> sorted = config.bop_thresholds_cells;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::uint64_t> hits(sorted.size() + 1, 0);

  double w_infinite = 0.0;
  const double c = config.capacity_cells;
  double arrived = 0.0;
  double arrived_comp = 0.0;  // Kahan compensation of `arrived`

  double peak_workload = 0.0;
  // Progress ticks are batched so the hot loop touches the reporter's
  // atomics only every kProgressStride frames.
  constexpr std::uint64_t kProgressStride = 8192;

  // One row of kChunkFrames frames per source, reused across chunks, and
  // each frame's arrivals summed in source order.
  const std::size_t n_sources = sources.size();
  std::vector<double> rows(n_sources * kChunkFrames);
  std::vector<double> arrivals(kChunkFrames);

  const std::uint64_t total = config.warmup_frames + config.frames;
  for (std::uint64_t first = 0; first < total; first += kChunkFrames) {
    const auto len = static_cast<std::size_t>(
        std::min<std::uint64_t>(kChunkFrames, total - first));
    if (config.fills != nullptr) {
      config.fills->fill(sources, rows.data(), kChunkFrames, len);
    } else {
      for (std::size_t s = 0; s < n_sources; ++s) {
        sources[s]->fill(rows.data() + s * kChunkFrames, len);
      }
    }
    std::fill_n(arrivals.begin(), len, 0.0);
    for (std::size_t s = 0; s < n_sources; ++s) {
      const double* row = rows.data() + s * kChunkFrames;
      for (std::size_t i = 0; i < len; ++i) arrivals[i] += row[i];
    }

    for (std::size_t i = 0; i < len; ++i) {
      const std::uint64_t n = first + i;
      const double a = arrivals[i];
      const bool measuring = n >= config.warmup_frames;
      if (config.progress != nullptr && (n + 1) % kProgressStride == 0) {
        config.progress->add_frames(kProgressStride);
      }

      if (measuring) {
        const double y = a - arrived_comp;
        const double t = arrived + y;
        arrived_comp = (t - arrived) - y;
        arrived = t;
      }

      const double net = a - c;
      core::simd::fifo_step(kind, lanes, net, measuring);

      w_infinite = std::max(w_infinite + net, 0.0);
      if (measuring) {
        if (w_infinite > peak_workload) peak_workload = w_infinite;
        ++hits[static_cast<std::size_t>(
            std::lower_bound(sorted.begin(), sorted.end(), w_infinite) -
            sorted.begin())];
      }
    }
  }
  if (config.progress != nullptr) {
    config.progress->add_frames(total % kProgressStride);
  }

  for (std::size_t i = 0; i < k; ++i) {
    result.clr[i].lost_cells = lost[i];
    result.clr[i].loss_frames = loss_frames[i];
  }
  // above[j] = hits[j] + hits[j + 1] + ...: the frames with W > sorted[j-1].
  std::vector<std::uint64_t> above(hits.size() + 1, 0);
  for (std::size_t j = hits.size(); j-- > 0;) above[j] = above[j + 1] + hits[j];
  for (BopTally& tally : result.bop) {
    const auto first = std::lower_bound(sorted.begin(), sorted.end(),
                                        tally.threshold_cells);
    tally.exceed_frames =
        above[static_cast<std::size_t>(first - sorted.begin()) + 1];
  }

  result.arrived_cells = arrived;
  result.peak_workload_cells = peak_workload;

  // One locked merge per run; the per-frame path above never touches the
  // registry (accumulate-then-reduce, like the replication tallies).
  obs::MetricsShard shard;
  shard.add("fluid_mux.runs");
  shard.add("fluid_mux.frames", config.frames);
  shard.add_sum("fluid_mux.arrived_cells", arrived);
  shard.add_sum("fluid_mux.lost_cells",
                std::accumulate(lost.begin(), lost.end(), 0.0));
  shard.add("fluid_mux.loss_frames",
            std::accumulate(loss_frames.begin(), loss_frames.end(),
                            std::uint64_t{0}));
  shard.gauge("fluid_mux.peak_workload_cells", peak_workload,
              obs::GaugeMode::kMax);
  obs::MetricsRegistry::global().merge(shard);
  return result;
}

}  // namespace cts::sim
