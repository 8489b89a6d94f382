// Frame-level fluid ATM multiplexer.
//
// The paper's simulation assumes frame-aligned sources with cells
// equispaced over the frame (deterministic smoothing) and a constant-rate
// server.  Within one frame both the aggregate arrival rate and the service
// rate are then constant, so the queue moves linearly and the per-frame
// loss has the exact closed form
//
//   loss_n  = (W_n + A_n - C - B)^+                      (finite buffer B)
//   W_{n+1} = min(B, (W_n + A_n - C)^+),
//
// where A_n is the total cells arriving in frame n and C the service
// capacity in cells/frame.  The same recursion with B = infinity yields the
// workload used for buffer-overflow probabilities.  Because the recursion
// for every buffer size consumes the same arrival sequence, one pass
// evaluates a whole vector of buffer sizes (and BOP thresholds) at once --
// this is what makes the paper-scale sweeps affordable.  The buffers run as
// the lanes of the SIMD kernel core::simd::fifo_step; each measured frame
// bins the infinite-buffer workload once against the sorted thresholds.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cts/proc/frame_source.hpp"

namespace cts::obs {
class ProgressReporter;
}

namespace cts::sim {

class FillBoard;

/// Per-buffer-size tallies of one finite-buffer run.
struct ClrTally {
  double buffer_cells = 0.0;   ///< B (total cells)
  double lost_cells = 0.0;     ///< cells lost at this buffer size
  std::uint64_t loss_frames = 0;  ///< frames in which any loss occurred

  /// Cell loss rate given total arrivals.
  double clr(double arrived_cells) const {
    return arrived_cells > 0.0 ? lost_cells / arrived_cells : 0.0;
  }
};

/// Per-threshold tallies of one infinite-buffer run.
struct BopTally {
  double threshold_cells = 0.0;    ///< x
  std::uint64_t exceed_frames = 0; ///< frames with W > x

  double bop(std::uint64_t frames) const {
    return frames > 0 ? static_cast<double>(exceed_frames) /
                            static_cast<double>(frames)
                      : 0.0;
  }
};

/// Result of one FluidMux run.
struct FluidRunResult {
  std::uint64_t frames = 0;
  double arrived_cells = 0.0;
  std::vector<ClrTally> clr;  ///< one entry per requested buffer size
  std::vector<BopTally> bop;  ///< one entry per requested threshold
  /// Peak infinite-buffer workload over the measured frames (cells) —
  /// observability only; it feeds the obs registry's queue-peak gauge.
  double peak_workload_cells = 0.0;
};

/// Configuration of a fluid multiplexer run.
struct FluidRunConfig {
  std::uint64_t frames = 100000;   ///< measured frames
  std::uint64_t warmup_frames = 1000;
  double capacity_cells = 16140.0; ///< C, total cells/frame (= N * c)
  std::vector<double> buffer_sizes_cells;   ///< finite-buffer sizes to track
  std::vector<double> bop_thresholds_cells; ///< infinite-buffer thresholds
  /// Optional progress sink, ticked every few thousand frames.  Not owned.
  obs::ProgressReporter* progress = nullptr;
  /// Optional task board of the replication pool running this mux; each
  /// chunk's source fills are posted there (cts/sim/fill_board.hpp).
  /// Null fills every row on the calling thread.  Not owned.
  FillBoard* fills = nullptr;
};

/// Fluid frame-level multiplexer over a set of homogeneous (or not)
/// sources.  The sources are owned by the caller and read one chunk of
/// kChunkFrames frames at a time: one row per source (FrameSource::fill),
/// summed source by source into each frame's arrivals, then the per-frame
/// recursion.  A frame's arrivals are added in source order from 0.0,
/// exactly as with one next_frame() call per source per frame.
class FluidMux {
 public:
  /// Frames per chunk.  The row block of one run holds
  /// sources.size() * kChunkFrames doubles.
  static constexpr std::size_t kChunkFrames = 256;

  /// Runs the recursion over `sources`, which must be non-empty.
  static FluidRunResult run(
      std::vector<std::unique_ptr<proc::FrameSource>>& sources,
      const FluidRunConfig& config);
};

}  // namespace cts::sim
