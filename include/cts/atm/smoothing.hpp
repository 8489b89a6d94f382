// Deterministic frame-to-cell smoothing.
//
// Real-time VBR video encoders emit a frame every Ts seconds; the ATM
// adaptation layer spaces its cells evenly across the frame interval
// ("deterministic smoothing", the paper's Section 5.5 assumption).  This
// module computes the cell spacing of that schedule and the multi-frame
// shaper the scenario pipeline applies before policing.

#pragma once

#include <cstdint>
#include <vector>

namespace cts::obs {
class MetricsShard;
}

namespace cts::atm {

/// Inter-cell gap of `cells` cells smoothed over a frame of `Ts` seconds
/// (Ts / cells; cell j departs at (j + 1/2) Ts / cells); 0 when
/// cells == 0.
double smoothing_gap(std::uint64_t cells, double Ts);

/// Multi-frame traffic shaper: emits the moving average of the last
/// `window` frames' cell counts (fewer while the window fills), spreading
/// bursts across frames — the inter-frame generalisation of the
/// within-frame deterministic smoothing above.  A window of 0 or 1 passes
/// frames through unchanged.
///
/// The smoother is obs-aware in the accumulate-then-reduce idiom: push()
/// never touches a registry; flush() folds the local tallies into a
/// MetricsShard as atm.smoothing.frames / atm.smoothing.cells_in /
/// atm.smoothing.cells_out and resets them.
class FrameSmoother {
 public:
  explicit FrameSmoother(std::size_t window);

  /// Consumes one frame's cell count, returns the smoothed count.
  double push(double frame_cells);

  std::size_t window() const noexcept { return window_; }

  /// Folds and resets the tallies accumulated since the last flush.
  void flush(obs::MetricsShard& shard);

 private:
  std::size_t window_;
  std::vector<double> ring_;
  std::size_t pos_ = 0;
  std::size_t filled_ = 0;
  std::uint64_t frames_ = 0;
  double cells_in_ = 0.0;
  double cells_out_ = 0.0;
};

}  // namespace cts::atm
