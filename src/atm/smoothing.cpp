#include "cts/atm/smoothing.hpp"

#include <algorithm>

#include "cts/obs/metrics.hpp"
#include "cts/util/error.hpp"

namespace cts::atm {

double smoothing_gap(std::uint64_t cells, double Ts) {
  util::require(Ts > 0.0, "smoothing_gap: Ts must be > 0");
  return cells == 0 ? 0.0 : Ts / static_cast<double>(cells);
}

FrameSmoother::FrameSmoother(std::size_t window)
    : window_(std::max<std::size_t>(window, 1)), ring_(window_, 0.0) {}

double FrameSmoother::push(double frame_cells) {
  ++frames_;
  cells_in_ += frame_cells;
  if (window_ == 1) {
    cells_out_ += frame_cells;
    return frame_cells;
  }
  ring_[pos_] = frame_cells;
  pos_ = (pos_ + 1) % window_;
  if (filled_ < window_) ++filled_;
  // Direct summation over the (small) window: no running-sum drift, so
  // the output is bit-identical however the frames were batched.
  double sum = 0.0;
  for (std::size_t i = 0; i < filled_; ++i) sum += ring_[i];
  const double out = sum / static_cast<double>(filled_);
  cells_out_ += out;
  return out;
}

void FrameSmoother::flush(obs::MetricsShard& shard) {
  if (frames_ == 0) return;
  shard.add("atm.smoothing.frames", frames_);
  shard.add_sum("atm.smoothing.cells_in", cells_in_);
  shard.add_sum("atm.smoothing.cells_out", cells_out_);
  frames_ = 0;
  cells_in_ = 0.0;
  cells_out_ = 0.0;
}

}  // namespace cts::atm
