// Frame-size trace replay.
//
// The studies this paper argues with (Beran et al., Garrett & Willinger,
// Heyman & Lakshman) all work from captured frame-size traces (Star Wars,
// videoconference recordings).  TraceSource replays a recorded trace as a
// FrameSource (with wraparound and an optional random start phase); the
// golden fluid-mux tallies replay the golden FBNDP frames through it.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cts/proc/frame_source.hpp"
#include "cts/util/rng.hpp"

namespace cts::proc {

/// Replays a recorded trace as a FrameSource.
///
/// `randomize_phase` starts each clone at an independent uniform offset --
/// the standard trick for multiplexing N "independent" sources from one
/// recording (used by Heyman & Lakshman and Elwalid et al.).
class TraceSource final : public FrameSource {
 public:
  TraceSource(std::vector<double> trace, std::uint64_t seed,
              bool randomize_phase = true);

  double next_frame() override;
  void fill(double* out, std::size_t n) override;
  /// Sample mean/variance of the recording (the "analytic" moments of a
  /// trace are its empirical ones).
  double mean() const override { return mean_; }
  double variance() const override { return variance_; }
  std::unique_ptr<FrameSource> clone(std::uint64_t seed) const override;
  std::string name() const override;

  std::size_t length() const noexcept { return trace_->size(); }

 private:
  std::shared_ptr<const std::vector<double>> trace_;  ///< shared by clones
  double mean_;
  double variance_;
  bool randomize_phase_;
  std::size_t pos_ = 0;
};

}  // namespace cts::proc
