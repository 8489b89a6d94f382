// Quantisation of continuous frame sizes to whole ATM cells.
//
// The Gaussian-marginal models emit real-valued frame sizes; the cell-level
// simulator and the ATM framing layer need non-negative integer cell
// counts.  Rounding-and-clamping at zero is bias-free to first order when
// mu/sigma is large (mu = 500, sigma = 70.7 in the paper: the mass below
// zero is ~1e-12), and the class reports the exact clamp probability so
// callers can assert it is negligible.

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cts/proc/frame_source.hpp"

namespace cts::proc {

/// Wraps any FrameSource, rounding output to non-negative integers.
class GaussianQuantizer final : public FrameSource {
 public:
  explicit GaussianQuantizer(std::unique_ptr<FrameSource> inner);

  double next_frame() override;
  void fill(double* out, std::size_t n) override;
  double mean() const override { return inner_->mean(); }
  double variance() const override { return inner_->variance(); }
  std::unique_ptr<FrameSource> clone(std::uint64_t seed) const override;
  std::string name() const override;

  /// Probability that a N(mean, variance) sample falls below zero and is
  /// clamped (upper bound on the quantisation bias).
  double clamp_probability() const;

  /// Number of frames clamped to zero so far.
  std::uint64_t clamp_count() const noexcept { return clamp_count_; }

 private:
  std::unique_ptr<FrameSource> inner_;
  std::uint64_t clamp_count_ = 0;
};

}  // namespace cts::proc
