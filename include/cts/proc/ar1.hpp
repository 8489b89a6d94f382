// Gaussian first-order autoregressive frame source.
//
//   X_n = mu + phi (X_{n-1} - mu) + sqrt(1 - phi^2) sigma W_n,  W_n ~ N(0,1)
//
// Marginal N(mu, sigma^2), ACF r(k) = phi^k.  Included as the classical
// Markov reference model: the paper cites the AR(1) CTS scaling
// m*_b ~ b / (c - mu) (Courcoubetis & Weber).

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cts/proc/frame_source.hpp"
#include "cts/util/rng.hpp"

namespace cts::proc {

/// Parameters of a Gaussian AR(1) frame source.
struct Ar1Params {
  double phi = 0.8;        ///< lag-1 autocorrelation, |phi| < 1
  double mean = 500.0;     ///< marginal mean
  double variance = 5000.0;///< marginal variance

  void validate() const;
};

/// Gaussian AR(1) frame source, stationary from the first sample.
class Ar1Source final : public FrameSource {
 public:
  Ar1Source(const Ar1Params& params, std::uint64_t seed);

  double next_frame() override;
  void fill(double* out, std::size_t n) override;
  double mean() const override { return params_.mean; }
  double variance() const override { return params_.variance; }
  std::unique_ptr<FrameSource> clone(std::uint64_t seed) const override;
  std::string name() const override;

  const Ar1Params& params() const noexcept { return params_; }

 private:
  Ar1Params params_;
  util::Xoshiro256pp rng_;
  util::NormalSampler normal_;
  double innovation_sd_ = 0.0;  ///< sqrt((1 - phi^2) sigma^2)
  double state_;
};

}  // namespace cts::proc
