// Fractal-Binomial-Noise-Driven Poisson process (FBNDP), Ryu & Lowen.
//
// A doubly-stochastic Poisson process whose instantaneous rate is
// R * (number of ON sources) where the ON/OFF superposition is fractal
// binomial noise.  Counting the arrivals in consecutive frame windows of
// T_s seconds yields the exact-LRD frame-size process L of the paper:
//
//   mu      = lambda T_s,                lambda = R M / 2
//   sigma^2 = [1 + (T_s/T_0)^alpha] lambda T_s
//   r(k)    = w * (1/2) grad^2(k^{alpha+1}),   w = T_s^alpha/(T_s^alpha+T_0^alpha)
//   H       = (alpha + 1)/2
//
// with T_0 the fractal onset time (closed form below, paper Section 3.2).

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cts/proc/fbn.hpp"
#include "cts/proc/frame_source.hpp"
#include "cts/util/rng.hpp"

namespace cts::proc {

/// Full parameter set of an FBNDP frame source.
struct FbndpParams {
  double alpha = 0.8;  ///< fractal exponent, in (0, 1)
  double A = 1.0;      ///< ON/OFF crossover scale (seconds)
  std::uint32_t M = 15;///< number of superposed ON/OFF processes
  double R = 1.0;      ///< Poisson rate while one source is ON (cells/sec)
  double Ts = 0.04;    ///< frame duration (seconds)

  void validate() const;

  /// Hurst parameter H = (alpha+1)/2.
  double hurst() const noexcept { return (alpha + 1.0) / 2.0; }

  /// Mean arrival rate lambda = R*M/2 (cells/sec).
  double lambda() const noexcept { return R * static_cast<double>(M) / 2.0; }

  /// Fractal onset time T_0 (seconds), closed form of Section 3.2:
  ///   T_0 = { alpha(alpha+1)(2-alpha)^{-1}[(1-alpha)e^{2-alpha}+1]
  ///           * R^{-1} A^{alpha-1} }^{1/alpha}.
  double fractal_onset_time() const;

  /// Mean frame size mu = lambda*Ts (cells/frame).
  double frame_mean() const noexcept { return lambda() * Ts; }

  /// Frame-size variance sigma^2 = [1+(Ts/T0)^alpha] * lambda * Ts.
  double frame_variance() const;

  /// ACF weight w = Ts^alpha / (Ts^alpha + T0^alpha); equals the g(Ts) of
  /// the paper's exact-LRD definition (eq. 2).
  double acf_weight() const;

  /// Analytic frame autocorrelation r(k) = w * (1/2) grad^2(k^{alpha+1}).
  double acf(std::size_t k) const;
};

/// FBNDP frame-size source: Poisson counts per frame window, conditionally
/// on the integrated fractal-binomial rate.
class FbndpSource final : public FrameSource {
 public:
  FbndpSource(const FbndpParams& params, std::uint64_t seed);
  ~FbndpSource() override;  ///< flushes the frame count to the obs registry

  double next_frame() override;
  void fill(double* out, std::size_t n) override;
  double mean() const override { return params_.frame_mean(); }
  double variance() const override { return params_.frame_variance(); }
  std::unique_ptr<FrameSource> clone(std::uint64_t seed) const override;
  std::string name() const override;

  const FbndpParams& params() const noexcept { return params_; }

 private:
  FbndpParams params_;
  util::Xoshiro256pp rng_;
  FractalBinomialNoise fbn_;
  std::uint64_t frames_generated_ = 0;
};

}  // namespace cts::proc
