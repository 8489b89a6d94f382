// Discrete-time M/G/infinity input model (Cox 1984).
//
// The model behind the "hyperbolic BOP decay" results the paper contrasts
// itself with (Likhanov et al.; Parulekar & Makowski): sessions arrive as a
// per-frame Poisson stream, each holds for a heavy-tailed number of frames,
// and the frame load is (active sessions) x (cells per session per frame).
//
//   durations:  P(tau > j) = min(1, (x_m / j)^beta),  1 < beta < 2
//   marginal:   Poisson(session_rate * E[tau]), scaled by cells/session
//   ACF:        r(k) = sum_{j >= k} S(j) / sum_{j >= 0} S(j)
//               (S(j) = P(tau > j)), hence r(k) ~ k^{1-beta}: exact LRD
//               with H = (3 - beta) / 2.
//
// The source starts in its stationary regime: Poisson(session_rate E[tau])
// initial sessions with equilibrium residual durations.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cts/core/acf_model.hpp"
#include "cts/proc/frame_source.hpp"
#include "cts/util/rng.hpp"

namespace cts::proc {

/// Parameters of the M/G/infinity frame source.
struct MgInfParams {
  double session_rate = 1.0;      ///< expected new sessions per frame
  double beta = 1.4;              ///< Pareto exponent of durations, (1, 2)
  double min_duration = 1.0;      ///< x_m (frames), >= 1
  double cells_per_session = 10.0;///< per active session per frame

  void validate() const;

  /// Hurst parameter H = (3 - beta) / 2.
  double hurst() const noexcept { return (3.0 - beta) / 2.0; }

  /// Duration survival S(j) = P(tau > j).
  double duration_survival(std::uint64_t j) const;

  /// Mean duration E[tau] = sum_{j>=0} S(j) (closed tail + finite head).
  double mean_duration() const;

  /// Mean frame size: session_rate * E[tau] * cells_per_session.
  double frame_mean() const;

  /// Frame variance: the active-session count is Poisson, so
  /// variance = cells_per_session^2 * session_rate * E[tau].
  double frame_variance() const;

  /// Convenience: parameters matching a target (mean, variance, beta);
  /// cells_per_session = variance/mean, sessions sized accordingly.
  static MgInfParams for_moments(double mean, double variance, double beta,
                                 double min_duration = 1.0);
};

/// Analytic ACF of the M/G/infinity frame process (cached partial sums of
/// the duration survival; exact up to quadrature of the Pareto tail).
class MgInfAcf final : public core::AcfModel {
 public:
  explicit MgInfAcf(const MgInfParams& params);
  double at(std::size_t k) const override;
  std::string name() const override;

 private:
  void extend(std::size_t k) const;

  MgInfParams params_;
  double mean_duration_;
  /// tail_sum_[k] = sum_{j >= k} S(j); grown on demand.
  mutable std::vector<double> head_cumulative_{0.0};  ///< sum_{j<k} S(j)
};

/// M/G/infinity frame source.
class MgInfSource final : public FrameSource {
 public:
  MgInfSource(const MgInfParams& params, std::uint64_t seed);

  double next_frame() override;
  void fill(double* out, std::size_t n) override;
  double mean() const override { return params_.frame_mean(); }
  double variance() const override { return params_.frame_variance(); }
  std::unique_ptr<FrameSource> clone(std::uint64_t seed) const override;
  std::string name() const override;

  std::uint64_t active_sessions() const noexcept { return active_; }

 private:
  std::uint64_t sample_duration();
  std::uint64_t sample_equilibrium_residual();
  void schedule(std::uint64_t expiry_frame);

  MgInfParams params_;
  util::Xoshiro256pp rng_;
  std::uint64_t now_ = 0;
  std::uint64_t active_ = 0;
  /// expiry frame -> number of sessions ending at the start of that frame.
  std::unordered_map<std::uint64_t, std::uint32_t> expirations_;
};

}  // namespace cts::proc
