// Discrete AutoRegressive process of order p, DAR(p) (Jacobs & Lewis).
//
//   S_n = V_n * S_{n-A_n} + (1 - V_n) * eps_n,
//
// V_n ~ Bernoulli(rho), A_n picks lag i with probability a_i, eps_n i.i.d.
// with the desired stationary marginal.  The stationary marginal of {S_n}
// equals that of eps_n for ANY innovation distribution, and the ACF obeys
// the Yule-Walker-shaped recursion
//
//   r(k) = rho * sum_{i=1..p} a_i * r(k - i),  k >= 1,  r(0)=1, r(-m)=r(m),
//
// independently of the marginal -- which is exactly why the paper can pin
// the marginal to a common Gaussian and vary only correlations.
// With p = 1, r(k) = rho^k (geometric decay; a Markov chain).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cts/proc/frame_source.hpp"
#include "cts/proc/marginal.hpp"
#include "cts/util/rng.hpp"

namespace cts::proc {

/// Parameters of a DAR(p) process with Gaussian innovations.
struct DarParams {
  double rho = 0.8;              ///< repeat probability, in [0, 1)
  std::vector<double> lag_probs; ///< a_1..a_p, non-negative, summing to 1
  double mean = 500.0;           ///< marginal mean (cells/frame)
  double variance = 5000.0;      ///< marginal variance

  void validate() const;

  std::size_t order() const noexcept { return lag_probs.size(); }

  /// Analytic autocorrelations r(0..max_lag) via the DAR recursion.
  std::vector<double> acf(std::size_t max_lag) const;
};

/// DAR(p) frame source.  The stationary marginal equals the innovation
/// marginal for ANY distribution; the default is Gaussian (the paper's
/// common marginal), and any MarginalDistribution can be plugged in
/// (Section 6.1's negative binomial, for instance).
class DarSource final : public FrameSource {
 public:
  /// Gaussian marginal from params.mean / params.variance.
  DarSource(const DarParams& params, std::uint64_t seed);

  /// Custom innovation marginal; overrides params.mean / params.variance.
  DarSource(const DarParams& params,
            std::shared_ptr<const MarginalDistribution> marginal,
            std::uint64_t seed);
  ~DarSource() override;  ///< flushes the frame count to the obs registry

  double next_frame() override;
  void fill(double* out, std::size_t n) override;
  double mean() const override;
  double variance() const override;
  std::unique_ptr<FrameSource> clone(std::uint64_t seed) const override;
  std::string name() const override;

  const DarParams& params() const noexcept { return params_; }

  /// The integer form of a uniform01() compare.  A draw is u = k 2^-53
  /// with k = rng() >> 11, so `u < x` holds exactly when
  /// k < repeat_threshold(x), for x in [0, 1], and `u > c` exactly when
  /// k > lag_threshold(c), for |c| < 2^10, negative c included.
  static std::uint64_t repeat_threshold(double x) noexcept;
  static std::int64_t lag_threshold(double c) noexcept;

  /// lag_threshold of the running maximum of the cumulative lag
  /// probabilities a_1 + ... + a_{j+1}, for j < p - 1.  The lag index is
  /// the count of these a draw k exceeds, which equals the first j with
  /// u <= a_1 + ... + a_{j+1} (else p - 1) even where validate()'s slack
  /// for tiny negative a_i makes the cumulative sums dip.
  static std::vector<std::int64_t> lag_thresholds(
      const std::vector<double>& lag_probs);

 private:
  double sample_innovation();
  /// Index j of the lag to repeat, S_{n-1-j}, for one generator output.
  std::size_t lag_index(std::uint64_t draw) const noexcept;

  DarParams params_;
  std::shared_ptr<const MarginalDistribution> marginal_;  ///< may be null
  util::Xoshiro256pp rng_;
  util::NormalSampler normal_;
  double innovation_sd_;  ///< sqrt(params_.variance)
  /// Ring buffer of the last p values (history_[head_] = S_{n-1}).
  std::vector<double> history_;
  std::size_t head_ = 0;
  /// A repeat happens when rng() >> 11 < repeat_below_ (u < rho).
  std::uint64_t repeat_below_ = 0;
  std::vector<std::int64_t> lag_thresholds_;  ///< see lag_thresholds()
  std::uint64_t frames_generated_ = 0;
};

}  // namespace cts::proc
