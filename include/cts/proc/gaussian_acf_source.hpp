// Exact Gaussian sources with an ARBITRARY autocorrelation function.
//
// Given any core::AcfModel (analytic, fitted, or a raw empirical table),
// produce a stationary Gaussian process with exactly that correlation
// structure.  Fractional Gaussian noise of Hurst parameter H is the source
// at core::ExactLrdAcf(H, 1): r(k) = 1/2 [(k+1)^{2H} - 2k^{2H} + (k-1)^{2H}],
// the paper's eq. (2) with g(T_s) = 1.
//
//  * GaussianAcfHosking     -- Durbin-Levinson conditional sampling; exact
//                              at every prefix, O(n) per step.
//  * GaussianAcfDaviesHarte -- circulant embedding + FFT per block; exact
//                              within a block, requires the embedding to be
//                              non-negative definite (true for FGN and
//                              other convex-decay ACFs; detected and
//                              reported otherwise).
//
// Both inner loops (the Durbin-Levinson inner products and the Davies-
// Harte spectral scaling) run through the runtime-dispatched kernels in
// cts/core/simd.hpp; results are byte-identical on every dispatch kind.
//
// This closes the modelling loop of the paper: measure an ACF from a
// trace, tabulate it, and simulate a Gaussian source carrying exactly the
// measured correlations.

#pragma once

#include <complex>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cts/core/acf_model.hpp"
#include "cts/proc/frame_source.hpp"
#include "cts/util/rng.hpp"

namespace cts::proc {

/// Exact incremental Gaussian source for any ACF (Durbin-Levinson).
class GaussianAcfHosking final : public FrameSource {
 public:
  /// `acf` supplies r(k); the source emits N(mean, variance) marginals with
  /// that correlation structure.  `max_order` caps the recursion order
  /// (beyond it a fixed-order AR approximation is used).
  GaussianAcfHosking(std::shared_ptr<const core::AcfModel> acf, double mean,
                     double variance, std::uint64_t seed,
                     std::size_t max_order = 16384);

  double next_frame() override;
  void fill(double* out, std::size_t n) override;
  double mean() const override { return mean_; }
  double variance() const override { return variance_; }
  std::unique_ptr<FrameSource> clone(std::uint64_t seed) const override;
  std::string name() const override;

 private:
  std::shared_ptr<const core::AcfModel> acf_;
  double mean_;
  double variance_;
  std::size_t max_order_;
  util::Xoshiro256pp rng_;
  util::NormalSampler normal_;
  std::vector<double> phi_;
  std::vector<double> phi_scratch_;
  std::vector<double> history_;
  // acf_table_[k] = acf->at(k) for the lags touched so far: the recursion
  // reads r(1..n) as a contiguous reversed vector each step, so one table
  // lookup replaces n virtual calls.
  std::vector<double> acf_table_;
  double prediction_variance_ = 1.0;
};

/// Exact block Gaussian source for any ACF via circulant embedding.
class GaussianAcfDaviesHarte final : public FrameSource {
 public:
  /// Throws util::NumericalError at construction when the circulant
  /// embedding of the ACF has eigenvalues below -`tolerance` (the ACF is
  /// then not block-embeddable at this length; use the Hosking variant).
  GaussianAcfDaviesHarte(std::shared_ptr<const core::AcfModel> acf,
                         double mean, double variance, std::size_t block_len,
                         std::uint64_t seed, double tolerance = 1e-9);

  double next_frame() override;
  void fill(double* out, std::size_t n) override;
  double mean() const override { return mean_; }
  double variance() const override { return variance_; }
  std::unique_ptr<FrameSource> clone(std::uint64_t seed) const override;
  std::string name() const override;

  std::size_t block_length() const noexcept { return block_len_; }
  double tolerance() const noexcept { return tolerance_; }

 private:
  void refill();

  std::shared_ptr<const core::AcfModel> acf_;
  double mean_;
  double variance_;
  std::size_t block_len_;
  double tolerance_;
  util::Xoshiro256pp rng_;
  util::NormalSampler normal_;
  std::vector<double> eigenvalues_;
  // Spectral scale factors hoisted out of refill(): sqrt(lambda_0),
  // sqrt(lambda_n), and scale_[k-1] = sqrt(lambda_k / 2) for 1 <= k < n.
  double sqrt_ev0_ = 0.0;
  double sqrt_evn_ = 0.0;
  std::vector<double> scale_;
  std::vector<double> normals_;
  std::vector<std::complex<double>> spectrum_;
  std::vector<double> block_;
  std::size_t pos_ = 0;
};

}  // namespace cts::proc
