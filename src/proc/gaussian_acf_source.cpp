#include "cts/proc/gaussian_acf_source.hpp"

#include <cmath>

#include "cts/core/simd.hpp"
#include "cts/util/error.hpp"
#include "cts/util/fft.hpp"

namespace cts::proc {

GaussianAcfHosking::GaussianAcfHosking(
    std::shared_ptr<const core::AcfModel> acf, double mean, double variance,
    std::uint64_t seed, std::size_t max_order)
    : acf_(std::move(acf)),
      mean_(mean),
      variance_(variance),
      max_order_(max_order),
      rng_(seed) {
  util::require(acf_ != nullptr, "GaussianAcfHosking: acf required");
  util::require(variance > 0.0, "GaussianAcfHosking: variance must be > 0");
  util::require(max_order >= 1, "GaussianAcfHosking: max_order must be >= 1");
}

double GaussianAcfHosking::next_frame() {
  const std::size_t n = history_.size();
  double conditional_mean = 0.0;
  if (n > 0 && n <= max_order_) {
    while (acf_table_.size() <= n) {
      acf_table_.push_back(acf_->at(acf_table_.size()));
    }
    const double rn = acf_table_[n];
    // num = r(n) - sum_{k=1..n-1} phi_k r(n - k): phi forward against the
    // ACF table reversed from lag n-1 downward.
    const double num =
        rn - core::simd::dot_reversed(phi_.data(), &acf_table_[n - 1], n - 1);
    const double reflection = num / prediction_variance_;
    phi_scratch_.resize(n);
    // updated_k = phi_k - reflection * phi_{n-k} for k = 1..n-1.
    if (n >= 2) {
      core::simd::axpy_reversed(phi_.data(), &phi_[n - 2], reflection,
                                phi_scratch_.data(), n - 1);
    }
    phi_scratch_[n - 1] = reflection;
    std::swap(phi_, phi_scratch_);
    prediction_variance_ *= (1.0 - reflection * reflection);
    if (prediction_variance_ < 1e-12) prediction_variance_ = 1e-12;
    conditional_mean =
        core::simd::dot_reversed(phi_.data(), &history_[n - 1], n);
  } else if (n > max_order_) {
    conditional_mean = core::simd::dot_reversed(phi_.data(), &history_[n - 1],
                                                phi_.size());
  }
  const double x =
      conditional_mean + std::sqrt(prediction_variance_) * normal_(rng_);
  history_.push_back(x);
  return mean_ + std::sqrt(variance_) * x;
}

void GaussianAcfHosking::fill(double* out, std::size_t n) {
  fill_frames(*this, out, n);
}

std::unique_ptr<FrameSource> GaussianAcfHosking::clone(
    std::uint64_t seed) const {
  return std::make_unique<GaussianAcfHosking>(acf_, mean_, variance_, seed,
                                              max_order_);
}

std::string GaussianAcfHosking::name() const {
  return "gauss-hosking[" + acf_->name() + "]";
}

GaussianAcfDaviesHarte::GaussianAcfDaviesHarte(
    std::shared_ptr<const core::AcfModel> acf, double mean, double variance,
    std::size_t block_len, std::uint64_t seed, double tolerance)
    : acf_(std::move(acf)),
      mean_(mean),
      variance_(variance),
      block_len_(util::next_pow2(block_len)),
      tolerance_(tolerance),
      rng_(seed) {
  util::require(acf_ != nullptr, "GaussianAcfDaviesHarte: acf required");
  util::require(variance > 0.0,
                "GaussianAcfDaviesHarte: variance must be > 0");
  util::require(block_len >= 2,
                "GaussianAcfDaviesHarte: block length must be >= 2");
  const std::size_t n = block_len_;
  std::vector<std::complex<double>> c(2 * n, 0.0);
  for (std::size_t j = 0; j <= n; ++j) c[j] = acf_->at(j);
  for (std::size_t j = 1; j < n; ++j) c[2 * n - j] = c[j];
  util::fft(c);
  eigenvalues_.resize(2 * n);
  for (std::size_t j = 0; j < 2 * n; ++j) {
    const double ev = c[j].real();
    if (ev < -tolerance) {
      throw util::NumericalError(
          "GaussianAcfDaviesHarte: circulant embedding of '" + acf_->name() +
          "' is not non-negative definite at this block length; use "
          "GaussianAcfHosking");
    }
    eigenvalues_[j] = ev > 0.0 ? ev : 0.0;
  }
  sqrt_ev0_ = std::sqrt(eigenvalues_[0]);
  sqrt_evn_ = std::sqrt(eigenvalues_[n]);
  scale_.resize(n >= 1 ? n - 1 : 0);
  for (std::size_t k = 1; k < n; ++k) {
    scale_[k - 1] = std::sqrt(eigenvalues_[k] / 2.0);
  }
  pos_ = block_len_;
}

void GaussianAcfDaviesHarte::refill() {
  const std::size_t n = block_len_;
  const std::size_t m = 2 * n;
  spectrum_.resize(m);
  // Draw every normal for the block up front (fixed order: the two real
  // modes, then the interleaved re/im pairs for modes 1..n-1), then apply
  // the precomputed spectral scales as one batch kernel.
  spectrum_[0] = sqrt_ev0_ * normal_(rng_);
  spectrum_[n] = sqrt_evn_ * normal_(rng_);
  normals_.resize(2 * (n - 1));
  for (double& z : normals_) z = normal_(rng_);
  // std::complex<double> is array-compatible with double pairs, so the
  // kernel writes re/im in place for modes 1..n-1.
  core::simd::scale_pairs(scale_.data(), normals_.data(),
                          reinterpret_cast<double*>(&spectrum_[1]), n - 1);
  for (std::size_t k = 1; k < n; ++k) {
    spectrum_[m - k] = std::conj(spectrum_[k]);
  }
  util::fft(spectrum_);
  block_.resize(n);
  const double norm = 1.0 / std::sqrt(static_cast<double>(m));
  core::simd::scaled_real_stride2(
      reinterpret_cast<const double*>(spectrum_.data()), norm, block_.data(),
      n);
  pos_ = 0;
}

double GaussianAcfDaviesHarte::next_frame() {
  if (pos_ >= block_len_) refill();
  return mean_ + std::sqrt(variance_) * block_[pos_++];
}

void GaussianAcfDaviesHarte::fill(double* out, std::size_t n) {
  fill_frames(*this, out, n);
}

std::unique_ptr<FrameSource> GaussianAcfDaviesHarte::clone(
    std::uint64_t seed) const {
  // Pass the construction tolerance through: a clone must accept exactly
  // the embeddings the original accepted (rebuilding with the default
  // tolerance used to throw for ACFs admitted under a looser one).
  return std::make_unique<GaussianAcfDaviesHarte>(acf_, mean_, variance_,
                                                  block_len_, seed,
                                                  tolerance_);
}

std::string GaussianAcfDaviesHarte::name() const {
  return "gauss-dh[" + acf_->name() + "]";
}

}  // namespace cts::proc
