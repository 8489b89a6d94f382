#include "cts/proc/ar1.hpp"

#include <cmath>

#include "cts/util/error.hpp"

namespace cts::proc {

void Ar1Params::validate() const {
  util::require(std::abs(phi) < 1.0, "Ar1Params: |phi| must be < 1");
  util::require(variance > 0.0, "Ar1Params: variance must be > 0");
}

Ar1Source::Ar1Source(const Ar1Params& params, std::uint64_t seed)
    : params_(params), rng_(seed), state_(0.0) {
  params_.validate();
  innovation_sd_ =
      std::sqrt(params_.variance * (1.0 - params_.phi * params_.phi));
  // Stationary start: X_0 ~ N(mu, sigma^2).
  state_ = params_.mean + std::sqrt(params_.variance) * normal_(rng_);
}

double Ar1Source::next_frame() {
  state_ = params_.mean + params_.phi * (state_ - params_.mean) +
           innovation_sd_ * normal_(rng_);
  return state_;
}

void Ar1Source::fill(double* out, std::size_t n) {
  fill_frames(*this, out, n);
}

std::unique_ptr<FrameSource> Ar1Source::clone(std::uint64_t seed) const {
  return std::make_unique<Ar1Source>(params_, seed);
}

std::string Ar1Source::name() const {
  return "AR1(phi=" + std::to_string(params_.phi) + ")";
}

}  // namespace cts::proc
