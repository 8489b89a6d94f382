#include "cts/proc/gaussian_quantizer.hpp"

#include <cmath>

#include "cts/util/error.hpp"
#include "cts/util/math.hpp"

namespace cts::proc {

GaussianQuantizer::GaussianQuantizer(std::unique_ptr<FrameSource> inner)
    : inner_(std::move(inner)) {
  util::require(inner_ != nullptr, "GaussianQuantizer: inner source required");
}

double GaussianQuantizer::next_frame() {
  const double raw = inner_->next_frame();
  if (raw <= 0.0) {
    ++clamp_count_;
    return 0.0;
  }
  return std::round(raw);
}

void GaussianQuantizer::fill(double* out, std::size_t n) {
  fill_frames(*this, out, n);
}

std::unique_ptr<FrameSource> GaussianQuantizer::clone(
    std::uint64_t seed) const {
  return std::make_unique<GaussianQuantizer>(inner_->clone(seed));
}

std::string GaussianQuantizer::name() const {
  return "quantized(" + inner_->name() + ")";
}

double GaussianQuantizer::clamp_probability() const {
  const double mu = inner_->mean();
  const double sd = std::sqrt(inner_->variance());
  return util::normal_cdf(-mu / sd);
}

}  // namespace cts::proc
