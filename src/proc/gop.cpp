#include "cts/proc/gop.hpp"

#include <cmath>
#include <numeric>

#include "cts/util/error.hpp"

namespace cts::proc {

void GopPattern::validate() const {
  util::require(!scales.empty(), "GopPattern: empty pattern");
  for (const double s : scales) {
    util::require(s > 0.0, "GopPattern: scales must be positive");
  }
}

GopPattern GopPattern::ibbpbb12() {
  // IBBPBBPBBPBB with I:P:B ~ 5:3:1, normalised to mean 1.
  std::vector<double> raw = {5, 1, 1, 3, 1, 1, 3, 1, 1, 3, 1, 1};
  const double mean =
      std::accumulate(raw.begin(), raw.end(), 0.0) /
      static_cast<double>(raw.size());
  for (auto& s : raw) s /= mean;
  return GopPattern{std::move(raw)};
}

GopModulatedSource::GopModulatedSource(std::unique_ptr<FrameSource> base,
                                       GopPattern pattern, std::uint32_t phase)
    : base_(std::move(base)), pattern_(std::move(pattern)), phase_(phase) {
  util::require(base_ != nullptr, "GopModulatedSource: base source required");
  pattern_.validate();
  // Normalise the pattern mean to exactly 1 so the long-run rate of the
  // base source is preserved.
  const double mean =
      std::accumulate(pattern_.scales.begin(), pattern_.scales.end(), 0.0) /
      static_cast<double>(pattern_.scales.size());
  for (auto& s : pattern_.scales) s /= mean;
  phase_ %= static_cast<std::uint32_t>(pattern_.scales.size());
}

double GopModulatedSource::next_frame() {
  const double scale = pattern_.scales[phase_];
  phase_ = (phase_ + 1) % static_cast<std::uint32_t>(pattern_.scales.size());
  return scale * base_->next_frame();
}

void GopModulatedSource::fill(double* out, std::size_t n) {
  fill_frames(*this, out, n);
}

double GopModulatedSource::mean() const { return base_->mean(); }

double GopModulatedSource::variance() const {
  // Over a uniformly random phase with E[s] = 1:
  //   Var = E[s^2] E[X^2] - (E[s] E[X])^2 = E[s^2](sig^2 + mu^2) - mu^2.
  double s2 = 0.0;
  for (const double s : pattern_.scales) s2 += s * s;
  s2 /= static_cast<double>(pattern_.scales.size());
  const double mu = base_->mean();
  const double var = base_->variance();
  return s2 * (var + mu * mu) - mu * mu;
}

std::unique_ptr<FrameSource> GopModulatedSource::clone(
    std::uint64_t seed) const {
  return std::make_unique<GopModulatedSource>(base_->clone(seed), pattern_,
                                              phase_);
}

std::string GopModulatedSource::name() const {
  return "GoP(" + base_->name() + ")";
}

}  // namespace cts::proc
