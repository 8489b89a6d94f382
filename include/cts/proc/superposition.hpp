// Superposition of independent frame sources.
//
// The paper's V^v and Z^a models are the sum of an FBNDP component X
// (power-law long-term correlations) and a DAR(1) component Y (geometric
// short-term correlations).  For independent components,
//
//   mu = mu_X + mu_Y,   sigma^2 = sigma_X^2 + sigma_Y^2,
//   r(k) = [sigma_X^2 r_X(k) + sigma_Y^2 r_Y(k)] / (sigma_X^2 + sigma_Y^2)
//        = v/(v+1) r_X(k) + 1/(v+1) r_Y(k),   v = sigma_X^2 / sigma_Y^2,
//
// which is the paper's eq. (5).  This class also models the aggregate of
// N homogeneous sources feeding one multiplexer.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cts/proc/frame_source.hpp"

namespace cts::proc {

/// Sum of an arbitrary number of independent FrameSources.
class SuperposedSource final : public FrameSource {
 public:
  /// Takes ownership of the components; at least one is required.
  explicit SuperposedSource(
      std::vector<std::unique_ptr<FrameSource>> components,
      std::string name = "superposition");

  double next_frame() override;
  void fill(double* out, std::size_t n) override;
  double mean() const override;
  double variance() const override;
  std::unique_ptr<FrameSource> clone(std::uint64_t seed) const override;
  std::string name() const override { return name_; }

  std::size_t component_count() const noexcept { return components_.size(); }
  const FrameSource& component(std::size_t i) const { return *components_[i]; }

 private:
  std::vector<std::unique_ptr<FrameSource>> components_;
  std::string name_;
};

}  // namespace cts::proc
