// MPEG-like Group-of-Pictures modulation (extension).
//
// The paper's Section 6.2 flags MPEG-coded video as future work: MPEG
// traffic adds a deterministic periodic I/P/B frame-size pattern on top of
// scene-level correlations.  This wrapper multiplies any base source by a
// periodic pattern of per-frame scale factors whose mean is normalised to
// one, preserving the long-run mean rate while adding the strong periodic
// component characteristic of GoP structures (e.g. IBBPBBPBBPBB).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cts/proc/frame_source.hpp"

namespace cts::proc {

/// Scale factors for one GoP period; mean is normalised to 1 on input.
struct GopPattern {
  std::vector<double> scales;

  void validate() const;

  /// Classic 12-frame IBBPBB... pattern with I:P:B size ratios
  /// roughly 5:3:1 (normalised).
  static GopPattern ibbpbb12();
};

/// Wraps a base source with deterministic periodic GoP modulation.
class GopModulatedSource final : public FrameSource {
 public:
  GopModulatedSource(std::unique_ptr<FrameSource> base, GopPattern pattern,
                     std::uint32_t phase = 0);

  double next_frame() override;
  void fill(double* out, std::size_t n) override;
  double mean() const override;
  /// Stationary variance over a uniformly random phase:
  /// Var = E[s^2](sigma_b^2 + mu_b^2) - mu_b^2 (with E[s] = 1).
  double variance() const override;
  std::unique_ptr<FrameSource> clone(std::uint64_t seed) const override;
  std::string name() const override;

 private:
  std::unique_ptr<FrameSource> base_;
  GopPattern pattern_;
  std::uint32_t phase_;
};

}  // namespace cts::proc
