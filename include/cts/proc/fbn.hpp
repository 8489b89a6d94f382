// Fractal Binomial Noise: the superposition of M i.i.d. fractal ON/OFF
// processes.  At any instant the number of ON sources is Binomial(M, 1/2)
// in equilibrium; the integral of that count over a window is what drives
// the doubly-stochastic Poisson process of the FBNDP model.

#pragma once

#include <cstdint>
#include <vector>

#include "cts/proc/on_off.hpp"
#include "cts/util/rng.hpp"

namespace cts::proc {

/// Sum of M independent fractal ON/OFF processes.
class FractalBinomialNoise {
 public:
  /// Builds M stationary ON/OFF processes; each receives a stream split
  /// from `rng`.
  FractalBinomialNoise(const OnOffParams& params, std::uint32_t m,
                       util::Xoshiro256pp rng);

  /// Advances all M processes by `dt` seconds and returns the aggregate
  /// ON time, i.e. integral over the window of the number of ON sources
  /// (in [0, M*dt]).
  double aggregate_on_time(double dt) noexcept;

  /// Sojourns drawn so far by all M sources (their ON/OFF transitions).
  std::uint64_t sojourns_drawn() const noexcept;

  std::uint32_t m() const noexcept {
    return static_cast<std::uint32_t>(sources_.size());
  }

 private:
  std::vector<FractalOnOff> sources_;
};

}  // namespace cts::proc
