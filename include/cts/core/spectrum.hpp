// Power spectra of frame processes and the Li-Hwang cutoff frequency.
//
// Section 6.2 connects the Critical Time Scale to the CUTOFF FREQUENCY
// omega_c of Li & Hwang's spectral analysis of queues: traffic power below
// omega_c drives queueing, power above it is filtered out by the buffer.
// For a WSS frame process the (one-sided, discrete-time) spectral density
// is
//
//   S(w) = sigma^2 [ 1 + 2 sum_{k>=1} r(k) cos(w k) ],   w in (0, pi],
//
// LRD processes have S(w) ~ w^{1-2H} -> infinity as w -> 0: the divergence
// is exactly the "cumulative effect" of claim 1 -- and the cutoff argument
// shows why it does not matter at small buffers.

#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "cts/core/acf_model.hpp"

namespace cts::core {

/// Spectral density evaluator for an AcfModel.
class Spectrum {
 public:
  /// `truncation` bounds the cosine-series length; the tail beyond it is
  /// ignored (LRD ACFs need a large truncation near w = 0; callers choose).
  Spectrum(std::shared_ptr<const AcfModel> acf, double variance,
           std::size_t truncation = 1u << 15);

  /// S(w) for w in (0, pi].  Clamped at 0 (truncation can produce small
  /// negative ripples).
  double density(double w) const;

  /// The Li-Hwang-style cutoff frequency: the smallest w such that the
  /// power below w is `fraction` of the total, read off the integrated
  /// spectrum P(w) = integral_0^w S(u) du on a log-spaced grid.  LRD
  /// models concentrate power near 0, giving a small cutoff; SRD models
  /// spread it, giving a large one.
  double cutoff_frequency(double fraction = 0.5) const;

  double variance() const noexcept { return variance_; }

 private:
  double variance_;
  /// weights_[k - 1] = 2 (1 - k/(n+1)) r(k), k = 1..n (n = truncation).
  std::vector<double> weights_;
};

/// The time scale 2*pi/omega_c implied by a cutoff frequency, in frames.
double cutoff_time_scale(double cutoff_frequency);

}  // namespace cts::core
