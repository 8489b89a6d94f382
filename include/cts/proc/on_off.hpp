// Fractal ON/OFF renewal process (the atom of the FBNDP model).
//
// ON and OFF sojourns are i.i.d. with the hybrid exponential/Pareto density
// of Ryu & Lowen:
//
//   p(t) = (gamma/A) e^{-gamma t / A}          for t <= A,
//          gamma e^{-gamma} A^gamma t^{-(gamma+1)}  for t >  A,
//
// with gamma = 2 - alpha in (1, 2) so the mean is finite but the variance
// infinite -- the source of long-range dependence.  The process is started
// in its stationary regime: the initial state is ON with probability 1/2
// and the residual sojourn is drawn from the equilibrium (integrated-tail)
// distribution, which keeps count statistics stationary from time zero.

#pragma once

#include <array>
#include <cstdint>

#include "cts/core/simd.hpp"
#include "cts/util/rng.hpp"

namespace cts::proc {

/// Parameters of a fractal ON/OFF process.
struct OnOffParams {
  /// Fractal exponent alpha in (0, 1); gamma = 2 - alpha.
  double alpha = 0.8;
  /// Crossover scale A > 0 (seconds) between exponential body and Pareto tail.
  double A = 1.0;

  /// Validates ranges; throws util::InvalidArgument on violation.
  void validate() const;

  double gamma() const noexcept { return 2.0 - alpha; }

  /// Mean sojourn duration E[T] (seconds); closed form.
  double mean_sojourn() const noexcept;

  /// Survival function P(T > t) of a sojourn.
  double sojourn_survival(double t) const noexcept;

  /// Inverse-CDF sample of a sojourn duration (libm reference; the
  /// simulator draws through `FractalOnOff`'s batched kernel instead).
  double sample_sojourn(util::Xoshiro256pp& rng) const noexcept;

  /// This law's constants for core::simd::fractal_sojourns.
  core::simd::SojournConsts sojourn_consts() const noexcept;

  /// Sample of the *equilibrium residual* sojourn (density S(t)/E[T]);
  /// used for stationary initialisation.
  double sample_equilibrium_residual(util::Xoshiro256pp& rng) const noexcept;
};

/// One fractal ON/OFF source evolving in continuous time.
///
/// The advance loop is the hot path of every FBNDP simulation (the paper's
/// alpha = 0.9 parameterisations produce thousands of transitions per
/// frame).  Sojourns are therefore drawn 32 at a time: the source takes 32
/// uniforms from its own stream, in order, and one call to the SIMD kernel
/// `core::simd::fractal_sojourns` turns them into a ring of sojourns that
/// the next 32 transitions consume.  After construction the stream feeds
/// nothing but these draws, so draw i uses uniform i whatever the ring
/// size, the path is the one `OnOffParams::sample_sojourn` would give up
/// to the kernel's ~1 ulp log/exp, and it is byte-identical on every SIMD
/// tier.  The ring is large enough to amortise the kernel's packing of
/// tail draws and small enough that M sources per FBNDP stay cheap to
/// hold.
class FractalOnOff {
 public:
  /// Constructs in the stationary regime using `rng` for initialisation.
  /// Resolves the SIMD dispatch kind, so it throws util::InvalidArgument
  /// on a bad `CTS_SIMD` (see core::simd::active).
  FractalOnOff(const OnOffParams& params, util::Xoshiro256pp rng);

  /// Advances the process by `dt` seconds and returns the total time spent
  /// ON during that window (in [0, dt]).
  double on_time_in(double dt) noexcept;

  bool is_on() const noexcept { return on_; }

  /// Sojourns consumed so far (one per ON/OFF transition), counted from
  /// the refills and the ring index rather than per transition.
  std::uint64_t sojourns_drawn() const noexcept {
    return refills_ * kBatch - (kBatch - next_);
  }

 private:
  /// Sojourns drawn per kernel call.
  static constexpr std::uint8_t kBatch = 32;

  /// Next sojourn from the ring, refilling it when empty.
  double next_sojourn() noexcept {
    if (next_ == kBatch) refill();
    return ring_[next_++];
  }
  void refill() noexcept;

  // Every FBNDP holds M of these, so the layout is kept tight: the three
  // small fields share one word.
  util::Xoshiro256pp rng_;
  core::simd::SojournConsts consts_;
  /// Remaining time in the current sojourn (seconds).
  double residual_ = 0.0;
  std::uint64_t refills_ = 0;  ///< kernel calls so far
  core::simd::Kind kind_ = core::simd::Kind::kScalar;
  bool on_ = false;
  std::uint8_t next_ = kBatch;  ///< ring_ index of the next sojourn
  std::array<double, kBatch> ring_{};
};

}  // namespace cts::proc
