#include "cts/proc/on_off.hpp"

#include <cmath>

#include "cts/util/error.hpp"

namespace cts::proc {

void OnOffParams::validate() const {
  util::require(alpha > 0.0 && alpha < 1.0,
                "OnOffParams: alpha must be in (0,1)");
  util::require(A > 0.0 && std::isfinite(A), "OnOffParams: A must be > 0");
}

double OnOffParams::mean_sojourn() const noexcept {
  const double g = gamma();
  // E[T] = (A/g)(1 - e^-g) + e^-g A/(g-1): integrate the survival function
  // over the exponential body and the Pareto tail separately.
  return (A / g) * (1.0 - std::exp(-g)) + std::exp(-g) * A / (g - 1.0);
}

double OnOffParams::sojourn_survival(double t) const noexcept {
  if (t <= 0.0) return 1.0;
  const double g = gamma();
  if (t <= A) return std::exp(-g * t / A);
  return std::exp(-g) * std::pow(A / t, g);
}

double OnOffParams::sample_sojourn(util::Xoshiro256pp& rng) const noexcept {
  const double g = gamma();
  const double u = rng.uniform01();
  const double survival = 1.0 - u;  // uniform, so use either side
  const double body_mass = 1.0 - std::exp(-g);
  if (u < body_mass) {
    // Exponential body: S(t) = e^{-g t/A} -> t = -(A/g) ln(1-u).
    return -(A / g) * std::log1p(-u);
  }
  // Pareto tail: S(t) = e^{-g}(A/t)^g -> t = A (e^{-g}/S)^{1/g}.
  return A * std::pow(std::exp(-g) / survival, 1.0 / g);
}

core::simd::SojournConsts OnOffParams::sojourn_consts() const noexcept {
  const double g = gamma();
  core::simd::SojournConsts c;
  c.body_mass = 1.0 - std::exp(-g);
  c.a = A;
  c.a_over_g = A / g;
  c.neg_g = -g;
  c.inv_g = 1.0 / g;
  return c;
}

double OnOffParams::sample_equilibrium_residual(
    util::Xoshiro256pp& rng) const noexcept {
  // Equilibrium residual CDF: G(t) = (1/E) \int_0^t S(s) ds with
  //   \int_0^t S = (A/g)(1 - e^{-g t/A})                       for t <= A,
  //              = (A/g)(1-e^{-g}) + e^{-g} A (1-(A/t)^{g-1})/(g-1)  t > A.
  const double g = gamma();
  const double mean = mean_sojourn();
  const double u = rng.uniform01();
  const double target = u * mean;
  const double body_integral = (A / g) * (1.0 - std::exp(-g));
  if (target <= body_integral) {
    // Invert (A/g)(1 - e^{-g t/A}) = target.
    const double inner = 1.0 - g * target / A;
    return -(A / g) * std::log(inner);
  }
  // Invert the tail branch for t.
  const double rest = target - body_integral;
  const double coeff = std::exp(-g) * A / (g - 1.0);
  // rest = coeff (1 - (A/t)^{g-1})  ->  (A/t)^{g-1} = 1 - rest/coeff.
  const double ratio_pow = 1.0 - rest / coeff;
  // ratio_pow in (0,1] because rest < coeff = total tail integral.
  return A * std::pow(ratio_pow, -1.0 / (g - 1.0));
}

FractalOnOff::FractalOnOff(const OnOffParams& params, util::Xoshiro256pp rng)
    : rng_(rng),
      consts_(params.sojourn_consts()),
      kind_(core::simd::active()) {
  params.validate();
  // Stationary start: ON/OFF symmetric, so ON with probability 1/2, and
  // the time to the next transition follows the equilibrium residual law.
  on_ = rng_.uniform01() < 0.5;
  residual_ = params.sample_equilibrium_residual(rng_);
}

void FractalOnOff::refill() noexcept {
  std::array<double, kBatch> u;
  for (double& x : u) x = rng_.uniform01();
  core::simd::fractal_sojourns(kind_, u.data(), ring_.data(), kBatch, consts_);
  ++refills_;
  next_ = 0;
}

double FractalOnOff::on_time_in(double dt) noexcept {
  double on_time = 0.0;
  double remaining = dt;
  while (remaining > 0.0) {
    if (residual_ > remaining) {
      if (on_) on_time += remaining;
      residual_ -= remaining;
      return on_time;
    }
    if (on_) on_time += residual_;
    remaining -= residual_;
    on_ = !on_;
    residual_ = next_sojourn();
  }
  return on_time;
}

}  // namespace cts::proc
