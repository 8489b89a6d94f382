// Random-number substrate.
//
// The simulation experiments in the paper need (a) reproducible streams,
// (b) cheap splitting into per-replication / per-source independent streams
// so multithreaded replication gives results independent of scheduling, and
// (c) a generator fast enough that 10^8+ frame draws per experiment are not
// the bottleneck.  We implement xoshiro256++ (Blackman & Vigna) seeded via
// SplitMix64, both from the public-domain reference algorithms, wrapped as
// a C++ UniformRandomBitGenerator so <random> distributions apply directly.

#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

namespace cts::util {

/// SplitMix64: a tiny 64-bit generator used to expand one seed word into
/// the xoshiro state and to derive decorrelated child seeds.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ 64-bit generator.  Satisfies UniformRandomBitGenerator.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state by running SplitMix64 from `seed`.
  explicit Xoshiro256pp(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next 64-bit output.  Defined here so the hot sampling loops inline it.
  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Returns a child generator whose stream is decorrelated from this one.
  /// Used to hand independent streams to replications and sources; the
  /// derivation is deterministic so experiments are reproducible for any
  /// thread count.
  Xoshiro256pp split() noexcept;

  /// Uniform double in [0, 1) with 53 random bits.
  double uniform01() noexcept {
    return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Standard-normal variate via the polar (Marsaglia) method with one-value
/// caching.  Matches N(0,1) to distribution; faster and allocation-free
/// compared to std::normal_distribution on this generator.
class NormalSampler {
 public:
  /// Defined here so the per-frame loops of the Gaussian sources inline it.
  double operator()(Xoshiro256pp& rng) noexcept {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    double u, v, s;
    do {
      u = 2.0 * rng.uniform01() - 1.0;
      v = 2.0 * rng.uniform01() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    cached_ = v * factor;
    has_cached_ = true;
    return u * factor;
  }

 private:
  double cached_ = 0.0;
  bool has_cached_ = false;
};

/// Poisson variate with mean `mean` >= 0.  Uses inversion for small means
/// and the PTRS transformed-rejection algorithm (Hormann) for large means;
/// exact to distribution in both regimes.  FBNDP frame counts have means of
/// hundreds, so the large-mean path dominates.
std::uint64_t poisson_sample(Xoshiro256pp& rng, double mean);

/// Gamma variate with the given shape and scale (Marsaglia-Tsang squeeze
/// method; the shape < 1 case is boosted via the U^{1/shape} identity).
/// Used by the negative-binomial (gamma-Poisson mixture) marginal.
double gamma_sample(Xoshiro256pp& rng, double shape, double scale);

}  // namespace cts::util
