#include "cts/proc/fbn.hpp"

#include "cts/util/error.hpp"

namespace cts::proc {

FractalBinomialNoise::FractalBinomialNoise(const OnOffParams& params,
                                           std::uint32_t m,
                                           util::Xoshiro256pp rng) {
  util::require(m >= 1, "FractalBinomialNoise: M must be >= 1");
  sources_.reserve(m);
  for (std::uint32_t i = 0; i < m; ++i) {
    sources_.emplace_back(params, rng.split());
  }
}

double FractalBinomialNoise::aggregate_on_time(double dt) noexcept {
  double total = 0.0;
  for (auto& source : sources_) total += source.on_time_in(dt);
  return total;
}

std::uint64_t FractalBinomialNoise::sojourns_drawn() const noexcept {
  std::uint64_t total = 0;
  for (const auto& source : sources_) total += source.sojourns_drawn();
  return total;
}

}  // namespace cts::proc
