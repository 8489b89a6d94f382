#include "cts/proc/superposition.hpp"

#include "cts/util/error.hpp"
#include "cts/util/rng.hpp"

namespace cts::proc {

SuperposedSource::SuperposedSource(
    std::vector<std::unique_ptr<FrameSource>> components, std::string name)
    : components_(std::move(components)), name_(std::move(name)) {
  util::require(!components_.empty(),
                "SuperposedSource: need at least one component");
  for (const auto& c : components_) {
    util::require(c != nullptr, "SuperposedSource: null component");
  }
}

double SuperposedSource::next_frame() {
  double total = 0.0;
  for (auto& c : components_) total += c->next_frame();
  return total;
}

void SuperposedSource::fill(double* out, std::size_t n) {
  fill_frames(*this, out, n);
}

double SuperposedSource::mean() const {
  double total = 0.0;
  for (const auto& c : components_) total += c->mean();
  return total;
}

double SuperposedSource::variance() const {
  // Components are independent by construction, so variances add.
  double total = 0.0;
  for (const auto& c : components_) total += c->variance();
  return total;
}

std::unique_ptr<FrameSource> SuperposedSource::clone(std::uint64_t seed) const {
  // Derive decorrelated per-component seeds deterministically.
  util::SplitMix64 seeder(seed);
  std::vector<std::unique_ptr<FrameSource>> clones;
  clones.reserve(components_.size());
  for (const auto& c : components_) {
    clones.push_back(c->clone(seeder.next()));
  }
  return std::make_unique<SuperposedSource>(std::move(clones), name_);
}

}  // namespace cts::proc
