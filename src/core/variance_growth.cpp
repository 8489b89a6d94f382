#include "cts/core/variance_growth.hpp"

#include <cmath>

#include "cts/util/error.hpp"

namespace cts::core {

VarianceGrowth::VarianceGrowth(std::shared_ptr<const AcfModel> acf,
                               double variance)
    : acf_(std::move(acf)), variance_(variance) {
  util::require(acf_ != nullptr, "VarianceGrowth: acf required");
  util::require(variance > 0.0, "VarianceGrowth: variance must be > 0");
}

void VarianceGrowth::ensure(std::size_t m) const {
  if (v_.size() > m) return;
  v_.reserve(m + 1);
  inv2v_.reserve(m + 1);
  while (v_.size() <= m) {
    const std::size_t i = v_.size();  // next lag to absorb
    const double r = acf_->at(i);
    s1_ += r;
    s2_ += static_cast<double>(i) * r;
    // sum_{j=1..i} (i - j) r(j) = i S1(i) - S2(i); the j = i term is zero
    // so including it in the running sums is harmless.
    const double id = static_cast<double>(i);
    const double weighted = id * s1_ - s2_;
    const double v = variance_ * (id + 2.0 * weighted);
    v_.push_back(v);
    inv2v_.push_back(1.0 / (2.0 * v));
  }
}

double VarianceGrowth::at(std::size_t m) const {
  util::require(m >= 1, "VarianceGrowth::at: m must be >= 1");
  ensure(m);
  return v_[m];
}

}  // namespace cts::core
