// Aggregate variance V(m) = Var(Y_1 + ... + Y_m).
//
// This is the only statistic through which correlations enter the
// Bahadur-Rao rate function (paper eq. 10):
//
//   V(m) = sigma^2 [ m + 2 sum_{i=1..m} (m - i) r(i) ].
//
// The class materialises V as a dense table extended in bulk (one tight
// loop over new lags, running prefix sums S1(m) = sum r(i) and
// S2(m) = sum i r(i)), so a sweep over m (the CTS search) costs O(1)
// amortised per step and the SIMD scan kernels can read V(m) directly
// from contiguous memory.

#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "cts/core/acf_model.hpp"

namespace cts::core {

/// Incrementally evaluated aggregate variance of a correlated sum.
class VarianceGrowth {
 public:
  /// `acf` must outlive this object (shared ownership).
  VarianceGrowth(std::shared_ptr<const AcfModel> acf, double variance);

  /// V(m) for m >= 1; extends the internal table as needed.
  double at(std::size_t m) const;

  /// Bulk-extends the table so every V(1..m) is materialised.  One ACF
  /// evaluation and a handful of flops per new lag; values are identical
  /// to what repeated `at()` calls would produce (same summation order).
  void ensure(std::size_t m) const;

  /// Dense table with table()[m] == V(m) for 1 <= m <= table_size() - 1;
  /// index 0 is unused.  Valid until the next `ensure`/`at` call that
  /// grows the table.
  const double* table() const noexcept { return v_.data(); }
  std::size_t table_size() const noexcept { return v_.size(); }

  /// Companion reciprocal table: inv_table()[m] == 1 / (2 V(m)), same
  /// indexing and lifetime as `table()`.  The CTS scan objective is
  /// (b + m drift)^2 * inv_table()[m]; precomputing the reciprocal once
  /// per lag keeps the per-element scan free of divisions (the divider's
  /// throughput would otherwise bound the SIMD speedup).
  const double* inv_table() const noexcept { return inv2v_.data(); }

  double variance() const noexcept { return variance_; }
  const AcfModel& acf() const noexcept { return *acf_; }

 private:
  std::shared_ptr<const AcfModel> acf_;
  double variance_;
  // v_[m] = V(m), inv2v_[m] = 1/(2 V(m)); index 0 unused.  s1_/s2_ are the
  // running prefix sums S1(m) and S2(m) over the lags absorbed so far
  // (m = v_.size() - 1).
  mutable std::vector<double> v_{0.0};
  mutable std::vector<double> inv2v_{0.0};
  mutable double s1_ = 0.0;
  mutable double s2_ = 0.0;
};

}  // namespace cts::core
