// Hurst-parameter estimators.
//
// Beran et al. established the LRD of VBR video (H > 0.5) with exactly
// these classical estimators; we implement three independent ones so the
// synthetic models can be verified to carry the Hurst parameter their
// analytics claim:
//
//  * variance-time (aggregated variance):  Var(X^{(m)}) ~ m^{2H-2}
//  * rescaled range (R/S):                 E[R/S](n) ~ n^H
//  * log-periodogram (Geweke/Porter-Hudak): I(w) ~ w^{1-2H} near 0.

#pragma once

#include <cstddef>
#include <vector>

namespace cts::stats {

/// Result of a Hurst estimation: the estimate plus the regression diagnostics.
struct HurstEstimate {
  double hurst = 0.5;
  double slope = 0.0;      ///< fitted log-log slope
  double r_squared = 0.0;  ///< regression fit quality
  std::size_t points = 0;  ///< number of regression points used
};

/// Variance-time estimator.  Aggregation levels are spaced geometrically
/// between `min_m` and series.size()/min_blocks.
HurstEstimate hurst_variance_time(const std::vector<double>& series,
                                  std::size_t min_m = 4,
                                  std::size_t min_blocks = 8);

/// Rescaled-range (R/S) estimator with geometrically spaced block sizes.
HurstEstimate hurst_rescaled_range(const std::vector<double>& series,
                                   std::size_t min_n = 16);

/// Geweke/Porter-Hudak log-periodogram estimator using the lowest
/// floor(series.size()^power) Fourier frequencies (power in (0,1),
/// conventionally 0.5).
HurstEstimate hurst_gph(const std::vector<double>& series,
                        double power = 0.5);

}  // namespace cts::stats
