// Replication confidence intervals.
//
// The simulated CLR points in Figs. 8-10 come from independent
// replications; this module turns per-replication estimates into a mean
// with a Student-t confidence interval.

#pragma once

#include <cstddef>
#include <vector>

namespace cts::stats {

/// A point estimate with a symmetric confidence interval.
struct IntervalEstimate {
  double mean = 0.0;
  double half_width = 0.0;
  std::size_t samples = 0;

  double low() const noexcept { return mean - half_width; }
  double high() const noexcept { return mean + half_width; }
};

/// Mean and t-interval across independent replication estimates.
IntervalEstimate replication_interval(const std::vector<double>& estimates,
                                      double confidence = 0.95);

}  // namespace cts::stats
