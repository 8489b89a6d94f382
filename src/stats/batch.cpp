#include "cts/stats/batch.hpp"

#include <cmath>

#include "cts/util/error.hpp"
#include "cts/util/student_t.hpp"

namespace cts::stats {

IntervalEstimate replication_interval(const std::vector<double>& estimates,
                                      double confidence) {
  util::require(!estimates.empty(), "replication_interval: no estimates");
  IntervalEstimate out;
  out.samples = estimates.size();
  double mean = 0.0;
  for (const double e : estimates) mean += e;
  mean /= static_cast<double>(estimates.size());
  out.mean = mean;
  if (estimates.size() < 2) return out;
  double ss = 0.0;
  for (const double e : estimates) ss += (e - mean) * (e - mean);
  const double stddev =
      std::sqrt(ss / static_cast<double>(estimates.size() - 1));
  out.half_width =
      util::confidence_half_width(stddev, estimates.size(), confidence);
  return out;
}

}  // namespace cts::stats
