#include "cts/core/large_n.hpp"

#include <algorithm>
#include <cmath>

#include "cts/util/error.hpp"

namespace cts::core {

BopPoint large_n_log10_bop(const RateFunction& rate, double buffer_per_source,
                           std::size_t n_sources, std::size_t m_hint) {
  return large_n_log10_bop(rate.evaluate(buffer_per_source, m_hint),
                           buffer_per_source, n_sources);
}

BopPoint large_n_log10_bop(const RateResult& r, double buffer_per_source,
                           std::size_t n_sources) {
  util::require(n_sources >= 1, "large_n_log10_bop: need at least one source");
  BopPoint point;
  point.buffer_per_source = buffer_per_source;
  point.rate = r.rate;
  point.critical_m = r.critical_m;
  point.log10_bop =
      std::min(-static_cast<double>(n_sources) * r.rate / std::log(10.0), 0.0);
  return point;
}

}  // namespace cts::core
