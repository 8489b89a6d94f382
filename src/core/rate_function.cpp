#include "cts/core/rate_function.hpp"

#include <algorithm>
#include <cmath>

#include "cts/core/simd.hpp"
#include "cts/obs/trace.hpp"
#include "cts/util/error.hpp"

namespace cts::core {

RateFunction::RateFunction(std::shared_ptr<const AcfModel> acf, double mean,
                           double variance, double bandwidth)
    : RateFunction(std::make_shared<const VarianceGrowth>(std::move(acf),
                                                          variance),
                   mean, bandwidth) {}

RateFunction::RateFunction(std::shared_ptr<const VarianceGrowth> growth,
                           double mean, double bandwidth)
    : growth_(std::move(growth)), mean_(mean), bandwidth_(bandwidth) {
  util::require(growth_ != nullptr, "RateFunction: V(m) table required");
  util::require(bandwidth > mean,
                "RateFunction: bandwidth must exceed the mean (stability)");
}

RateResult RateFunction::evaluate(double buffer_per_source) const {
  return evaluate(buffer_per_source, 1);
}

RateResult RateFunction::evaluate(double buffer_per_source,
                                  std::size_t m_hint) const {
  // One span per buffer point (tens per curve), not per scanned m — the
  // windowed scan below covers up to kMaxScan lags and must stay
  // allocation-free beyond the shared V(m) table growth.
  CTS_TRACE_SPAN("rate_fn.scan");
  util::require(buffer_per_source >= 0.0,
                "RateFunction::evaluate: buffer must be >= 0");
  util::require(m_hint >= 1 && m_hint <= kMaxScan,
                "RateFunction::evaluate: m_hint must be in [1, kMaxScan]");
  const double b = buffer_per_source;
  const double drift = bandwidth_ - mean_;

  // Guaranteed-coverage scan horizon: the worst-case CTS scaling over all
  // H < 1 handled in practice (H <= 0.98) plus a generous multiplicative
  // margin; combined with the "keep going while improving" rule below this
  // cannot stop before the global integer minimum for objectives whose
  // tail is eventually increasing (true since V(m) = o(m^2)).
  constexpr double kWorstCaseHurst = 0.98;
  constexpr std::size_t kMinScan = 512;
  constexpr double kScanMargin = 4.0;
  const double lrd_prediction =
      kWorstCaseHurst / (1.0 - kWorstCaseHurst) * b / drift;
  // A warm start deep into the scan still gets the full multiplicative
  // margin past the hint, so the stopping rule's coverage guarantee holds
  // unchanged.  The initial horizon is validated against kMaxScan in
  // double precision BEFORE any integer conversion: for huge b/drift the
  // old llround-first path was undefined behaviour and silently produced
  // an unclamped scan length.
  const double wanted =
      std::max({static_cast<double>(kMinScan), kScanMargin * lrd_prediction,
                kScanMargin * static_cast<double>(m_hint)});
  if (!(wanted <= static_cast<double>(kMaxScan))) {
    throw util::NumericalError(
        "RateFunction: CTS scan exceeded kMaxScan; the model may have "
        "H too close to 1 or a non-summable objective");
  }
  std::size_t horizon = static_cast<std::size_t>(std::llround(wanted));

  growth_->ensure(horizon);
  RateResult best;
  best.critical_m = m_hint;
  {
    const double md = static_cast<double>(m_hint);
    const double numerator = b + md * drift;
    best.rate = numerator * numerator * growth_->inv_table()[m_hint];
  }
  // Windowed scan: each window [lo, hi] is an argmin over the dispatched
  // SIMD kernel.  Equivalent to the sequential scan-with-extension: within
  // a window the last running-minimum update is the window argmin (strict
  // <, lowest m on ties), improvements occur at increasing m, so the
  // furthest horizon push — and the kMaxScan overflow check — happen at
  // exactly the window argmin.
  std::size_t lo = m_hint + 1;
  while (lo <= horizon) {
    const std::size_t hi = horizon;
    const simd::ScanPoint point =
        simd::scan_min(b, drift, growth_->inv_table(), lo, hi);
    if (point.value < best.rate) {
      best.rate = point.value;
      best.critical_m = point.m;
      // Push the horizon whenever the minimum keeps moving outward.
      const auto extended = static_cast<std::size_t>(
          std::llround(kScanMargin * static_cast<double>(point.m)));
      if (extended > kMaxScan) {
        throw util::NumericalError(
            "RateFunction: CTS scan exceeded kMaxScan; the model may have "
            "H too close to 1 or a non-summable objective");
      }
      if (extended > horizon) {
        horizon = extended;
        growth_->ensure(horizon);
      }
    }
    lo = hi + 1;
  }
  return best;
}

double lrd_cts_slope(double hurst, double mean, double bandwidth) {
  util::require(hurst > 0.0 && hurst < 1.0, "lrd_cts_slope: H in (0,1)");
  util::require(bandwidth > mean, "lrd_cts_slope: bandwidth must exceed mean");
  return hurst / ((1.0 - hurst) * (bandwidth - mean));
}

double markov_cts_slope(double mean, double bandwidth) {
  util::require(bandwidth > mean,
                "markov_cts_slope: bandwidth must exceed mean");
  return 1.0 / (bandwidth - mean);
}

}  // namespace cts::core
