// Unit tests for the spectral density module (Section 6.2's cutoff link).

#include "cts/core/spectrum.hpp"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "cts/core/rate_function.hpp"
#include "cts/util/error.hpp"
#include "cts/util/math.hpp"

namespace cc = cts::core;
namespace cu = cts::util;

TEST(Spectrum, WhiteNoiseIsFlat) {
  auto acf = std::make_shared<cc::WhiteAcf>();
  const cc::Spectrum spectrum(acf, 2.0);
  for (const double w : {0.01, 0.5, 1.5, 3.0}) {
    EXPECT_NEAR(spectrum.density(w), 2.0, 1e-9) << "w=" << w;
  }
}

TEST(Spectrum, GeometricMatchesClosedForm) {
  // AR(1)/DAR(1) spectral density:
  //   S(w) = sigma^2 (1 - a^2) / (1 - 2 a cos w + a^2).
  const double a = 0.8;
  const double sigma2 = 5000.0;
  auto acf = std::make_shared<cc::GeometricAcf>(a);
  const cc::Spectrum spectrum(acf, sigma2, 1u << 12);
  for (const double w : {0.1, 0.5, 1.0, 2.0, 3.0}) {
    const double expected = sigma2 * (1.0 - a * a) /
                            (1.0 - 2.0 * a * std::cos(w) + a * a);
    EXPECT_NEAR(spectrum.density(w) / expected, 1.0, 0.02) << "w=" << w;
  }
}

TEST(Spectrum, LrdDivergesAtZero) {
  auto acf = std::make_shared<cc::ExactLrdAcf>(0.9, 0.9);
  const cc::Spectrum spectrum(acf, 5000.0, 1u << 15);
  // S(w) ~ w^{1-2H} = w^{-0.8}: density grows steeply toward w = 0.
  // Probe a decade well inside the truncation's resolution (1/w << N).
  const double s_small = spectrum.density(0.01);
  const double s_smaller = spectrum.density(0.001);
  EXPECT_GT(s_smaller, 3.0 * s_small);
  // And the growth exponent is roughly 1 - 2H.
  EXPECT_NEAR(std::log(s_smaller / s_small) / std::log(10.0), 0.8, 0.3);
}

TEST(Spectrum, TotalPowerIsParseval) {
  // integral_0^pi S = pi sigma^2 (one-sided, r(0) term) for white noise.
  auto acf = std::make_shared<cc::WhiteAcf>();
  const cc::Spectrum spectrum(acf, 3.0);
  constexpr int kGrid = 512;
  double total = 0.0;
  for (int i = 0; i < kGrid; ++i) {
    const double lo = cu::kPi * i / kGrid;
    const double hi = cu::kPi * (i + 1) / kGrid;
    total += 0.5 * (spectrum.density(std::max(lo, 1e-9)) +
                    spectrum.density(hi)) * (hi - lo);
  }
  EXPECT_NEAR(total, cu::kPi * 3.0, 0.02 * cu::kPi);
}

TEST(Spectrum, CutoffOrderingAcrossModels) {
  // More low-frequency power => smaller cutoff.  Within the geometric
  // family the cutoff is monotone in a; any correlated model sits below
  // white noise.  (LRD with H < 1 has an INTEGRABLE w^{1-2H} divergence,
  // so a narrow a = 0.95 Lorentzian can still concentrate more power near
  // zero than H = 0.9 LRD -- cross-family order is not determined by H.)
  const double sigma2 = 1.0;
  const cc::Spectrum white(std::make_shared<cc::WhiteAcf>(), sigma2);
  const cc::Spectrum weak(std::make_shared<cc::GeometricAcf>(0.5), sigma2);
  const cc::Spectrum strong(std::make_shared<cc::GeometricAcf>(0.95),
                            sigma2);
  const cc::Spectrum lrd(std::make_shared<cc::ExactLrdAcf>(0.9, 0.9),
                         sigma2, 1u << 15);
  const double wc_white = white.cutoff_frequency();
  const double wc_weak = weak.cutoff_frequency();
  const double wc_strong = strong.cutoff_frequency();
  const double wc_lrd = lrd.cutoff_frequency();
  EXPECT_GT(wc_white, wc_weak);
  EXPECT_GT(wc_weak, wc_strong);
  EXPECT_GT(wc_white, wc_lrd);
  // White noise: flat spectrum -> median frequency at pi/2.
  EXPECT_NEAR(wc_white, cu::kPi / 2.0, 0.05);
}

TEST(Spectrum, CutoffTimeScaleTracksCts) {
  // Section 6.2: the CTS is "closely related" to the cutoff's time scale.
  // Check the correlation qualitatively: a model with 4x the CTS has a
  // clearly larger cutoff time scale.
  const double sigma2 = 5000.0;
  auto weak_acf = std::make_shared<cc::GeometricAcf>(0.7);
  auto strong_acf = std::make_shared<cc::GeometricAcf>(0.975);
  const cc::Spectrum weak(weak_acf, sigma2);
  const cc::Spectrum strong(strong_acf, sigma2);
  const double ts_weak = cc::cutoff_time_scale(weak.cutoff_frequency());
  const double ts_strong = cc::cutoff_time_scale(strong.cutoff_frequency());
  cc::RateFunction weak_rate(weak_acf, 500.0, sigma2, 526.0);
  cc::RateFunction strong_rate(strong_acf, 500.0, sigma2, 526.0);
  const double b = 300.0;
  const auto m_weak = weak_rate.evaluate(b).critical_m;
  const auto m_strong = strong_rate.evaluate(b).critical_m;
  EXPECT_GT(m_strong, m_weak);
  EXPECT_GT(ts_strong, ts_weak);
}

TEST(Spectrum, RejectsBadArguments) {
  auto acf = std::make_shared<cc::WhiteAcf>();
  EXPECT_THROW(cc::Spectrum(nullptr, 1.0), cu::InvalidArgument);
  EXPECT_THROW(cc::Spectrum(acf, 0.0), cu::InvalidArgument);
  const cc::Spectrum spectrum(acf, 1.0);
  EXPECT_THROW(spectrum.density(0.0), cu::InvalidArgument);
  EXPECT_THROW(spectrum.density(4.0), cu::InvalidArgument);
  EXPECT_THROW(spectrum.cutoff_frequency(0.0), cu::InvalidArgument);
  EXPECT_THROW(cc::cutoff_time_scale(0.0), cu::InvalidArgument);
}
