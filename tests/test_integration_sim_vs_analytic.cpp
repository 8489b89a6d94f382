// Integration tests: simulation versus large-deviations analytics.
//
// These reproduce the qualitative content of Figs. 5/6/8/9/10 at CI scale.
// The paper's own operating point (c = 538) pushes CLRs to 1e-6 and below,
// which needs its 60 x 500k-frame budget to resolve; since the paper notes
// that "other choices of N and c show qualitatively the same results"
// (Section 5.5), the shape assertions here run at higher utilisation
// (c = 515 cells/frame), where loss events are plentiful at a 3 x 10k-frame
// budget.  The zero-buffer marginal check stays at the paper's c = 538.

#include <cmath>

#include <gtest/gtest.h>

#include "cts/core/br_asymptotic.hpp"
#include "cts/core/large_n.hpp"
#include "cts/core/rate_function.hpp"
#include "cts/sim/curves.hpp"
#include "cts/util/math.hpp"

namespace cc = cts::core;
namespace cf = cts::fit;
namespace cm = cts::sim;

namespace {

cm::MuxGeometry geometry(double c) {
  cm::MuxGeometry g;
  g.n_sources = 30;
  g.bandwidth_per_source = c;
  g.Ts = 0.04;
  return g;
}

// CI scale, tuned for a single-core runner: FBNDP-based sources cost
// ~4 us/frame, so each simulated curve below is a few seconds.
cm::ReplicationConfig test_scale() {
  cm::ReplicationConfig scale;
  scale.replications = 3;
  scale.frames_per_replication = 10000;
  scale.warmup_frames = 500;
  return scale;
}

}  // namespace

TEST(SimVsAnalytic, ZeroBufferClrMatchesGaussianFluidLoss) {
  // At B = 0 the fluid CLR is E[(X - C)^+]/E[X] with X ~ N(N mu, N sigma^2);
  // the paper observes "slightly above 1e-5" and all models must coincide.
  const cm::MuxGeometry g = geometry(538.0);
  const double n = 30.0;
  const double mean = n * 500.0;
  const double sd = std::sqrt(n * 5000.0);
  const double z = (g.total_capacity() - mean) / sd;
  // E[(X-C)^+] = sd [phi(z) - z (1 - Phi(z))].
  const double expected =
      sd *
      (cts::util::normal_pdf(z) - z * (1.0 - cts::util::normal_cdf(z))) /
      mean;
  ASSERT_GT(expected, 0.0);
  for (const auto& model : {cf::make_za(0.9), cf::make_vv(1.0)}) {
    const cm::SimulatedCurve curve =
        cm::simulated_clr_curve(model, g, {1e-9}, test_scale());
    // The aggregate marginal is CLT-Gaussian but slightly right-skewed
    // (Poisson-mixture components), so allow a one-decade band.
    EXPECT_GT(curve.clr[0], expected / 8.0) << model.name;
    EXPECT_LT(curve.clr[0], 8.0 * expected) << model.name;
  }
}

TEST(SimVsAnalytic, VvCurvesBundleZaCurvesFan) {
  // Fig. 8's shape at CI scale: V^v CLRs stay within a small factor of
  // each other while Z^a CLRs spread by a decade or more.  The V bundle is
  // checked at B = 6 ms (where both V levels are well above the CI
  // measurement floor); the Z fan at B = 12 ms, where Z^0.7 has already
  // decayed past Z^0.99 by over a decade.
  const cm::MuxGeometry g = geometry(520.0);
  const std::vector<double> buffer = {6.0};  // msec

  // V^1 instead of V^1.5 keeps runtime sane (the alpha = 0.9 family's
  // ON/OFF crossover scale shrinks like R^{-10}); the bundling claim is
  // unchanged.
  cm::ReplicationConfig v_scale = test_scale();
  v_scale.replications = 2;
  v_scale.frames_per_replication = 6000;
  const double v_lo =
      cm::simulated_clr_curve(cf::make_vv(0.67), g, buffer, v_scale).clr[0];
  const double v_hi =
      cm::simulated_clr_curve(cf::make_vv(1.0), g, buffer, v_scale).clr[0];
  ASSERT_GT(v_lo, 0.0);
  ASSERT_GT(v_hi, 0.0);
  EXPECT_LT(std::abs(std::log10(v_hi) - std::log10(v_lo)), 0.9);

  const std::vector<double> fan_buffer = {12.0};  // msec
  const double z_lo =
      cm::simulated_clr_curve(cf::make_za(0.7), g, fan_buffer, test_scale())
          .clr[0];
  const double z_hi =
      cm::simulated_clr_curve(cf::make_za(0.99), g, fan_buffer, test_scale())
          .clr[0];
  ASSERT_GT(z_hi, 0.0);
  // Z^0.7 typically decays below the measurement floor at this buffer;
  // require the fan to exceed a decade against a conservative floor.
  const double z_lo_floor = std::max(z_lo, 1e-7);
  EXPECT_GT(std::log10(z_hi) - std::log10(z_lo_floor), 1.0);
}

TEST(SimVsAnalytic, DarTracksZaWhileLDoesNot) {
  // Fig. 9's shape: the matched DAR(1) stays within a fraction of a decade
  // of Z^0.975; the pure-LRD L (which misses the strong short-term
  // correlations) errs far more.
  const cm::MuxGeometry g = geometry(515.0);
  const std::vector<double> buffer = {6.0};
  const double z =
      cm::simulated_clr_curve(cf::make_za(0.975), g, buffer, test_scale())
          .clr[0];
  const double dar = cm::simulated_clr_curve(
                         cf::make_dar_matched_to_za(0.975, 1), g, buffer,
                         test_scale())
                         .clr[0];
  const double l =
      cm::simulated_clr_curve(cf::make_l(), g, buffer, test_scale()).clr[0];
  ASSERT_GT(z, 0.0);
  ASSERT_GT(dar, 0.0);
  const double dar_error = std::abs(std::log10(dar) - std::log10(z));
  const double l_error =
      std::abs(std::log10(std::max(l, 1e-8)) - std::log10(z));
  EXPECT_LT(dar_error, 0.8);
  EXPECT_GT(l_error, dar_error);
}

TEST(SimVsAnalytic, AsymptoticsAreConservativeAndOrdered) {
  // Fig. 10's shape: CLR_sim <= BOP_BR <= BOP_largeN at the operating point.
  const cf::ModelSpec dar = cf::make_dar_matched_to_za(0.975, 1);
  const cm::MuxGeometry g = geometry(515.0);
  const double ms = 6.0;
  const double b =
      g.buffer_ms_to_cells(ms) / static_cast<double>(g.n_sources);
  cc::RateFunction rate(dar.acf, dar.mean, dar.variance,
                        g.bandwidth_per_source);
  const double br = cc::br_log10_bop(rate, b, g.n_sources).log10_bop;
  const double ln =
      cc::large_n_log10_bop(rate.evaluate(b), b, g.n_sources).log10_bop;
  const double sim = cm::simulated_clr_curve(dar, g, {ms}, test_scale())
                         .clr[0];
  ASSERT_GT(sim, 0.0);
  EXPECT_LT(std::log10(sim), br);
  EXPECT_LT(br, ln);
  // The infinite-buffer asymptotic over-estimates the finite-buffer CLR
  // (paper: ~2 orders at its operating point); just require a real gap
  // that stays bounded.
  EXPECT_GT(br - std::log10(sim), 0.2);
  EXPECT_LT(br - std::log10(sim), 5.0);
}
