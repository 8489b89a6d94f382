// Unit tests for the model zoo: the canonical V^v, Z^a, S, L constructions.

#include "cts/fit/model_zoo.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "cts/stats/ks.hpp"
#include "cts/util/accumulator.hpp"
#include "cts/util/error.hpp"

namespace cf = cts::fit;
namespace cs = cts::stats;
namespace cu = cts::util;

TEST(ModelZoo, AllModelsShareTheCommonMarginal) {
  const std::vector<cf::ModelSpec> models = {
      cf::make_vv(0.67), cf::make_vv(1.0),  cf::make_vv(1.5),
      cf::make_za(0.7),  cf::make_za(0.975), cf::make_l(),
      cf::make_dar_matched_to_za(0.975, 2)};
  for (const auto& m : models) {
    EXPECT_DOUBLE_EQ(m.mean, 500.0) << m.name;
    EXPECT_DOUBLE_EQ(m.variance, 5000.0) << m.name;
    ASSERT_NE(m.acf, nullptr) << m.name;
    EXPECT_DOUBLE_EQ(m.acf->at(0), 1.0) << m.name;
  }
}

TEST(ModelZoo, VvFamilyPinsFirstLag) {
  const cf::ModelSpec v067 = cf::make_vv(0.67);
  const cf::ModelSpec v100 = cf::make_vv(1.0);
  const cf::ModelSpec v150 = cf::make_vv(1.5);
  EXPECT_NEAR(v067.acf->at(1), v100.acf->at(1), 1e-10);
  EXPECT_NEAR(v100.acf->at(1), v150.acf->at(1), 1e-10);
  // The next few lags stay close (paper Fig. 3-a; the paper's own
  // construction spreads by ~0.06 at lag 5, since only lag 1 is pinned).
  for (std::size_t k = 2; k <= 5; ++k) {
    EXPECT_NEAR(v067.acf->at(k), v150.acf->at(k), 0.08) << "lag " << k;
  }
  // Long-lag correlations must genuinely differ (that's the experiment):
  // the v/(v+1) weights give a ratio -> (0.6/0.4) = 1.5 asymptotically.
  EXPECT_GT(v150.acf->at(500) / v067.acf->at(500), 1.4);
}

TEST(ModelZoo, ZaFamilyVariesShortLagsOnly) {
  const cf::ModelSpec z07 = cf::make_za(0.7);
  const cf::ModelSpec z99 = cf::make_za(0.99);
  // Strongly different short-term correlations...
  EXPECT_GT(z99.acf->at(5) - z07.acf->at(5), 0.2);
  // ...but identical long-term correlations (same FBNDP component).
  EXPECT_NEAR(z07.acf->at(2000), z99.acf->at(2000), 1e-6);
}

TEST(ModelZoo, ZaAcfMatchesEquationFive) {
  const cf::ModelSpec z = cf::make_za(0.9);
  // r(k) = 0.5 * rX(k) + 0.5 * 0.9^k with rX the alpha=0.8 exact-LRD ACF
  // of weight 0.9.
  const cts::core::ExactLrdAcf lrd(0.9, 0.9);  // H = 0.9, w = 0.9
  for (const std::size_t k :
       {std::size_t{1}, std::size_t{3}, std::size_t{10}, std::size_t{100}}) {
    const double expected =
        0.5 * lrd.at(k) + 0.5 * std::pow(0.9, static_cast<double>(k));
    EXPECT_NEAR(z.acf->at(k), expected, 1e-10) << "lag " << k;
  }
}

TEST(ModelZoo, DarMatchedReproducesFirstPLags) {
  for (const double a : {0.7, 0.975}) {
    const cf::ModelSpec z = cf::make_za(a);
    for (const std::size_t p : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}}) {
      const cf::ModelSpec s = cf::make_dar_matched_to_za(a, p);
      for (std::size_t k = 1; k <= p; ++k) {
        EXPECT_NEAR(s.acf->at(k), z.acf->at(k), 1e-8)
            << "a=" << a << " p=" << p << " k=" << k;
      }
    }
  }
}

TEST(ModelZoo, LMatchesPaperAlpha) {
  const cf::MixtureReport report = cf::report_l();
  // Paper: alpha = 0.72 (H = 0.86); our independent fit should land close.
  EXPECT_NEAR(report.alpha, 0.72, 0.04);
  EXPECT_NEAR(report.t0_msec, 1.83, 0.25);
  EXPECT_EQ(report.M, 30u);
  EXPECT_NEAR(report.lambda, 12500.0, 1e-6);
}

TEST(ModelZoo, LTailTracksZaTail) {
  const cf::ModelSpec z = cf::make_za(0.9);
  const cf::ModelSpec l = cf::make_l();
  // Fig. 3-b: close long-term correlations over 100..1000 lags (log space).
  for (const std::size_t k : {std::size_t{100}, std::size_t{300},
                              std::size_t{1000}}) {
    EXPECT_NEAR(std::log(l.acf->at(k)), std::log(z.acf->at(k)), 0.25)
        << "lag " << k;
  }
}

TEST(ModelZoo, ReportsMatchTable1) {
  const cf::MixtureReport za = cf::report_za(0.975);
  EXPECT_NEAR(za.lambda, 6250.0, 1e-9);
  EXPECT_NEAR(za.t0_msec, 2.57, 0.01);
  EXPECT_EQ(za.M, 15u);

  for (const double v : {0.67, 1.0, 1.5}) {
    const cf::MixtureReport vv = cf::report_vv(v);
    EXPECT_NEAR(vv.t0_msec, 3.48, 0.01) << "v=" << v;
    EXPECT_NEAR(vv.a, 0.8, 0.02) << "v=" << v;
  }
  // lambda rows: ~5000 / 6250 / 7500 cells/s.
  EXPECT_NEAR(cf::report_vv(1.0).lambda, 6250.0, 1.0);
  EXPECT_NEAR(cf::report_vv(0.67).lambda, 5000.0, 30.0);
  EXPECT_NEAR(cf::report_vv(1.5).lambda, 7500.0, 10.0);
}

TEST(ModelZoo, SimulatedMarginalIsGaussian) {
  // The keystone of the paper's experimental design: simulated frames of
  // Z^a pass a KS normality check against N(500, 5000).
  const cf::ModelSpec z = cf::make_za(0.9);
  auto source = z.make_source(12345);
  std::vector<double> sample(50000);
  for (auto& x : sample) x = source->next_frame();
  const cs::KsResult ks = cs::ks_test_normal(sample, 500.0, 5000.0);
  // Correlated samples inflate the KS statistic; we only require the
  // distributional distance to be small, not the i.i.d. p-value.
  EXPECT_LT(ks.statistic, 0.05);
}

TEST(ModelZoo, SimulatedMomentsMatchSpec) {
  // Pool independent sources: single-path means of H ~ 0.9-0.95 processes
  // converge at n^{H-1}, far too slowly for a tight one-path assertion.
  // (V^0.67 rather than V^1.5: same code path, ~50x cheaper ON/OFF
  // bookkeeping -- the alpha = 0.9 family's crossover scale A shrinks as
  // R^{-10}.)
  for (const auto& spec : {cf::make_za(0.7), cf::make_vv(0.67)}) {
    cu::MomentAccumulator acc;
    for (int s = 0; s < 24; ++s) {
      auto source = spec.make_source(777 + static_cast<std::uint64_t>(s));
      for (int i = 0; i < 30000; ++i) acc.add(source->next_frame());
    }
    EXPECT_NEAR(acc.mean(), spec.mean, 25.0) << spec.name;
    EXPECT_NEAR(acc.variance(), spec.variance, 0.3 * spec.variance)
        << spec.name;
  }
}

TEST(ModelZoo, WhiteAndAr1References) {
  const cf::ModelSpec white = cf::make_white();
  EXPECT_DOUBLE_EQ(white.acf->at(1), 0.0);
  const cf::ModelSpec ar1 = cf::make_ar1(0.6);
  EXPECT_NEAR(ar1.acf->at(2), 0.36, 1e-12);
  auto source = ar1.make_source(5);
  EXPECT_DOUBLE_EQ(source->mean(), 500.0);
}

TEST(ModelZoo, RejectsBadParameters) {
  EXPECT_THROW(cf::make_vv(0.0), cu::InvalidArgument);
  EXPECT_THROW(cf::make_za(1.0), cu::InvalidArgument);
  EXPECT_THROW(cf::make_dar_matched_to_za(0.9, 0), cu::InvalidArgument);
}

TEST(ModelZoo, IdsRejectNonFiniteParameters) {
  for (const char* id : {"za:nan", "za:inf", "vv:inf", "ar1:nan",
                         "dar:-inf:2", "farima:infinity", "mginf:NaN"}) {
    try {
      cf::model_from_id(id);
      ADD_FAILURE() << id << " was accepted";
    } catch (const cu::InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("expected a number"),
                std::string::npos)
          << e.what();
    }
  }
}
