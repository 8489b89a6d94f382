// Unit tests for the generic exact-Gaussian sources (arbitrary ACF).

#include "cts/proc/gaussian_acf_source.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "cts/core/simd.hpp"
#include "cts/stats/acf.hpp"
#include "cts/util/accumulator.hpp"
#include "cts/util/error.hpp"

namespace cc = cts::core;
namespace cp = cts::proc;
namespace cs = cts::stats;
namespace cu = cts::util;

TEST(GaussianAcfHosking, GeometricAcfReproduced) {
  auto acf = std::make_shared<cc::GeometricAcf>(0.8);
  cp::GaussianAcfHosking source(acf, 0.0, 1.0, 11);
  std::vector<double> trace(60000);
  for (auto& x : trace) x = source.next_frame();
  const std::vector<double> r = cs::autocorrelation(trace, 6);
  for (std::size_t k = 1; k <= 6; ++k) {
    EXPECT_NEAR(r[k], std::pow(0.8, static_cast<double>(k)), 0.03)
        << "lag " << k;
  }
}

TEST(GaussianAcfHosking, MatchesDedicatedFgnGenerator) {
  // With the FGN ACF this generic source is the Hosking FGN generator: its
  // sample ACF must match FGN's closed form
  // r(k) = 1/2 [(k+1)^{2H} - 2k^{2H} + (k-1)^{2H}].
  auto acf = std::make_shared<cc::ExactLrdAcf>(0.8, 1.0);
  cp::GaussianAcfHosking generic(acf, 0.0, 1.0, 21);
  std::vector<double> trace(8192);
  for (auto& x : trace) x = generic.next_frame();
  const std::vector<double> r = cs::autocorrelation(trace, 4);
  for (std::size_t k = 1; k <= 4; ++k) {
    const double kd = static_cast<double>(k);
    const double fgn = 0.5 * (std::pow(kd + 1.0, 1.6) - 2.0 * std::pow(kd, 1.6) +
                              std::pow(kd - 1.0, 1.6));
    EXPECT_NEAR(r[k], fgn, 0.08) << "lag " << k;
  }
}

TEST(GaussianAcfHosking, TabulatedEmpiricalAcfRoundTrip) {
  // The modelling loop of the paper: tabulate an ACF, simulate from it,
  // re-measure, and recover the table.
  const std::vector<double> table = {1.0, 0.6, 0.45, 0.3, 0.2, 0.1};
  auto acf = std::make_shared<cc::TabulatedAcf>(table);
  cp::GaussianAcfHosking source(acf, 500.0, 5000.0, 31);
  std::vector<double> trace(120000);
  for (auto& x : trace) x = source.next_frame();
  const std::vector<double> r = cs::autocorrelation(trace, 5);
  for (std::size_t k = 1; k <= 5; ++k) {
    EXPECT_NEAR(r[k], table[k], 0.03) << "lag " << k;
  }
}

TEST(GaussianAcfDaviesHarte, FgnBlockGeneration) {
  auto acf = std::make_shared<cc::ExactLrdAcf>(0.85, 0.9);
  cp::GaussianAcfDaviesHarte source(acf, 500.0, 5000.0, 4096, 41);
  EXPECT_EQ(source.block_length(), 4096u);
  cu::MomentAccumulator acc;
  std::vector<double> trace(32768);
  for (auto& x : trace) {
    x = source.next_frame();
    acc.add(x);
  }
  EXPECT_NEAR(acc.mean(), 500.0, 15.0);
  EXPECT_NEAR(acc.variance(), 5000.0, 700.0);
  const std::vector<double> r = cs::autocorrelation(trace, 5);
  for (std::size_t k = 1; k <= 5; ++k) {
    EXPECT_NEAR(r[k], acf->at(k), 0.06) << "lag " << k;
  }
}

TEST(GaussianAcfDaviesHarte, RejectsNonEmbeddableAcf) {
  // An ACF that is not positive semi-definite cannot be embedded: r(1)
  // close to -1 at lag 1 but 0 elsewhere violates PSD-ness of the circulant
  // for moderate block lengths.
  auto bad = std::make_shared<cc::TabulatedAcf>(
      std::vector<double>{1.0, -0.9});
  EXPECT_THROW(cp::GaussianAcfDaviesHarte(bad, 0.0, 1.0, 64, 1),
               cu::NumericalError);
}

TEST(GaussianAcfSources, CloneDeterminism) {
  auto acf = std::make_shared<cc::GeometricAcf>(0.5);
  cp::GaussianAcfHosking hosking(acf, 0.0, 1.0, 1);
  auto a = hosking.clone(7);
  auto b = hosking.clone(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a->next_frame(), b->next_frame());
  }
  cp::GaussianAcfDaviesHarte dh(acf, 0.0, 1.0, 256, 1);
  auto c = dh.clone(7);
  auto d = dh.clone(7);
  for (int i = 0; i < 600; ++i) {
    EXPECT_DOUBLE_EQ(c->next_frame(), d->next_frame());
  }
}

TEST(GaussianAcfDaviesHarte, ClonePreservesEmbeddingTolerance) {
  // Regression: clone() used to rebuild the embedding with the DEFAULT
  // tolerance, so per-replication clones of a source admitted under a
  // loosened tolerance threw NumericalError.  r = {1, -0.55} has circulant
  // eigenvalue sum 1 - 2*0.55 = -0.1 < 0: embeddable only when the
  // tolerance admits -0.1.
  auto acf =
      std::make_shared<cc::TabulatedAcf>(std::vector<double>{1.0, -0.55});
  EXPECT_THROW(cp::GaussianAcfDaviesHarte(acf, 0.0, 1.0, 64, 1),
               cu::NumericalError);  // default tolerance rejects it
  cp::GaussianAcfDaviesHarte source(acf, 0.0, 1.0, 64, 1, 0.2);
  EXPECT_DOUBLE_EQ(source.tolerance(), 0.2);
  std::unique_ptr<cp::FrameSource> copy;
  ASSERT_NO_THROW(copy = source.clone(9));
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(std::isfinite(copy->next_frame()));
  }
}

TEST(GaussianAcfSources, DispatchKindsProduceIdenticalStreams) {
  // The batched Davies-Harte refill and the Hosking inner products run
  // through the SIMD dispatch layer; every kind must emit the exact same
  // frame stream.
  namespace cds = cts::core::simd;
  struct Guard {
    ~Guard() { cds::clear_force(); }
  } guard;
  std::vector<cds::Kind> kinds{cds::Kind::kScalar};
  if (cds::best_supported() >= cds::Kind::kSse2)
    kinds.push_back(cds::Kind::kSse2);
  if (cds::best_supported() >= cds::Kind::kAvx2)
    kinds.push_back(cds::Kind::kAvx2);

  auto acf = std::make_shared<cc::ExactLrdAcf>(0.85, 0.9);
  std::vector<double> dh_ref, hosking_ref;
  for (const cds::Kind kind : kinds) {
    cds::force(kind);
    cp::GaussianAcfDaviesHarte dh(acf, 500.0, 5000.0, 256, 7);
    cp::GaussianAcfHosking hosking(acf, 500.0, 5000.0, 7, 128);
    std::vector<double> dh_got(1024), hosking_got(512);
    for (auto& x : dh_got) x = dh.next_frame();
    for (auto& x : hosking_got) x = hosking.next_frame();
    if (kind == cds::Kind::kScalar) {
      dh_ref = dh_got;
      hosking_ref = hosking_got;
      continue;
    }
    ASSERT_EQ(dh_got.size(), dh_ref.size());
    for (std::size_t i = 0; i < dh_got.size(); ++i) {
      ASSERT_EQ(dh_got[i], dh_ref[i])
          << "dh kind=" << cds::kind_name(kind) << " frame " << i;
    }
    for (std::size_t i = 0; i < hosking_got.size(); ++i) {
      ASSERT_EQ(hosking_got[i], hosking_ref[i])
          << "hosking kind=" << cds::kind_name(kind) << " frame " << i;
    }
  }
}

TEST(GaussianAcfSources, RejectBadConstruction) {
  auto acf = std::make_shared<cc::GeometricAcf>(0.5);
  EXPECT_THROW(cp::GaussianAcfHosking(nullptr, 0.0, 1.0, 1),
               cu::InvalidArgument);
  EXPECT_THROW(cp::GaussianAcfHosking(acf, 0.0, 0.0, 1),
               cu::InvalidArgument);
  EXPECT_THROW(cp::GaussianAcfDaviesHarte(acf, 0.0, 1.0, 1, 1),
               cu::InvalidArgument);
}
