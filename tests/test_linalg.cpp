// Unit tests for the Toeplitz solver and its dense reference.

#include "cts/util/linalg.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "cts/util/error.hpp"
#include "dense_solve.hpp"

namespace ct = cts::test;
namespace cu = cts::util;

TEST(Matrix, MultiplyBasics) {
  ct::Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  const std::vector<double> v = {1.0, 1.0, 1.0};
  const std::vector<double> out = a.multiply(v);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 6.0);
  EXPECT_DOUBLE_EQ(out[1], 15.0);
}

TEST(Matrix, MultiplyRejectsShapeMismatch) {
  ct::Matrix a(2, 3);
  EXPECT_THROW(a.multiply({1.0, 2.0}), cu::InvalidArgument);
}

TEST(SolveDense, KnownSystem) {
  ct::Matrix a(3, 3);
  a(0, 0) = 2; a(0, 1) = 1; a(0, 2) = -1;
  a(1, 0) = -3; a(1, 1) = -1; a(1, 2) = 2;
  a(2, 0) = -2; a(2, 1) = 1; a(2, 2) = 2;
  const std::vector<double> b = {8, -11, -3};
  const std::vector<double> x = ct::solve_dense(a, b);
  ASSERT_EQ(x.size(), 3u);
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
  EXPECT_NEAR(x[2], -1.0, 1e-12);
}

TEST(SolveDense, RequiresPivoting) {
  // Zero on the diagonal: solvable only with row exchange.
  ct::Matrix a(2, 2);
  a(0, 0) = 0; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 0;
  const std::vector<double> x = ct::solve_dense(a, {3.0, 5.0});
  EXPECT_NEAR(x[0], 5.0, 1e-14);
  EXPECT_NEAR(x[1], 3.0, 1e-14);
}

TEST(SolveDense, DetectsSingularity) {
  ct::Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 2; a(1, 1) = 4;
  EXPECT_THROW(ct::solve_dense(a, {1.0, 2.0}), cu::NumericalError);
}

TEST(SolveDense, RejectsShapeMismatch) {
  ct::Matrix a(2, 3);
  EXPECT_THROW(ct::solve_dense(a, {1.0, 2.0}), cu::InvalidArgument);
}

TEST(SolveToeplitz, MatchesDenseSolveOnRandomSpdSystems) {
  // Symmetric Toeplitz with decaying off-diagonals (diagonally dominant,
  // hence well-conditioned), vs. the dense solver.
  for (const std::size_t n : {1u, 2u, 3u, 5u, 8u, 13u}) {
    std::vector<double> t(n, 0.0);
    t[0] = 1.0;
    for (std::size_t i = 1; i < n; ++i) {
      t[i] = 0.5 / static_cast<double>(i + 1);
    }
    std::vector<double> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      b[i] = std::sin(static_cast<double>(i) + 1.0);
    }
    ct::Matrix full(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        full(r, c) = t[r > c ? r - c : c - r];
      }
    }
    const std::vector<double> dense = ct::solve_dense(full, b);
    const std::vector<double> toeplitz = cu::solve_toeplitz(t, b);
    ASSERT_EQ(toeplitz.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(toeplitz[i], dense[i], 1e-9) << "n=" << n << " i=" << i;
    }
  }
}

TEST(SolveToeplitz, ResidualIsSmall) {
  const std::vector<double> t = {1.0, 0.8, 0.64, 0.512};
  const std::vector<double> b = {0.8, 0.64, 0.512, 0.4096};
  const std::vector<double> x = cu::solve_toeplitz(t, b);
  ct::Matrix full(4, 4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      full(r, c) = t[r > c ? r - c : c - r];
    }
  }
  const std::vector<double> residual = full.multiply(x);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(residual[i], b[i], 1e-10);
  }
}

TEST(SolveToeplitz, GeometricAcfHasLagOneSolution) {
  // For r(k) = a^k the Yule-Walker solution is AR(1): c = (a, 0, 0).
  const double a = 0.8;
  const std::vector<double> t = {1.0, a, a * a};
  const std::vector<double> b = {a, a * a, a * a * a};
  const std::vector<double> x = cu::solve_toeplitz(t, b);
  EXPECT_NEAR(x[0], a, 1e-12);
  EXPECT_NEAR(x[1], 0.0, 1e-12);
  EXPECT_NEAR(x[2], 0.0, 1e-12);
}

TEST(SolveToeplitz, RejectsBadInput) {
  EXPECT_THROW(cu::solve_toeplitz({}, {}), cu::InvalidArgument);
  EXPECT_THROW(cu::solve_toeplitz({0.0}, {1.0}), cu::NumericalError);
  EXPECT_THROW(cu::solve_toeplitz({1.0}, {1.0, 2.0}), cu::InvalidArgument);
}
