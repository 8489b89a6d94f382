// Unit tests for the radix-2 FFT.

#include "cts/util/fft.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "cts/util/error.hpp"
#include "cts/util/math.hpp"
#include "cts/util/rng.hpp"

namespace cu = cts::util;

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<std::complex<double>> data(8, 0.0);
  data[0] = 1.0;
  cu::fft(data);
  for (const auto& x : data) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  std::vector<std::complex<double>> data(n);
  const int tone = 5;
  for (std::size_t t = 0; t < n; ++t) {
    data[t] = std::cos(2.0 * cu::kPi * tone * static_cast<double>(t) /
                       static_cast<double>(n));
  }
  cu::fft(data);
  // Real cosine: energy splits between bins +5 and n-5.
  EXPECT_NEAR(std::abs(data[tone]), static_cast<double>(n) / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(data[n - tone]), static_cast<double>(n) / 2.0, 1e-9);
  for (std::size_t k = 0; k < n; ++k) {
    if (k != static_cast<std::size_t>(tone) && k != n - tone) {
      EXPECT_NEAR(std::abs(data[k]), 0.0, 1e-9) << "bin " << k;
    }
  }
}

TEST(Fft, RoundTripRestoresSignal) {
  cu::Xoshiro256pp rng(3);
  std::vector<std::complex<double>> data(256);
  std::vector<std::complex<double>> original(256);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = {rng.uniform01(), rng.uniform01()};
    original[i] = data[i];
  }
  cu::fft(data);
  // Inverse through the forward transform: x = conj(fft(conj(X))) / N.
  for (auto& x : data) x = std::conj(x);
  cu::fft(data);
  const double n = static_cast<double>(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::complex<double> x = std::conj(data[i]) / n;
    EXPECT_NEAR(x.real(), original[i].real(), 1e-12);
    EXPECT_NEAR(x.imag(), original[i].imag(), 1e-12);
  }
}

TEST(Fft, ParsevalHolds) {
  cu::Xoshiro256pp rng(11);
  const std::size_t n = 128;
  std::vector<std::complex<double>> data(n);
  double time_energy = 0.0;
  for (auto& x : data) {
    x = {2.0 * rng.uniform01() - 1.0, 0.0};
    time_energy += std::norm(x);
  }
  cu::fft(data);
  double freq_energy = 0.0;
  for (const auto& x : data) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, 1e-9);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> data(6, 0.0);
  EXPECT_THROW(cu::fft(data), cu::InvalidArgument);
}

TEST(NextPow2, Values) {
  EXPECT_EQ(cu::next_pow2(1), 1u);
  EXPECT_EQ(cu::next_pow2(2), 2u);
  EXPECT_EQ(cu::next_pow2(3), 4u);
  EXPECT_EQ(cu::next_pow2(1000), 1024u);
}
