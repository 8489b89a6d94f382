// Unit tests for the runtime-dispatched SIMD kernels: every kernel must
// produce byte-identical results on every kind the host supports (the
// bit-identity contract documented in cts/core/simd.hpp).

#include "cts/core/simd.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cts/fit/model_zoo.hpp"
#include "cts/proc/on_off.hpp"
#include "cts/util/error.hpp"
#include "cts/util/rng.hpp"

namespace cs = cts::core::simd;
namespace cu = cts::util;

namespace {

/// Byte equality; memcmp on an empty vector's data() would pass null.
bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Byte equality of two doubles: tells -0.0 from +0.0, and NaN payloads.
bool same_bytes(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Restores auto dispatch when a test that pins a kind exits.
struct ForceGuard {
  ~ForceGuard() { cs::clear_force(); }
};

std::vector<cs::Kind> supported_kinds() {
  std::vector<cs::Kind> kinds{cs::Kind::kScalar};
  if (cs::best_supported() >= cs::Kind::kSse2) kinds.push_back(cs::Kind::kSse2);
  if (cs::best_supported() >= cs::Kind::kAvx2) kinds.push_back(cs::Kind::kAvx2);
  return kinds;
}

// The library's scalar kernels as they stood when each tier had its own
// hand-written copy, verbatim: independent references, so a summation
// order changed on every tier alike still fails.
using cs::ScanPoint;

inline double scan_objective(double b, double drift, const double* inv2v,
                             std::size_t m) {
  const double md = static_cast<double>(m);
  const double numerator = b + md * drift;
  return numerator * numerator * inv2v[m];
}

ScanPoint scan_min_scalar(double b, double drift, const double* inv2v,
                          std::size_t m_lo, std::size_t m_hi) {
  ScanPoint best;
  best.m = m_lo;
  best.value = scan_objective(b, drift, inv2v, m_lo);
  for (std::size_t m = m_lo + 1; m <= m_hi; ++m) {
    const double value = scan_objective(b, drift, inv2v, m);
    if (value < best.value) {
      best.value = value;
      best.m = m;
    }
  }
  return best;
}

double dot_reversed_scalar(const double* a, const double* b_last,
                           std::size_t n) {
  // Fixed 4-lane blocked order: lane l sums elements j % 4 == l, lanes
  // combine as (0+2)+(1+3), tail appended sequentially.  The vector
  // versions realise exactly this association.
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  const std::size_t n4 = n - n % 4;
  for (std::size_t j = 0; j < n4; j += 4) {
    acc0 += a[j] * b_last[-static_cast<std::ptrdiff_t>(j)];
    acc1 += a[j + 1] * b_last[-static_cast<std::ptrdiff_t>(j + 1)];
    acc2 += a[j + 2] * b_last[-static_cast<std::ptrdiff_t>(j + 2)];
    acc3 += a[j + 3] * b_last[-static_cast<std::ptrdiff_t>(j + 3)];
  }
  double sum = (acc0 + acc2) + (acc1 + acc3);
  for (std::size_t j = n4; j < n; ++j) {
    sum += a[j] * b_last[-static_cast<std::ptrdiff_t>(j)];
  }
  return sum;
}

void axpy_reversed_scalar(const double* a, const double* a_last, double r,
                          double* out, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = a[j] - r * a_last[-static_cast<std::ptrdiff_t>(j)];
  }
}

void scale_pairs_scalar(const double* s, const double* z, double* out,
                        std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    out[2 * j] = s[j] * z[2 * j];
    out[2 * j + 1] = s[j] * z[2 * j + 1];
  }
}

void scaled_real_stride2_scalar(const double* in, double norm, double* out,
                                std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = in[2 * j] * norm;
  }
}

/// Sequential reference scan: running minimum under strict <, over the
/// reciprocal table 1/(2 V(m)) the production scan consumes.
cs::ScanPoint reference_scan(double b, double drift,
                             const std::vector<double>& inv2v, std::size_t lo,
                             std::size_t hi) {
  cs::ScanPoint best;
  best.m = 0;
  best.value = 0.0;
  for (std::size_t m = lo; m <= hi; ++m) {
    const double md = static_cast<double>(m);
    const double num = b + md * drift;
    const double value = num * num * inv2v[m];
    if (best.m == 0 || value < best.value) {
      best.value = value;
      best.m = m;
    }
  }
  return best;
}

std::vector<double> random_inv2v_table(std::size_t size, std::uint64_t seed) {
  cu::Xoshiro256pp rng(seed);
  std::vector<double> inv2v(size);
  inv2v[0] = 0.0;  // unused
  double v = 1.0;
  for (std::size_t m = 1; m < size; ++m) {
    v += 0.5 + rng.uniform01() * 2.0;  // V increasing, positive
    inv2v[m] = 1.0 / (2.0 * v);
  }
  return inv2v;
}

}  // namespace

TEST(SimdDispatch, NamesRoundTrip) {
  for (const cs::Kind kind : supported_kinds()) {
    EXPECT_EQ(cs::parse_kind(cs::kind_name(kind)), kind);
  }
}

TEST(SimdDispatch, ParseRejectsUnknownKind) {
  EXPECT_THROW(cs::parse_kind(""), cu::InvalidArgument);
  EXPECT_THROW(cs::parse_kind("avx512"), cu::InvalidArgument);
  EXPECT_THROW(cs::parse_kind("Scalar"), cu::InvalidArgument);
}

TEST(SimdDispatch, ForceSelectsAndClears) {
  ForceGuard guard;
  for (const cs::Kind kind : supported_kinds()) {
    cs::force(kind);
    EXPECT_EQ(cs::active(), kind);
  }
  cs::clear_force();
}

TEST(SimdScanMin, MatchesSequentialReferenceOnEveryKind) {
  ForceGuard guard;
  const std::vector<double> inv2v = random_inv2v_table(20000, 1234);
  const double b = 400.0;
  const double drift = 12.0;
  // Windows of 1 to 33 lags cover an empty, partial and whole pass of the
  // four accumulators on every width (4, 8 and 16 lags), the whole-vector
  // remainder and the lane-by-lane tail; the start index takes every
  // residue mod 16.
  std::vector<std::size_t> lengths;
  for (std::size_t len = 1; len <= 33; ++len) lengths.push_back(len);
  lengths.insert(lengths.end(), {100, 4097, 18000});
  std::vector<std::size_t> starts;
  for (std::size_t lo = 1; lo <= 17; ++lo) starts.push_back(lo);
  starts.insert(starts.end(), {64, 1001});
  for (const std::size_t lo : starts) {
    for (const std::size_t len : lengths) {
      const std::size_t hi = std::min(lo + len - 1, inv2v.size() - 1);
      const cs::ScanPoint ref = reference_scan(b, drift, inv2v, lo, hi);
      for (const cs::Kind kind : supported_kinds()) {
        cs::force(kind);
        const cs::ScanPoint got =
            cs::scan_min(b, drift, inv2v.data(), lo, hi);
        EXPECT_EQ(got.m, ref.m) << cs::kind_name(kind) << " lo=" << lo
                                << " hi=" << hi;
        EXPECT_TRUE(same_bytes(got.value, ref.value))
            << cs::kind_name(kind) << " lo=" << lo << " hi=" << hi;
      }
    }
  }
}

TEST(SimdScanMin, TiesResolveToLowestM) {
  ForceGuard guard;
  // drift = 0 and a constant reciprocal table make every objective value
  // equal, so the argmin must come back as the window start on every kind.
  // So must it when (b + m drift)^2 overflows to +inf at every m: no lane
  // ever improves on its +inf sentinel.
  std::vector<double> inv2v(4096, 0.25);
  inv2v[0] = 0.0;
  const double inf = std::numeric_limits<double>::infinity();
  for (const cs::Kind kind : supported_kinds()) {
    cs::force(kind);
    for (const std::size_t lo : {1u, 5u, 9u}) {
      for (std::size_t len = 1; len <= 40; ++len) {
        const std::size_t hi = len == 40 ? 4000 : lo + len - 1;
        const cs::ScanPoint got = cs::scan_min(3.0, 0.0, inv2v.data(), lo, hi);
        EXPECT_EQ(got.m, lo) << cs::kind_name(kind) << " hi=" << hi;
        const cs::ScanPoint all_inf =
            cs::scan_min(1e200, 1e200, inv2v.data(), lo, hi);
        EXPECT_EQ(all_inf.m, lo) << cs::kind_name(kind) << " hi=" << hi;
        EXPECT_EQ(all_inf.value, inf) << cs::kind_name(kind) << " hi=" << hi;
      }
    }
  }
}

TEST(SimdScanMin, RandomTablesAgreeAcrossKinds) {
  ForceGuard guard;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::vector<double> inv2v = random_inv2v_table(5000, seed);
    cu::Xoshiro256pp rng(seed ^ 0xABCDEF);
    const double b = rng.uniform01() * 1000.0;
    const double drift = 1.0 + rng.uniform01() * 40.0;
    const cs::ScanPoint ref = scan_min_scalar(b, drift, inv2v.data(), 1, 4999);
    for (const cs::Kind kind : supported_kinds()) {
      cs::force(kind);
      const cs::ScanPoint got = cs::scan_min(b, drift, inv2v.data(), 1, 4999);
      EXPECT_EQ(got.m, ref.m) << cs::kind_name(kind) << " seed=" << seed;
      EXPECT_TRUE(same_bytes(got.value, ref.value))
          << cs::kind_name(kind) << " seed=" << seed;
    }
  }
}

TEST(SimdDotReversed, BitIdenticalAcrossKindsAndCloseToNaive) {
  ForceGuard guard;
  // Every length to 33 and each side of larger multiples of four: the
  // blocked sum, its (0 + 2) + (1 + 3) combine and the in-order tail.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 33; ++n) lengths.push_back(n);
  for (const std::size_t m4 : {64u, 256u, 1024u, 4096u}) {
    lengths.insert(lengths.end(), {m4 - 1, m4, m4 + 1, m4 + 2, m4 + 3});
  }
  cu::Xoshiro256pp rng(99);
  for (const std::size_t n : lengths) {
    std::vector<double> a(n), rev(n);
    for (auto& x : a) x = rng.uniform01() * 2.0 - 1.0;
    for (auto& x : rev) x = rng.uniform01() * 2.0 - 1.0;
    const double* rev_last = rev.empty() ? nullptr : &rev[n - 1];
    const double ref = dot_reversed_scalar(a.data(), rev_last, n);
    double naive = 0.0;
    for (std::size_t j = 0; j < n; ++j) naive += a[j] * rev[n - 1 - j];
    EXPECT_NEAR(ref, naive, 1e-12 * (1.0 + std::fabs(naive))) << "n=" << n;
    for (const cs::Kind kind : supported_kinds()) {
      cs::force(kind);
      const double got = cs::dot_reversed(a.data(), rev_last, n);
      EXPECT_TRUE(same_bytes(got, ref)) << cs::kind_name(kind) << " n=" << n;
    }
  }
}

TEST(SimdAxpyReversed, BitIdenticalAcrossKinds) {
  ForceGuard guard;
  cu::Xoshiro256pp rng(7);
  for (const std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 8u, 13u, 64u, 255u}) {
    std::vector<double> a(n);
    for (auto& x : a) x = rng.uniform01() * 2.0 - 1.0;
    const double r = rng.uniform01();
    std::vector<double> ref(n, 0.0);
    axpy_reversed_scalar(a.data(), n > 0 ? &a[n - 1] : nullptr, r,
                         ref.data(), n);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(ref[j], a[j] - r * a[n - 1 - j]);
    }
    for (const cs::Kind kind : supported_kinds()) {
      cs::force(kind);
      std::vector<double> out(n, 0.0);
      cs::axpy_reversed(a.data(), n > 0 ? &a[n - 1] : nullptr, r, out.data(),
                        n);
      EXPECT_TRUE(same_bytes(out, ref)) << cs::kind_name(kind) << " n=" << n;
    }
  }
}

TEST(SimdScalePairs, BitIdenticalAcrossKinds) {
  ForceGuard guard;
  cu::Xoshiro256pp rng(21);
  for (const std::size_t n : {0u, 1u, 2u, 3u, 4u, 7u, 8u, 31u, 128u, 511u}) {
    std::vector<double> s(n), z(2 * n);
    for (auto& x : s) x = rng.uniform01() * 3.0;
    for (auto& x : z) x = rng.uniform01() * 2.0 - 1.0;
    std::vector<double> ref(2 * n, 0.0);
    scale_pairs_scalar(s.data(), z.data(), ref.data(), n);
    for (const cs::Kind kind : supported_kinds()) {
      cs::force(kind);
      std::vector<double> out(2 * n, 0.0);
      cs::scale_pairs(s.data(), z.data(), out.data(), n);
      EXPECT_TRUE(same_bytes(out, ref)) << cs::kind_name(kind) << " n=" << n;
    }
    // In-place use (out aliases z), as the Davies-Harte refill does.
    for (const cs::Kind kind : supported_kinds()) {
      cs::force(kind);
      std::vector<double> inplace = z;
      cs::scale_pairs(s.data(), inplace.data(), inplace.data(), n);
      EXPECT_TRUE(same_bytes(inplace, ref))
          << cs::kind_name(kind) << " n=" << n;
    }
  }
}

TEST(SimdScaledRealStride2, BitIdenticalAcrossKinds) {
  ForceGuard guard;
  cu::Xoshiro256pp rng(42);
  for (const std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 8u, 9u, 100u, 513u}) {
    std::vector<double> in(2 * n);
    for (auto& x : in) x = rng.uniform01() * 2.0 - 1.0;
    const double norm = 1.0 / std::sqrt(1024.0);
    std::vector<double> ref(n, 0.0);
    scaled_real_stride2_scalar(in.data(), norm, ref.data(), n);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(ref[j], in[2 * j] * norm);
    }
    for (const cs::Kind kind : supported_kinds()) {
      cs::force(kind);
      std::vector<double> out(n, 0.0);
      cs::scaled_real_stride2(in.data(), norm, out.data(), n);
      EXPECT_TRUE(same_bytes(out, ref)) << cs::kind_name(kind) << " n=" << n;
    }
  }
}

namespace {

/// The ON/OFF laws behind the zoo's FBNDP sources: V^v (alpha = 0.9, with
/// V^1.5's crossover A ~ 1.5e-5 s), Z^a (alpha = 0.8) and L (alpha ~ 0.72).
std::vector<cts::proc::OnOffParams> sojourn_laws() {
  return {{0.9, 1.5e-5}, {0.8, 1.8e-3}, {0.72, 0.01}};
}

/// OnOffParams::sample_sojourn's formula on a given uniform.
double reference_sojourn(const cts::proc::OnOffParams& p, double u) {
  const double g = p.gamma();
  if (u < 1.0 - std::exp(-g)) return -(p.A / g) * std::log1p(-u);
  return p.A * std::pow(std::exp(-g) / (1.0 - u), 1.0 / g);
}

void expect_close(double got, double ref, const std::string& what) {
  EXPECT_LE(std::fabs(got - ref), 1e-13 * std::fabs(ref)) << what;
  EXPECT_FALSE(std::signbit(got)) << what;
}

}  // namespace

TEST(SimdFractalSojourns, BitIdenticalAcrossKindsAndBatchSizes) {
  ForceGuard guard;
  cu::Xoshiro256pp rng(1996);
  for (const cts::proc::OnOffParams& law : sojourn_laws()) {
    const cs::SojournConsts consts = law.sojourn_consts();
    for (const std::size_t n : {0u, 1u, 3u, 4u, 5u, 16u, 257u}) {
      std::vector<double> u(n);
      for (auto& x : u) x = rng.uniform01();
      std::vector<double> ref(n, -1.0);
      cs::fractal_sojourns(cs::Kind::kScalar, u.data(), ref.data(), n,
                           consts);
      for (const cs::Kind kind : supported_kinds()) {
        std::vector<double> out(n, -1.0);
        cs::fractal_sojourns(kind, u.data(), out.data(), n, consts);
        EXPECT_TRUE(same_bytes(out, ref)) << cs::kind_name(kind) << " n=" << n;
        // The dispatching overload follows force().
        cs::force(kind);
        std::vector<double> forced(n, -1.0);
        cs::fractal_sojourns(cs::active(), u.data(), forced.data(), n,
                             consts);
        EXPECT_TRUE(same_bytes(forced, ref))
            << cs::kind_name(kind) << " n=" << n;
      }
    }
  }
}

TEST(SimdFractalSojourns, DrawIConsumesUniformIWithinTolerance) {
  // The reference sampler draws one uniform per sojourn, so a copy of the
  // stream replays exactly the uniforms the kernel was handed.
  for (const cts::proc::OnOffParams& law : sojourn_laws()) {
    cu::Xoshiro256pp rng(42);
    cu::Xoshiro256pp replay = rng;
    const std::size_t n = 20000;
    std::vector<double> u(n), out(n);
    for (auto& x : u) x = rng.uniform01();
    cs::fractal_sojourns(cs::active(), u.data(), out.data(), n,
                         law.sojourn_consts());
    for (std::size_t i = 0; i < n; ++i) {
      expect_close(out[i], law.sample_sojourn(replay),
                   "alpha=" + std::to_string(law.alpha) + " draw " +
                       std::to_string(i));
    }
  }
}

TEST(SimdFractalSojourns, EdgeDrawsOnEveryKind) {
  for (const cts::proc::OnOffParams& law : sojourn_laws()) {
    const cs::SojournConsts consts = law.sojourn_consts();
    const double mass = consts.body_mass;
    const std::vector<double> u = {0.0,
                                   0x1p-53,
                                   std::nextafter(mass, 0.0),
                                   mass,
                                   std::nextafter(mass, 1.0),
                                   0.5,
                                   1.0 - 0x1p-53};
    std::vector<double> ref(u.size());
    cs::fractal_sojourns(cs::Kind::kScalar, u.data(), ref.data(), u.size(),
                         consts);
    EXPECT_EQ(ref[0], 0.0);
    for (std::size_t i = 0; i < u.size(); ++i) {
      expect_close(ref[i], reference_sojourn(law, u[i]),
                   "alpha=" + std::to_string(law.alpha) + " u=" +
                       std::to_string(u[i]));
    }
    // Continuity at the body/tail crossover: both sides land near A.
    EXPECT_NEAR(ref[2], law.A, 1e-12 * law.A);
    EXPECT_NEAR(ref[4], law.A, 1e-12 * law.A);
    for (const cs::Kind kind : supported_kinds()) {
      std::vector<double> out(u.size());
      cs::fractal_sojourns(kind, u.data(), out.data(), u.size(), consts);
      EXPECT_TRUE(same_bytes(out, ref))
          << cs::kind_name(kind) << " alpha=" << law.alpha;
    }
  }
}

TEST(SimdFractalSojourns, PackedTailPatternsOnEveryKindAndLength) {
  // Every tier exponentiates only the tail draws, packed densely and
  // scattered back, in blocks of 64 draws.  Every body/tail pattern and
  // every length up to two blocks plus a partial vector (which covers
  // twice FractalOnOff's 32-draw ring plus three) must still match the
  // scalar tier byte for byte and the libm reference within 1e-13.
  for (const cts::proc::OnOffParams& law : sojourn_laws()) {
    const cs::SojournConsts consts = law.sojourn_consts();
    const double mass = consts.body_mass;
    const double below = std::nextafter(mass, 0.0);
    const double above = std::nextafter(mass, 1.0);
    // Rejection keeps the draws 53-bit uniforms, so 1 - u stays exact.
    cu::Xoshiro256pp rng(7);
    const auto body = [&] {
      double x = rng.uniform01();
      while (!(x < mass)) x = rng.uniform01();
      return x;
    };
    const auto tail = [&] {
      double x = rng.uniform01();
      while (x < mass) x = rng.uniform01();
      return x;
    };
    using Draw = std::function<double(std::size_t)>;
    const std::vector<std::pair<std::string, Draw>> patterns = {
        {"all-body", [&](std::size_t) { return body(); }},
        {"all-tail", [&](std::size_t) { return tail(); }},
        {"alternating",
         [&](std::size_t i) { return i % 2 == 0 ? body() : tail(); }},
        {"at-mass",
         [&](std::size_t i) {
           const double edge[3] = {below, mass, above};
           return edge[i % 3];
         }},
    };
    for (const auto& [name, draw] : patterns) {
      for (std::size_t n = 0; n <= 2 * 64 + 3; ++n) {
        std::vector<double> u(n);
        for (std::size_t i = 0; i < n; ++i) u[i] = draw(i);
        std::vector<double> ref(n, -1.0);
        cs::fractal_sojourns(cs::Kind::kScalar, u.data(), ref.data(), n,
                             consts);
        for (std::size_t i = 0; i < n; ++i) {
          expect_close(ref[i], reference_sojourn(law, u[i]),
                       name + " n=" + std::to_string(n) + " i=" +
                           std::to_string(i));
        }
        for (const cs::Kind kind : supported_kinds()) {
          std::vector<double> out(n, -1.0);
          cs::fractal_sojourns(kind, u.data(), out.data(), n, consts);
          EXPECT_TRUE(same_bytes(out, ref))
              << cs::kind_name(kind) << " " << name << " n=" << n
              << " alpha=" << law.alpha;
        }
      }
    }
  }
}

TEST(SimdFractalSojourns, FbndpFramesIdenticalOnScalarAndBestTier) {
  // Each FractalOnOff resolves its tier at construction, so the sources
  // are built while the tier is forced.
  ForceGuard guard;
  for (const char* id : {"vv:1.5", "l"}) {
    const cts::fit::ModelSpec spec = cts::fit::model_from_id(id);
    std::vector<double> frames[2];
    const cs::Kind kinds[2] = {cs::Kind::kScalar, cs::best_supported()};
    for (int k = 0; k < 2; ++k) {
      cs::force(kinds[k]);
      auto source = spec.make_source(20260817);
      for (int i = 0; i < 200; ++i) frames[k].push_back(source->next_frame());
    }
    EXPECT_TRUE(same_bytes(frames[0], frames[1]))
        << id << " on " << cs::kind_name(kinds[1]);
  }
}

namespace {

/// Finite-buffer fluid queues in the two layouts under comparison: the
/// kernel's structure of arrays and the per-buffer tallies of the reference.
struct FluidLanes {
  std::vector<double> buffer;
  std::vector<double> workload;
  std::vector<double> lost;
  std::vector<double> comp;
  std::vector<std::uint64_t> loss_frames;

  explicit FluidLanes(std::vector<double> buffers, double w0 = 0.0)
      : buffer(std::move(buffers)),
        workload(buffer.size(), w0),
        lost(buffer.size(), 0.0),
        comp(buffer.size(), 0.0),
        loss_frames(buffer.size(), 0) {}

  cs::FifoLanes view() {
    return {workload.data(), buffer.data(), lost.data(),
            comp.data(),     loss_frames.data(), buffer.size()};
  }
};

struct RefTally {
  double lost_cells = 0.0;
  std::uint64_t loss_frames = 0;
};

/// FluidMux::run's per-buffer loop as it stood before the SIMD kernel,
/// verbatim apart from the names of its containers.
void reference_frame(const std::vector<double>& buffer_sizes_cells,
                     std::vector<double>& w_finite,
                     std::vector<double>& loss_comp,
                     std::vector<RefTally>& clr, double net, bool measuring) {
  for (std::size_t i = 0; i < w_finite.size(); ++i) {
    const double b = buffer_sizes_cells[i];
    double w = w_finite[i] + net;
    if (w > b) {
      if (measuring) {
        const double loss = w - b;
        auto& tally = clr[i];
        const double y = loss - loss_comp[i];
        const double t = tally.lost_cells + y;
        loss_comp[i] = (t - tally.lost_cells) - y;
        tally.lost_cells = t;
        ++tally.loss_frames;
      }
      w = b;
    } else if (w < 0.0) {
      w = 0.0;
    }
    w_finite[i] = w;
  }
}

/// Runs `nets` through the reference loop, measuring from frame `warmup`.
FluidLanes reference_run(const std::vector<double>& buffers,
                         const std::vector<double>& nets, std::size_t warmup,
                         double w0 = 0.0) {
  FluidLanes out(buffers, w0);
  std::vector<RefTally> clr(buffers.size());
  for (std::size_t n = 0; n < nets.size(); ++n) {
    reference_frame(out.buffer, out.workload, out.comp, clr, nets[n],
                    n >= warmup);
  }
  for (std::size_t i = 0; i < clr.size(); ++i) {
    out.lost[i] = clr[i].lost_cells;
    out.loss_frames[i] = clr[i].loss_frames;
  }
  return out;
}

/// The same run through fifo_step on the active (forced) kind.
FluidLanes kernel_run(const std::vector<double>& buffers,
                      const std::vector<double>& nets, std::size_t warmup,
                      double w0 = 0.0) {
  FluidLanes out(buffers, w0);
  const cs::FifoLanes lanes = out.view();
  const cs::Kind kind = cs::active();
  for (std::size_t n = 0; n < nets.size(); ++n) {
    cs::fifo_step(kind, lanes, nets[n], n >= warmup);
  }
  return out;
}

void expect_same_lanes(const FluidLanes& got, const FluidLanes& want,
                       const std::string& what) {
  EXPECT_TRUE(same_bytes(got.workload, want.workload)) << what << " workload";
  EXPECT_TRUE(same_bytes(got.lost, want.lost)) << what << " lost";
  EXPECT_TRUE(same_bytes(got.comp, want.comp)) << what << " comp";
  EXPECT_EQ(got.loss_frames, want.loss_frames) << what << " loss_frames";
}

/// K buffers cycling through a zero, an infinite and lossy finite sizes.
std::vector<double> buffer_mix(std::size_t k) {
  const double sizes[] = {0.0, 100.0, HUGE_VAL, 37.5, 250.0, 1.0, 1000.0};
  std::vector<double> buffers(k);
  for (std::size_t i = 0; i < k; ++i) {
    buffers[i] = sizes[i % std::size(sizes)] + static_cast<double>(i / 7);
  }
  return buffers;
}

const std::size_t kLaneCounts[] = {0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65};

}  // namespace

TEST(SimdFluidLanes, ExactHitsOnEveryKindAndLaneCount) {
  // Whole-cell nets from a small set, so workloads land exactly on 0 and on
  // their buffers, with net == 0 frames in between; measuring starts
  // mid-run.
  ForceGuard guard;
  cu::Xoshiro256pp rng(538);
  const double steps[] = {-100.0, -37.5, -1.0, 0.0, 0.0, 1.0, 37.5, 100.0,
                          250.0};
  std::vector<double> nets(3000);
  for (double& net : nets) {
    net = steps[static_cast<std::size_t>(rng.uniform01() * std::size(steps))];
  }
  for (const std::size_t k : kLaneCounts) {
    const std::vector<double> buffers = buffer_mix(k);
    const FluidLanes want = reference_run(buffers, nets, 700);
    for (const cs::Kind kind : supported_kinds()) {
      cs::force(kind);
      expect_same_lanes(kernel_run(buffers, nets, 700), want,
                        std::string(cs::kind_name(kind)) +
                            " K=" + std::to_string(k));
    }
  }
  // The inputs do reach both edges and the lossy and lossless cases.
  const FluidLanes probe = reference_run(buffer_mix(7), nets, 700);
  EXPECT_GT(probe.loss_frames[0], 0u);   // B = 0
  EXPECT_EQ(probe.loss_frames[2], 0u);   // B = +inf
  EXPECT_GT(probe.loss_frames[6], 0u);   // B = 1000
}

TEST(SimdFluidLanes, LongRunsKeepKahanCompensationBitIdentical) {
  // Fractional nets over long runs: the Kahan compensation carries real
  // low-order bits, and every kind must carry the same ones.
  ForceGuard guard;
  cu::Xoshiro256pp rng(1996);
  std::vector<double> nets(200000);
  double x = 0.0;
  for (double& net : nets) {
    x = 0.975 * x + 0.3 * (rng.uniform01() - 0.5);
    net = 700.0 * x - 40.0 + rng.uniform01() / 3.0;
  }
  std::vector<double> buffers;
  for (std::size_t i = 0; i < 65; ++i) {
    buffers.push_back(25.0 * std::pow(1.1, static_cast<double>(i)));
  }
  const FluidLanes want = reference_run(buffers, nets, 5000);
  std::size_t compensated = 0;
  for (double c : want.comp) compensated += c != 0.0 ? 1 : 0;
  EXPECT_GT(compensated, buffers.size() / 2);
  for (const cs::Kind kind : supported_kinds()) {
    cs::force(kind);
    expect_same_lanes(kernel_run(buffers, nets, 5000), want,
                      cs::kind_name(kind));
  }
}

TEST(SimdFluidLanes, WarmupFramesLeaveTalliesUntouched) {
  ForceGuard guard;
  const std::vector<double> nets(50, 10.0);  // overflows B = 0 every frame
  for (const cs::Kind kind : supported_kinds()) {
    cs::force(kind);
    const FluidLanes all_warmup = kernel_run(buffer_mix(9), nets, nets.size());
    for (std::size_t i = 0; i < 9; ++i) {
      EXPECT_EQ(all_warmup.lost[i], 0.0) << cs::kind_name(kind);
      EXPECT_EQ(all_warmup.loss_frames[i], 0u) << cs::kind_name(kind);
    }
    const FluidLanes last_ten = kernel_run(buffer_mix(9), nets, 40);
    EXPECT_EQ(last_ten.lost[0], 100.0) << cs::kind_name(kind);
    EXPECT_EQ(last_ten.loss_frames[0], 10u) << cs::kind_name(kind);
  }
}

TEST(SimdFluidLanes, NegativeZeroWorkloadKeepsItsSign) {
  // w = -0.0 is neither above B nor below 0, so it is kept bit for bit;
  // a negative w clamps to +0.
  ForceGuard guard;
  const std::vector<double> buffers = buffer_mix(9);
  const std::vector<double> kept(3, -0.0);
  const std::vector<double> clamped = {-0.0, -5.0};
  for (const cs::Kind kind : supported_kinds()) {
    cs::force(kind);
    const FluidLanes a = kernel_run(buffers, kept, 0, -0.0);
    expect_same_lanes(a, reference_run(buffers, kept, 0, -0.0),
                      cs::kind_name(kind));
    for (double w : a.workload) EXPECT_TRUE(std::signbit(w)) << w;
    const FluidLanes b = kernel_run(buffers, clamped, 0, -0.0);
    expect_same_lanes(b, reference_run(buffers, clamped, 0, -0.0),
                      cs::kind_name(kind));
    for (double w : b.workload) {
      EXPECT_EQ(w, 0.0);
      EXPECT_FALSE(std::signbit(w));
    }
  }
}
