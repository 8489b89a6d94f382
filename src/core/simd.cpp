// Kernel implementations for cts/core/simd.hpp.
//
// All three variants of each kernel live in this one translation unit:
// the scalar reference (which also defines the semantics), and SSE2/AVX2
// versions compiled via GCC/Clang `target` function attributes so the
// rest of the library keeps the portable baseline ISA.  FMA is never
// enabled for these functions, so mul/add cannot be contracted and each
// element rounds identically on every path.

#include "cts/core/simd.hpp"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "cts/util/error.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define CTS_SIMD_X86 1
#include <immintrin.h>
#else
#define CTS_SIMD_X86 0
#endif

namespace cts::core::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels.  These define the bit-level semantics the
// vector versions must reproduce exactly.
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// Fractal ON/OFF sojourn kernel.  The log and exp lane bodies are generic
// over the lane type: `double`/`uint64_t` for the scalar tier, GCC
// vector-extension types for SSE2 and AVX2.  They are force-inlined into
// each tier's target-attributed loop, so the same source compiles to
// scalar, 2-wide and 4-wide code whose every operation is an element-wise
// IEEE-754 add/sub/mul/div or an integer bit operation -- identical results
// on every tier by construction, however the tiers group the draws into
// vectors.  Every draw takes the log; only tail draws take the exp.  The
// helpers transform their lanes in place and reinterpret bits with
// __builtin_bit_cast: a 32-byte vector passed or returned by value (as
// std::bit_cast would) trips GCC's -Wpsabi note on pre-AVX conventions.
// ---------------------------------------------------------------------------

typedef double V2d __attribute__((vector_size(16)));
typedef std::uint64_t V2u __attribute__((vector_size(16)));
typedef double V4d __attribute__((vector_size(32)));
typedef std::uint64_t V4u __attribute__((vector_size(32)));

// The log/exp algorithms and their coefficients follow fdlibm's e_log.c
// and e_exp.c, which carry this notice:
//   Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//   Developed at SunSoft, a Sun Microsystems, Inc. business.
//   Permission to use, copy, modify, and distribute this software is
//   freely granted, provided that this notice is preserved.
//
// log: reduction to [sqrt(2)/2, sqrt(2)) and the Remez polynomial in
// s = f / (2 + f).  ln2 split so k * kLn2Hi is exact.
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kLg1 = 6.666666666666735130e-01;
constexpr double kLg2 = 3.999999999940941908e-01;
constexpr double kLg3 = 2.857142874366239149e-01;
constexpr double kLg4 = 2.222219843214978396e-01;
constexpr double kLg5 = 1.818357216161805012e-01;
constexpr double kLg6 = 1.531383769920937332e-01;
constexpr double kLg7 = 1.479819860511658591e-01;
// exp: reduction by k ln2 and the rational form of exp(r).
constexpr double kInvLn2 = 1.44269504088896338700e+00;
constexpr double kP1 = 1.66666666666666019037e-01;
constexpr double kP2 = -2.77777777770155933842e-03;
constexpr double kP3 = 6.61375632143793436117e-05;
constexpr double kP4 = -1.65339022054652515390e-06;
constexpr double kP5 = 4.13813679705723846039e-08;
// 1.5 * 2^52: adding it rounds a double to an integer held in the low
// mantissa bits (round-to-nearest-even, valid for |x| < 2^51).
constexpr double kRoundShift = 0x1.8p52;
constexpr std::uint64_t kRoundShiftBits = 0x4338000000000000ULL;
constexpr std::uint64_t kTwo52Bits = 0x4330000000000000ULL;  // 2^52

/// x <- log(x) for x in [2^-53, 1] (positive and normal; the only inputs
/// the kernel produces).  fdlibm's algorithm, branch-free: the exponent k
/// and f = x / 2^k - 1 come from bit operations, k converts to double
/// exactly through the 2^52 trick, and the final sum is fdlibm's order.
template <class V, class U>
[[gnu::always_inline]] inline void log_lanes(V& x) {
  U bits = __builtin_bit_cast(U, x);
  // Shift the mantissa range so the exponent field rounds 1+f into
  // [sqrt(2)/2, sqrt(2)): 0x3fe6a09e is the high word of sqrt(2)/2.
  bits += std::uint64_t{0x3ff00000 - 0x3fe6a09e} << 32;
  const V biased =
      __builtin_bit_cast(V, (bits >> 52) | kTwo52Bits) - 0x1p52;  // exact
  const V dk = biased - 1023.0;
  bits = (bits & 0x000fffffffffffffULL) + (std::uint64_t{0x3fe6a09e} << 32);
  const V f = __builtin_bit_cast(V, bits) - 1.0;
  const V hfsq = 0.5 * f * f;
  const V s = f / (2.0 + f);
  const V z = s * s;
  const V w = z * z;
  const V t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const V t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const V r = t2 + t1;
  x = s * (hfsq + r) + dk * kLn2Lo - hfsq + f + dk * kLn2Hi;
}

/// x <- exp(x) for |x| < 708, where 2^k stays normal (the kernel's
/// arguments lie in [-1, 37]).
/// fdlibm's algorithm with round-to-nearest k; 2^k is built directly in
/// the exponent field, so the final scaling is one exact multiply.
template <class V, class U>
[[gnu::always_inline]] inline void exp_lanes(V& x) {
  const V shifted = x * kInvLn2 + kRoundShift;
  const V k = shifted - kRoundShift;  // round(x / ln2), exact
  const V hi = x - k * kLn2Hi;        // exact: kLn2Hi has trailing zeros
  const V lo = k * kLn2Lo;
  const V r = hi - lo;
  const V t = r * r;
  const V c = r - t * (kP1 + t * (kP2 + t * (kP3 + t * (kP4 + t * kP5))));
  const V y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
  // k + 1023 sits in the low bits of `shifted`; move it to the exponent.
  const U scale =
      (__builtin_bit_cast(U, shifted) - kRoundShiftBits + 1023ULL) << 52;
  x = y * __builtin_bit_cast(V, scale);
}

/// x <- A exp((-gamma - x) / gamma): the tail sojourn of a draw whose
/// L = log(1 - u) is x.
template <class V, class U>
[[gnu::always_inline]] inline void tail_lanes(V& x, const SojournConsts& c) {
  x = (c.neg_g - x) * c.inv_g;
  exp_lanes<V, U>(x);
  x = c.a * x;
}

void fractal_sojourns_scalar(const double* u, double* out, std::size_t n,
                             const SojournConsts& c) {
  for (std::size_t i = 0; i < n; ++i) {
    double log_s = 1.0 - u[i];  // exact for 53-bit uniforms, so L = log S
    log_lanes<double, std::uint64_t>(log_s);
    if (u[i] < c.body_mass) {
      out[i] = (0.0 - log_s) * c.a_over_g;  // 0 - L keeps +0 at u = 0
    } else {
      tail_lanes<double, std::uint64_t>(log_s, c);
      out[i] = log_s;
    }
  }
}

/// One vector of draws: log_out <- L = log(1 - u), body_out <- -(A/gamma) L.
template <class V, class U>
[[gnu::always_inline]] inline void body_vector(const double* u,
                                               double* body_out,
                                               double* log_out,
                                               const SojournConsts& c) {
  V lanes;
  std::memcpy(&lanes, u, sizeof lanes);
  lanes = 1.0 - lanes;
  log_lanes<V, U>(lanes);
  std::memcpy(log_out, &lanes, sizeof lanes);
  lanes = (0.0 - lanes) * c.a_over_g;
  std::memcpy(body_out, &lanes, sizeof lanes);
}

/// Blocks of up to kBlock draws in three passes: log and the body sojourn on
/// every lane; the logs of the tail draws (about a third of them) packed
/// densely; exp over the packed logs, scattered back over the body values.
/// The last vector of the first and third pass is padded (u = 0, L = 0),
/// so every element goes through the same operations as on the scalar
/// tier.
template <class V, class U>
[[gnu::always_inline]] inline void fractal_sojourns_wide(
    const double* u, double* out, std::size_t n, const SojournConsts& c) {
  constexpr std::size_t kW = sizeof(V) / sizeof(double);
  constexpr std::size_t kBlock = 64;
  // Left uninitialised on the hot path: every slot read below is written
  // earlier in the same block.
  double logs[kBlock + kW];    // L per draw
  double tails[kBlock + kW];   // packed L of the tail draws, then sojourns
  std::uint8_t where[kBlock];  // block index of each packed draw
  for (std::size_t base = 0; base < n; base += kBlock) {
    const double* ub = u + base;
    double* ob = out + base;
    const std::size_t len = n - base < kBlock ? n - base : kBlock;
    std::size_t i = 0;
    for (; i + kW <= len; i += kW) {
      body_vector<V, U>(ub + i, ob + i, logs + i, c);
    }
    if (i < len) {
      double pad[kW] = {};
      std::memcpy(pad, ub + i, (len - i) * sizeof(double));
      body_vector<V, U>(pad, pad, logs + i, c);
      std::memcpy(ob + i, pad, (len - i) * sizeof(double));
    }
    std::size_t k = 0;
    for (std::size_t j = 0; j < len; ++j) {
      tails[k] = logs[j];
      where[k] = static_cast<std::uint8_t>(j);
      k += ub[j] < c.body_mass ? 0 : 1;
    }
    for (std::size_t j = k; j % kW != 0; ++j) tails[j] = 0.0;
    for (std::size_t j = 0; j < k; j += kW) {
      V lanes;
      std::memcpy(&lanes, tails + j, sizeof lanes);
      tail_lanes<V, U>(lanes, c);
      std::memcpy(tails + j, &lanes, sizeof lanes);
    }
    for (std::size_t j = 0; j < k; ++j) ob[where[j]] = tails[j];
  }
}

// ---------------------------------------------------------------------------
// Finite-buffer fluid queue kernel.  One generic lane body, like the sojourn
// kernel: `double`/`uint64_t` lanes on the scalar tier, vector-extension
// types on SSE2 and AVX2.  The clamp and the tally updates are compare masks
// and blends, so every lane runs the same add/sub sequence whatever its
// outcome and the tiers agree bit for bit.
// ---------------------------------------------------------------------------

/// Lanes [i, i + width of V) of one fifo_step frame.  On vector types
/// `x > y` is a lane mask and `mask ? a : b` a lane-wise blend of bit
/// patterns; on the scalar tier they are the plain compare and select.
template <class V, class U, bool kTally>
[[gnu::always_inline]] inline void fifo_lanes(const FifoLanes& l,
                                              std::size_t i, const V& net) {
  V w, b;
  std::memcpy(&w, l.workload + i, sizeof w);
  std::memcpy(&b, l.buffer + i, sizeof b);
  w = w + net;
  const auto over = w > b;
  if constexpr (kTally) {
    V lost, comp;
    U frames;
    std::memcpy(&lost, l.lost + i, sizeof lost);
    std::memcpy(&comp, l.comp + i, sizeof comp);
    std::memcpy(&frames, l.loss_frames + i, sizeof frames);
    const V y = (w - b) - comp;
    const V t = lost + y;
    comp = over ? (t - lost) - y : comp;
    lost = over ? t : lost;
    frames = over ? frames + 1 : frames;
    std::memcpy(l.lost + i, &lost, sizeof lost);
    std::memcpy(l.comp + i, &comp, sizeof comp);
    std::memcpy(l.loss_frames + i, &frames, sizeof frames);
  }
  // w > B takes B; w < 0 takes +0 (all-zero bits); the rest keep w's bits.
  w = over ? b : (w < 0.0 ? V{} : w);
  std::memcpy(l.workload + i, &w, sizeof w);
}

/// Whole vectors of lanes, then the remainder one lane at a time through
/// the same body.
template <class V, class U, bool kTally>
[[gnu::always_inline]] inline void fifo_step_lanes(const FifoLanes& lanes,
                                                   double net) {
  constexpr std::size_t kW = sizeof(V) / sizeof(double);
  // A local copy: the lane stores cannot alias it, so its pointers and
  // count stay in registers.
  const FifoLanes l = lanes;
  // x - (+0) is x for every x, -0.0 included (0 + x would give +0), so
  // this broadcasts net exactly.
  const V vnet = net - V{};
  std::size_t i = 0;
  for (; i + kW <= l.count; i += kW) fifo_lanes<V, U, kTally>(l, i, vnet);
  for (; i < l.count; ++i) {
    fifo_lanes<double, std::uint64_t, kTally>(l, i, net);
  }
}

template <class V, class U>
[[gnu::always_inline]] inline void fifo_step_tier(const FifoLanes& l,
                                                  double net, bool tally) {
  if (tally) {
    fifo_step_lanes<V, U, true>(l, net);
  } else {
    fifo_step_lanes<V, U, false>(l, net);
  }
}

void fifo_step_scalar(const FifoLanes& l, double net, bool tally) {
  fifo_step_tier<double, std::uint64_t>(l, net, tally);
}

#if CTS_SIMD_X86

// ---------------------------------------------------------------------------
// SSE2 kernels (2-wide doubles).
// ---------------------------------------------------------------------------

__attribute__((target("sse2"))) ScanPoint scan_min_sse2(
    double b, double drift, const double* inv2v, std::size_t m_lo,
    std::size_t m_hi) {
  const std::size_t count = m_hi - m_lo + 1;
  if (count < 4) return scan_min_scalar(b, drift, inv2v, m_lo, m_hi);
  // Seed with the range's first element: on degenerate inputs where every
  // objective value is +inf, the vector lanes never improve on their
  // sentinels and the seed keeps the scalar kernel's answer (m_lo).
  ScanPoint best;
  best.m = m_lo;
  best.value = scan_objective(b, drift, inv2v, m_lo);
  const __m128d vb = _mm_set1_pd(b);
  const __m128d vdrift = _mm_set1_pd(drift);
  const __m128d inf = _mm_set1_pd(std::numeric_limits<double>::infinity());
  // Two independent running-min accumulators (4 elements per iteration):
  // a single accumulator's compare-and-select update is a loop-carried
  // dependency chain that caps throughput far below the ALU width.  Argmin
  // under strict < with lowest-m tie-breaking is evaluation-order
  // independent, so the partition cannot change the result.  Sentinel
  // lanes carry m = +inf and lose every tie in the final combine.
  __m128d bv0 = inf, bv1 = inf;
  __m128d bm0 = inf, bm1 = inf;
  const double mlo_d = static_cast<double>(m_lo);
  __m128d m0 = _mm_setr_pd(mlo_d, mlo_d + 1.0);
  const __m128d two = _mm_set1_pd(2.0);
  const __m128d four = _mm_set1_pd(4.0);
  __m128d m1 = _mm_add_pd(m0, two);
  std::size_t m = m_lo;
  for (; m + 3 <= m_hi; m += 4) {
    const __m128d i0 = _mm_loadu_pd(inv2v + m);
    const __m128d i1 = _mm_loadu_pd(inv2v + m + 2);
    const __m128d n0 = _mm_add_pd(vb, _mm_mul_pd(m0, vdrift));
    const __m128d n1 = _mm_add_pd(vb, _mm_mul_pd(m1, vdrift));
    const __m128d v0 = _mm_mul_pd(_mm_mul_pd(n0, n0), i0);
    const __m128d v1 = _mm_mul_pd(_mm_mul_pd(n1, n1), i1);
    // Strict < keeps the first (lowest-m) occurrence per lane.
    const __m128d lt0 = _mm_cmplt_pd(v0, bv0);
    const __m128d lt1 = _mm_cmplt_pd(v1, bv1);
    bv0 = _mm_or_pd(_mm_and_pd(lt0, v0), _mm_andnot_pd(lt0, bv0));
    bm0 = _mm_or_pd(_mm_and_pd(lt0, m0), _mm_andnot_pd(lt0, bm0));
    bv1 = _mm_or_pd(_mm_and_pd(lt1, v1), _mm_andnot_pd(lt1, bv1));
    bm1 = _mm_or_pd(_mm_and_pd(lt1, m1), _mm_andnot_pd(lt1, bm1));
    m0 = _mm_add_pd(m0, four);
    m1 = _mm_add_pd(m1, four);
  }
  for (; m + 1 <= m_hi; m += 2) {  // 2-wide cleanup on accumulator 0
    const __m128d i0 = _mm_loadu_pd(inv2v + m);
    const __m128d n0 = _mm_add_pd(vb, _mm_mul_pd(m0, vdrift));
    const __m128d v0 = _mm_mul_pd(_mm_mul_pd(n0, n0), i0);
    const __m128d lt0 = _mm_cmplt_pd(v0, bv0);
    bv0 = _mm_or_pd(_mm_and_pd(lt0, v0), _mm_andnot_pd(lt0, bv0));
    bm0 = _mm_or_pd(_mm_and_pd(lt0, m0), _mm_andnot_pd(lt0, bm0));
    m0 = _mm_add_pd(m0, two);
  }
  double lane_v[4], lane_m[4];
  _mm_storeu_pd(lane_v, bv0);
  _mm_storeu_pd(lane_v + 2, bv1);
  _mm_storeu_pd(lane_m, bm0);
  _mm_storeu_pd(lane_m + 2, bm1);
  for (int l = 0; l < 4; ++l) {
    if (lane_v[l] < best.value ||
        (lane_v[l] == best.value &&
         lane_m[l] < static_cast<double>(best.m))) {
      best.value = lane_v[l];
      best.m = static_cast<std::size_t>(lane_m[l]);
    }
  }
  for (; m <= m_hi; ++m) {  // tail (at most one element; highest m)
    const double value = scan_objective(b, drift, inv2v, m);
    if (value < best.value) {
      best.value = value;
      best.m = m;
    }
  }
  return best;
}

__attribute__((target("sse2"))) double dot_reversed_sse2(const double* a,
                                                         const double* b_last,
                                                         std::size_t n) {
  const std::size_t n4 = n - n % 4;
  __m128d acc01 = _mm_setzero_pd();  // lanes j%4 == 0, 1
  __m128d acc23 = _mm_setzero_pd();  // lanes j%4 == 2, 3
  for (std::size_t j = 0; j < n4; j += 4) {
    const __m128d a01 = _mm_loadu_pd(a + j);
    const __m128d a23 = _mm_loadu_pd(a + j + 2);
    // {b[-j-1], b[-j]} -> swap -> {b[-j], b[-j-1]}
    __m128d b01 = _mm_loadu_pd(b_last - j - 1);
    __m128d b23 = _mm_loadu_pd(b_last - j - 3);
    b01 = _mm_shuffle_pd(b01, b01, 1);
    b23 = _mm_shuffle_pd(b23, b23, 1);
    acc01 = _mm_add_pd(acc01, _mm_mul_pd(a01, b01));
    acc23 = _mm_add_pd(acc23, _mm_mul_pd(a23, b23));
  }
  double l01[2], l23[2];
  _mm_storeu_pd(l01, acc01);
  _mm_storeu_pd(l23, acc23);
  double sum = (l01[0] + l23[0]) + (l01[1] + l23[1]);
  for (std::size_t j = n4; j < n; ++j) {
    sum += a[j] * b_last[-static_cast<std::ptrdiff_t>(j)];
  }
  return sum;
}

__attribute__((target("sse2"))) void axpy_reversed_sse2(
    const double* a, const double* a_last, double r, double* out,
    std::size_t n) {
  const __m128d vr = _mm_set1_pd(r);
  const std::size_t n2 = n - n % 2;
  for (std::size_t j = 0; j < n2; j += 2) {
    const __m128d av = _mm_loadu_pd(a + j);
    __m128d rv = _mm_loadu_pd(a_last - j - 1);
    rv = _mm_shuffle_pd(rv, rv, 1);
    _mm_storeu_pd(out + j, _mm_sub_pd(av, _mm_mul_pd(vr, rv)));
  }
  for (std::size_t j = n2; j < n; ++j) {
    out[j] = a[j] - r * a_last[-static_cast<std::ptrdiff_t>(j)];
  }
}

__attribute__((target("sse2"))) void scale_pairs_sse2(const double* s,
                                                      const double* z,
                                                      double* out,
                                                      std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const __m128d sv = _mm_set1_pd(s[j]);
    const __m128d zv = _mm_loadu_pd(z + 2 * j);
    _mm_storeu_pd(out + 2 * j, _mm_mul_pd(sv, zv));
  }
}

__attribute__((target("sse2"))) void scaled_real_stride2_sse2(
    const double* in, double norm, double* out, std::size_t n) {
  const __m128d vnorm = _mm_set1_pd(norm);
  const std::size_t n2 = n - n % 2;
  for (std::size_t j = 0; j < n2; j += 2) {
    const __m128d p0 = _mm_loadu_pd(in + 2 * j);      // {re0, im0}
    const __m128d p1 = _mm_loadu_pd(in + 2 * j + 2);  // {re1, im1}
    const __m128d re = _mm_shuffle_pd(p0, p1, 0);     // {re0, re1}
    _mm_storeu_pd(out + j, _mm_mul_pd(re, vnorm));
  }
  for (std::size_t j = n2; j < n; ++j) {
    out[j] = in[2 * j] * norm;
  }
}

// ---------------------------------------------------------------------------
// AVX2 kernels (4-wide doubles).
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) ScanPoint scan_min_avx2(double b, double drift,
                                                        const double* inv2v,
                                                        std::size_t m_lo,
                                                        std::size_t m_hi) {
  const std::size_t count = m_hi - m_lo + 1;
  if (count < 8) return scan_min_scalar(b, drift, inv2v, m_lo, m_hi);
  // Seed with the range's first element: on degenerate inputs where every
  // objective value is +inf, the vector lanes never improve on their
  // sentinels and the seed keeps the scalar kernel's answer (m_lo).
  ScanPoint best;
  best.m = m_lo;
  best.value = scan_objective(b, drift, inv2v, m_lo);
  const __m256d vb = _mm256_set1_pd(b);
  const __m256d vdrift = _mm256_set1_pd(drift);
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  // Four independent running-min accumulators (16 elements per iteration):
  // a single accumulator's cmp->blend update is a loop-carried dependency
  // chain whose ~6-cycle latency caps throughput far below the ALU width.
  // Argmin under strict < with lowest-m tie-breaking is evaluation-order
  // independent, so the partition cannot change the result.  Sentinel
  // lanes carry m = +inf and lose every tie in the final combine.
  __m256d bv0 = inf, bv1 = inf, bv2 = inf, bv3 = inf;
  __m256d bm0 = inf, bm1 = inf, bm2 = inf, bm3 = inf;
  const double mlo_d = static_cast<double>(m_lo);
  __m256d m0 = _mm256_setr_pd(mlo_d, mlo_d + 1.0, mlo_d + 2.0, mlo_d + 3.0);
  const __m256d four = _mm256_set1_pd(4.0);
  const __m256d sixteen = _mm256_set1_pd(16.0);
  __m256d m1 = _mm256_add_pd(m0, four);
  __m256d m2 = _mm256_add_pd(m1, four);
  __m256d m3 = _mm256_add_pd(m2, four);
  std::size_t m = m_lo;
  for (; m + 15 <= m_hi; m += 16) {
    const __m256d i0 = _mm256_loadu_pd(inv2v + m);
    const __m256d i1 = _mm256_loadu_pd(inv2v + m + 4);
    const __m256d i2 = _mm256_loadu_pd(inv2v + m + 8);
    const __m256d i3 = _mm256_loadu_pd(inv2v + m + 12);
    const __m256d n0 = _mm256_add_pd(vb, _mm256_mul_pd(m0, vdrift));
    const __m256d n1 = _mm256_add_pd(vb, _mm256_mul_pd(m1, vdrift));
    const __m256d n2 = _mm256_add_pd(vb, _mm256_mul_pd(m2, vdrift));
    const __m256d n3 = _mm256_add_pd(vb, _mm256_mul_pd(m3, vdrift));
    const __m256d v0 = _mm256_mul_pd(_mm256_mul_pd(n0, n0), i0);
    const __m256d v1 = _mm256_mul_pd(_mm256_mul_pd(n1, n1), i1);
    const __m256d v2 = _mm256_mul_pd(_mm256_mul_pd(n2, n2), i2);
    const __m256d v3 = _mm256_mul_pd(_mm256_mul_pd(n3, n3), i3);
    // Strict < keeps the first (lowest-m) occurrence per lane.
    const __m256d lt0 = _mm256_cmp_pd(v0, bv0, _CMP_LT_OQ);
    const __m256d lt1 = _mm256_cmp_pd(v1, bv1, _CMP_LT_OQ);
    const __m256d lt2 = _mm256_cmp_pd(v2, bv2, _CMP_LT_OQ);
    const __m256d lt3 = _mm256_cmp_pd(v3, bv3, _CMP_LT_OQ);
    bv0 = _mm256_blendv_pd(bv0, v0, lt0);
    bm0 = _mm256_blendv_pd(bm0, m0, lt0);
    bv1 = _mm256_blendv_pd(bv1, v1, lt1);
    bm1 = _mm256_blendv_pd(bm1, m1, lt1);
    bv2 = _mm256_blendv_pd(bv2, v2, lt2);
    bm2 = _mm256_blendv_pd(bm2, m2, lt2);
    bv3 = _mm256_blendv_pd(bv3, v3, lt3);
    bm3 = _mm256_blendv_pd(bm3, m3, lt3);
    m0 = _mm256_add_pd(m0, sixteen);
    m1 = _mm256_add_pd(m1, sixteen);
    m2 = _mm256_add_pd(m2, sixteen);
    m3 = _mm256_add_pd(m3, sixteen);
  }
  for (; m + 3 <= m_hi; m += 4) {  // 4-wide cleanup on accumulator 0
    const __m256d i0 = _mm256_loadu_pd(inv2v + m);
    const __m256d n0 = _mm256_add_pd(vb, _mm256_mul_pd(m0, vdrift));
    const __m256d v0 = _mm256_mul_pd(_mm256_mul_pd(n0, n0), i0);
    const __m256d lt0 = _mm256_cmp_pd(v0, bv0, _CMP_LT_OQ);
    bv0 = _mm256_blendv_pd(bv0, v0, lt0);
    bm0 = _mm256_blendv_pd(bm0, m0, lt0);
    m0 = _mm256_add_pd(m0, four);
  }
  double lane_v[16], lane_m[16];
  _mm256_storeu_pd(lane_v, bv0);
  _mm256_storeu_pd(lane_v + 4, bv1);
  _mm256_storeu_pd(lane_v + 8, bv2);
  _mm256_storeu_pd(lane_v + 12, bv3);
  _mm256_storeu_pd(lane_m, bm0);
  _mm256_storeu_pd(lane_m + 4, bm1);
  _mm256_storeu_pd(lane_m + 8, bm2);
  _mm256_storeu_pd(lane_m + 12, bm3);
  for (int l = 0; l < 16; ++l) {
    if (lane_v[l] < best.value ||
        (lane_v[l] == best.value &&
         lane_m[l] < static_cast<double>(best.m))) {
      best.value = lane_v[l];
      best.m = static_cast<std::size_t>(lane_m[l]);
    }
  }
  for (; m <= m_hi; ++m) {  // tail (at most three elements; highest m)
    const double value = scan_objective(b, drift, inv2v, m);
    if (value < best.value) {
      best.value = value;
      best.m = m;
    }
  }
  return best;
}

__attribute__((target("avx2"))) double dot_reversed_avx2(const double* a,
                                                         const double* b_last,
                                                         std::size_t n) {
  const std::size_t n4 = n - n % 4;
  __m256d acc = _mm256_setzero_pd();  // lane l holds j%4 == l partial sums
  for (std::size_t j = 0; j < n4; j += 4) {
    const __m256d av = _mm256_loadu_pd(a + j);
    // {b[-j-3], b[-j-2], b[-j-1], b[-j]} -> reverse lanes
    __m256d bv = _mm256_loadu_pd(b_last - j - 3);
    bv = _mm256_permute4x64_pd(bv, _MM_SHUFFLE(0, 1, 2, 3));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(av, bv));
  }
  double lane[4];
  _mm256_storeu_pd(lane, acc);
  double sum = (lane[0] + lane[2]) + (lane[1] + lane[3]);
  for (std::size_t j = n4; j < n; ++j) {
    sum += a[j] * b_last[-static_cast<std::ptrdiff_t>(j)];
  }
  return sum;
}

__attribute__((target("avx2"))) void axpy_reversed_avx2(
    const double* a, const double* a_last, double r, double* out,
    std::size_t n) {
  const __m256d vr = _mm256_set1_pd(r);
  const std::size_t n4 = n - n % 4;
  for (std::size_t j = 0; j < n4; j += 4) {
    const __m256d av = _mm256_loadu_pd(a + j);
    __m256d rv = _mm256_loadu_pd(a_last - j - 3);
    rv = _mm256_permute4x64_pd(rv, _MM_SHUFFLE(0, 1, 2, 3));
    _mm256_storeu_pd(out + j, _mm256_sub_pd(av, _mm256_mul_pd(vr, rv)));
  }
  for (std::size_t j = n4; j < n; ++j) {
    out[j] = a[j] - r * a_last[-static_cast<std::ptrdiff_t>(j)];
  }
}

__attribute__((target("avx2"))) void scale_pairs_avx2(const double* s,
                                                      const double* z,
                                                      double* out,
                                                      std::size_t n) {
  const std::size_t n2 = n - n % 2;
  for (std::size_t j = 0; j < n2; j += 2) {
    // Duplicate {s[j], s[j+1]} pairwise to {s[j], s[j], s[j+1], s[j+1]}.
    const __m128d s01 = _mm_loadu_pd(s + j);
    const __m256d sv =
        _mm256_permute4x64_pd(_mm256_castpd128_pd256(s01), 0x50);
    const __m256d zv = _mm256_loadu_pd(z + 2 * j);
    _mm256_storeu_pd(out + 2 * j, _mm256_mul_pd(sv, zv));
  }
  for (std::size_t j = n2; j < n; ++j) {
    out[2 * j] = s[j] * z[2 * j];
    out[2 * j + 1] = s[j] * z[2 * j + 1];
  }
}

__attribute__((target("avx2"))) void scaled_real_stride2_avx2(
    const double* in, double norm, double* out, std::size_t n) {
  const __m256d vnorm = _mm256_set1_pd(norm);
  const std::size_t n4 = n - n % 4;
  for (std::size_t j = 0; j < n4; j += 4) {
    const __m256d p0 = _mm256_loadu_pd(in + 2 * j);      // re0 im0 re1 im1
    const __m256d p1 = _mm256_loadu_pd(in + 2 * j + 4);  // re2 im2 re3 im3
    // unpacklo across 128-bit halves gives {re0, re1, re2, re3} after a
    // cross-lane permute: build {re0, re2, re1, re3} then fix the order.
    const __m256d lo = _mm256_unpacklo_pd(p0, p1);  // re0 re2 re1 re3
    const __m256d re = _mm256_permute4x64_pd(lo, _MM_SHUFFLE(3, 1, 2, 0));
    _mm256_storeu_pd(out + j, _mm256_mul_pd(re, vnorm));
  }
  for (std::size_t j = n4; j < n; ++j) {
    out[j] = in[2 * j] * norm;
  }
}

__attribute__((target("sse2"))) void fractal_sojourns_sse2(
    const double* u, double* out, std::size_t n, const SojournConsts& c) {
  fractal_sojourns_wide<V2d, V2u>(u, out, n, c);
}

__attribute__((target("avx2"))) void fractal_sojourns_avx2(
    const double* u, double* out, std::size_t n, const SojournConsts& c) {
  fractal_sojourns_wide<V4d, V4u>(u, out, n, c);
}

__attribute__((target("sse2"))) void fifo_step_sse2(const FifoLanes& l,
                                                    double net, bool tally) {
  fifo_step_tier<V2d, V2u>(l, net, tally);
}

__attribute__((target("avx2"))) void fifo_step_avx2(const FifoLanes& l,
                                                    double net, bool tally) {
  fifo_step_tier<V4d, V4u>(l, net, tally);
}

#endif  // CTS_SIMD_X86

std::atomic<int> g_forced{-1};

Kind resolve_env_kind() {
  const char* env = std::getenv("CTS_SIMD");
  if (env == nullptr || *env == '\0') return best_supported();
  const Kind kind = parse_kind(env);
  if (static_cast<int>(kind) > static_cast<int>(best_supported())) {
    throw util::InvalidArgument(std::string("CTS_SIMD=") + env +
                                " is not supported by this CPU");
  }
  return kind;
}

}  // namespace

const char* kind_name(Kind kind) noexcept {
  switch (kind) {
    case Kind::kSse2:
      return "sse2";
    case Kind::kAvx2:
      return "avx2";
    case Kind::kScalar:
    default:
      return "scalar";
  }
}

Kind best_supported() noexcept {
#if CTS_SIMD_X86
  static const Kind kind = [] {
    if (__builtin_cpu_supports("avx2")) return Kind::kAvx2;
    if (__builtin_cpu_supports("sse2")) return Kind::kSse2;
    return Kind::kScalar;
  }();
  return kind;
#else
  return Kind::kScalar;
#endif
}

Kind active() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Kind>(forced);
  // Magic static: the env override is parsed and validated once; a throw
  // during initialisation propagates to the caller and retries next call.
  static const Kind env_kind = resolve_env_kind();
  return env_kind;
}

void force(Kind kind) {
  if (static_cast<int>(kind) > static_cast<int>(best_supported())) {
    throw util::InvalidArgument(
        std::string("simd::force: kind '") + kind_name(kind) +
        "' is not supported by this CPU");
  }
  g_forced.store(static_cast<int>(kind), std::memory_order_relaxed);
}

void clear_force() noexcept { g_forced.store(-1, std::memory_order_relaxed); }

Kind parse_kind(std::string_view name) {
  if (name == "scalar") return Kind::kScalar;
  if (name == "sse2") return Kind::kSse2;
  if (name == "avx2") return Kind::kAvx2;
  throw util::InvalidArgument("CTS_SIMD: unknown kind '" + std::string(name) +
                              "' (expected scalar, sse2, or avx2)");
}

ScanPoint scan_min(double b, double drift, const double* inv2v,
                   std::size_t m_lo, std::size_t m_hi) {
  util::require(m_lo >= 1 && m_lo <= m_hi, "simd::scan_min: need 1 <= lo <= hi");
  switch (active()) {
#if CTS_SIMD_X86
    case Kind::kAvx2:
      return scan_min_avx2(b, drift, inv2v, m_lo, m_hi);
    case Kind::kSse2:
      return scan_min_sse2(b, drift, inv2v, m_lo, m_hi);
#endif
    default:
      return scan_min_scalar(b, drift, inv2v, m_lo, m_hi);
  }
}

double dot_reversed(const double* a, const double* b_last, std::size_t n) {
  if (n == 0) return 0.0;
  switch (active()) {
#if CTS_SIMD_X86
    case Kind::kAvx2:
      return dot_reversed_avx2(a, b_last, n);
    case Kind::kSse2:
      return dot_reversed_sse2(a, b_last, n);
#endif
    default:
      return dot_reversed_scalar(a, b_last, n);
  }
}

void axpy_reversed(const double* a, const double* a_last, double r,
                   double* out, std::size_t n) {
  if (n == 0) return;
  switch (active()) {
#if CTS_SIMD_X86
    case Kind::kAvx2:
      axpy_reversed_avx2(a, a_last, r, out, n);
      return;
    case Kind::kSse2:
      axpy_reversed_sse2(a, a_last, r, out, n);
      return;
#endif
    default:
      axpy_reversed_scalar(a, a_last, r, out, n);
  }
}

void scale_pairs(const double* s, const double* z, double* out,
                 std::size_t n) {
  if (n == 0) return;
  switch (active()) {
#if CTS_SIMD_X86
    case Kind::kAvx2:
      scale_pairs_avx2(s, z, out, n);
      return;
    case Kind::kSse2:
      scale_pairs_sse2(s, z, out, n);
      return;
#endif
    default:
      scale_pairs_scalar(s, z, out, n);
  }
}

void scaled_real_stride2(const double* in, double norm, double* out,
                         std::size_t n) {
  if (n == 0) return;
  switch (active()) {
#if CTS_SIMD_X86
    case Kind::kAvx2:
      scaled_real_stride2_avx2(in, norm, out, n);
      return;
    case Kind::kSse2:
      scaled_real_stride2_sse2(in, norm, out, n);
      return;
#endif
    default:
      scaled_real_stride2_scalar(in, norm, out, n);
  }
}

void fractal_sojourns(Kind kind, const double* u, double* out, std::size_t n,
                      const SojournConsts& consts) noexcept {
  switch (kind) {
#if CTS_SIMD_X86
    case Kind::kAvx2:
      fractal_sojourns_avx2(u, out, n, consts);
      return;
    case Kind::kSse2:
      fractal_sojourns_sse2(u, out, n, consts);
      return;
#endif
    default:
      fractal_sojourns_scalar(u, out, n, consts);
  }
}

void fifo_step(Kind kind, const FifoLanes& lanes, double net,
               bool measuring) noexcept {
  // Every lane enters with W_i <= B_i, so unless net > 0 each w = W_i + net
  // rounds to at most W_i and no lane can overflow: the tally pass would
  // only blend back what it read, and is skipped.
  const bool tally = measuring && net > 0.0;
  switch (kind) {
#if CTS_SIMD_X86
    case Kind::kAvx2:
      fifo_step_avx2(lanes, net, tally);
      return;
    case Kind::kSse2:
      fifo_step_sse2(lanes, net, tally);
      return;
#endif
    default:
      fifo_step_scalar(lanes, net, tally);
  }
}

}  // namespace cts::core::simd
