// Kernel implementations for cts/core/simd.hpp.
//
// Every kernel is one generic body over a lane type: `double`/`uint64_t`
// on the scalar tier, GCC vector-extension types of 2 (SSE2) and 4 (AVX2)
// doubles on the vector tiers.  The bodies are force-inlined into one
// `target`-attributed function per tier (`run_sse2`, `run_avx2`), so the
// rest of the library keeps the portable baseline ISA, and `dispatch`
// picks the tier at run time.  Every operation in a body is an
// element-wise IEEE-754 add/sub/mul/div, a compare, a lane blend or
// shuffle, or an integer bit operation, and this file is compiled with
// -ffp-contract=off, so no mul/add pair fuses into an FMA: each element
// rounds identically on every tier by construction.  Helpers transform
// vectors in place: a 32-byte vector passed or returned by value trips
// GCC's -Wpsabi note on pre-AVX conventions.

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
#else
#define CTS_SIMD_X86 0
#endif

namespace cts::core::simd {

namespace {

typedef double V2d __attribute__((vector_size(16)));
typedef std::uint64_t V2u __attribute__((vector_size(16)));
typedef double V4d __attribute__((vector_size(32)));
typedef std::uint64_t V4u __attribute__((vector_size(32)));

/// Doubles per lane vector: 1 on the scalar tier.
template <class V>
constexpr std::size_t kWidth = sizeof(V) / sizeof(double);

/// v <- v's lanes in reverse order.
template <class V, class U>
[[gnu::always_inline]] inline void reverse_lanes(V& v) {
  if constexpr (kWidth<V> == 2) v = __builtin_shuffle(v, U{1, 0});
  if constexpr (kWidth<V> == 4) v = __builtin_shuffle(v, U{3, 2, 1, 0});
}

/// v <- {p[0], p[-1], ..., p[1 - width]}: a vector read backwards.
template <class V, class U>
[[gnu::always_inline]] inline void load_reversed(V& v, const double* p) {
  std::memcpy(&v, p - (kWidth<V> - 1), sizeof v);
  reverse_lanes<V, U>(v);
}

// ---------------------------------------------------------------------------
// CTS scan.  The argmin under strict < with lowest-m ties does not depend on
// the order the window is visited in, so the body keeps kAcc independent
// running minima per lane: a single compare-and-blend chain would serialise
// the loop on its latency.
// ---------------------------------------------------------------------------

struct ScanMin {
  /// value <- (b + m * drift)^2 * inv2v[m] on lanes [m, m + width), whose
  /// m as doubles is `md`.
  template <class V>
  [[gnu::always_inline]] static void objective(double b, double drift,
                                               const double* inv2v,
                                               std::size_t m, const V& md,
                                               V& value) {
    V inv;
    std::memcpy(&inv, inv2v + m, sizeof inv);
    const V numerator = b + md * drift;
    value = numerator * numerator * inv;
  }

  /// One accumulator's step: lanes keep their running minimum under
  /// strict <, so each keeps the lowest m of its minimum.
  template <class V>
  [[gnu::always_inline]] static void take_lanes(double b, double drift,
                                                const double* inv2v,
                                                std::size_t m, const V& md,
                                                V& best_v, V& best_m) {
    V value;
    objective<V>(b, drift, inv2v, m, md, value);
    const auto lt = value < best_v;
    best_v = lt ? value : best_v;
    best_m = lt ? md : best_m;
  }

  template <class V, class U>
  [[gnu::always_inline]] static ScanPoint run(double b, double drift,
                                              const double* inv2v,
                                              std::size_t m_lo,
                                              std::size_t m_hi) {
    constexpr std::size_t kW = kWidth<V>;
    constexpr std::size_t kAcc = 4;
    constexpr std::size_t kStep = kAcc * kW;
    // Lane l of accumulator q starts at m_lo + q * kW + l.  Sentinels:
    // +inf is never strictly beaten by +inf, and m = +inf loses every tie.
    const double mlo_d = static_cast<double>(m_lo);
    double start[kStep];
    for (std::size_t i = 0; i < kStep; ++i) {
      start[i] = mlo_d + static_cast<double>(i);
    }
    V md[kAcc], best_v[kAcc], best_m[kAcc];
    std::memcpy(md, start, sizeof md);
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (std::size_t q = 0; q < kAcc; ++q) best_v[q] = best_m[q] = kInf + V{};
    std::size_t m = m_lo;
    for (; m + kStep - 1 <= m_hi; m += kStep) {
#pragma GCC unroll 4
      for (std::size_t q = 0; q < kAcc; ++q) {
        take_lanes<V>(b, drift, inv2v, m + q * kW, md[q], best_v[q],
                      best_m[q]);
        md[q] = md[q] + static_cast<double>(kStep);
      }
    }
    for (; m + kW - 1 <= m_hi; m += kW) {  // whole vectors on accumulator 0
      take_lanes<V>(b, drift, inv2v, m, md[0], best_v[0], best_m[0]);
      md[0] = md[0] + static_cast<double>(kW);
    }
    // The window start seeds the combine: it has the lowest m, so an
    // objective that is +inf everywhere, or NaN at m_lo, keeps m_lo, as a
    // sequential scan does.
    ScanPoint best;
    best.m = m_lo;
    objective<double>(b, drift, inv2v, m_lo, mlo_d, best.value);
    const auto take = [&best](double value, double md_lane) {
      if (value < best.value ||
          (value == best.value && md_lane < static_cast<double>(best.m))) {
        best.value = value;
        best.m = static_cast<std::size_t>(md_lane);
      }
    };
    double lane_v[kStep], lane_m[kStep];
    std::memcpy(lane_v, best_v, sizeof lane_v);
    std::memcpy(lane_m, best_m, sizeof lane_m);
    for (std::size_t l = 0; l < kStep; ++l) take(lane_v[l], lane_m[l]);
    for (; m <= m_hi; ++m) {  // fewer than kW left, all above every lane
      const double md_tail = static_cast<double>(m);
      double value;
      objective<double>(b, drift, inv2v, m, md_tail, value);
      take(value, md_tail);
    }
    return best;
  }
};

// ---------------------------------------------------------------------------
// Hosking / Durbin-Levinson inner products and Davies-Harte scaling.
// ---------------------------------------------------------------------------

/// Fixed 4-lane blocked order on every tier: lane l sums the elements
/// j % 4 == l (4 / width vectors of width lanes), lanes combine as
/// (0 + 2) + (1 + 3), and the tail is added in order.
struct DotReversed {
  template <class V, class U>
  [[gnu::always_inline]] static double run(const double* a,
                                           const double* b_last,
                                           std::size_t n) {
    constexpr std::size_t kW = kWidth<V>;
    constexpr std::size_t kAcc = 4 / kW;
    V acc[kAcc] = {};
    const std::size_t n4 = n - n % 4;
    for (std::size_t j = 0; j < n4; j += 4) {
#pragma GCC unroll 4
      for (std::size_t q = 0; q < kAcc; ++q) {
        V av, bv;
        std::memcpy(&av, a + j + q * kW, sizeof av);
        load_reversed<V, U>(bv, b_last - (j + q * kW));
        acc[q] = acc[q] + av * bv;
      }
    }
    double lane[4];
    std::memcpy(lane, acc, sizeof lane);
    double sum = (lane[0] + lane[2]) + (lane[1] + lane[3]);
    for (std::size_t j = n4; j < n; ++j) {
      sum += a[j] * b_last[-static_cast<std::ptrdiff_t>(j)];
    }
    return sum;
  }
};

/// Element-wise kernel K over [0, n): K::lanes on whole vectors of lanes,
/// then on the remainder one lane at a time through the same body.
template <class K, class V, class U, class... A>
[[gnu::always_inline]] inline void for_lanes(std::size_t n, const A&... a) {
  std::size_t j = 0;
  for (; j + kWidth<V> <= n; j += kWidth<V>) K::template lanes<V, U>(a..., j);
  for (; j < n; ++j) K::template lanes<double, std::uint64_t>(a..., j);
}

struct AxpyReversed {
  template <class V, class U>
  [[gnu::always_inline]] static void lanes(const double* a,
                                           const double* a_last, double r,
                                           double* out, std::size_t j) {
    V av, rv;
    std::memcpy(&av, a + j, sizeof av);
    load_reversed<V, U>(rv, a_last - j);
    av = av - r * rv;
    std::memcpy(out + j, &av, sizeof av);
  }

  template <class V, class U>
  [[gnu::always_inline]] static void run(const double* a,
                                         const double* a_last, double r,
                                         double* out, std::size_t n) {
    for_lanes<AxpyReversed, V, U>(n, a, a_last, r, out);
  }
};

struct ScalePairs {
  /// Pairs [j, j + width): s[j] scales both halves of complex pair j.  The
  /// lanes are written in order, one output vector at a time; each reads
  /// only the z lanes it overwrites, so `out` may alias z.
  template <class V, class U>
  [[gnu::always_inline]] static void lanes(const double* s, const double* z,
                                           double* out, std::size_t j) {
    constexpr std::size_t kW = kWidth<V>;
    V sv;
    std::memcpy(&sv, s + j, sizeof sv);
#pragma GCC unroll 2
    for (std::size_t half = 0; half < 2; ++half) {
      // Each s lane doubled: {s0, s0, s1, s1}, then {s2, s2, s3, s3}.
      V scale = sv;
      if constexpr (kW == 2) {
        scale = __builtin_shuffle(scale, half == 0 ? U{0, 0} : U{1, 1});
      }
      if constexpr (kW == 4) {
        scale = __builtin_shuffle(
            scale, half == 0 ? U{0, 0, 1, 1} : U{2, 2, 3, 3});
      }
      V zv;
      std::memcpy(&zv, z + 2 * j + half * kW, sizeof zv);
      zv = scale * zv;
      std::memcpy(out + 2 * j + half * kW, &zv, sizeof zv);
    }
  }

  template <class V, class U>
  [[gnu::always_inline]] static void run(const double* s, const double* z,
                                         double* out, std::size_t n) {
    for_lanes<ScalePairs, V, U>(n, s, z, out);
  }
};

struct ScaledRealStride2 {
  /// out[j, j + width) from the real parts of pairs [j, j + width).
  template <class V, class U>
  [[gnu::always_inline]] static void lanes(const double* in, double norm,
                                           double* out, std::size_t j) {
    constexpr std::size_t kW = kWidth<V>;
    V re, next;
    std::memcpy(&re, in + 2 * j, sizeof re);  // re0 im0 re1 im1
    std::memcpy(&next, in + 2 * j + kW, sizeof next);
    if constexpr (kW == 2) re = __builtin_shuffle(re, next, U{0, 2});
    if constexpr (kW == 4) re = __builtin_shuffle(re, next, U{0, 2, 4, 6});
    re = re * norm;
    std::memcpy(out + j, &re, sizeof re);
  }

  template <class V, class U>
  [[gnu::always_inline]] static void run(const double* in, double norm,
                                         double* out, std::size_t n) {
    for_lanes<ScaledRealStride2, V, U>(n, in, norm, out);
  }
};

// ---------------------------------------------------------------------------
// Fractal ON/OFF sojourn kernel.  Every draw takes the log; only tail draws
// take the exp.  The log and exp lane bodies reinterpret bits with
// __builtin_bit_cast (std::bit_cast would pass the vector by value).
// ---------------------------------------------------------------------------

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

/// One vector of draws: log_out <- L = log(1 - u), body_out <- -(A/gamma) L.
/// 1 - u is exact for 53-bit uniforms, and 0 - L keeps +0 at u = 0.
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
/// so every element goes through the same operations on every tier.
struct FractalSojourns {
  template <class V, class U>
  [[gnu::always_inline]] static void run(const double* u, double* out,
                                         std::size_t n,
                                         const SojournConsts& c) {
    constexpr std::size_t kW = kWidth<V>;
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
};

// ---------------------------------------------------------------------------
// Finite-buffer fluid queue kernel.  The clamp and the tally updates are
// compare masks and blends, so every lane runs the same add/sub sequence
// whatever its outcome.
// ---------------------------------------------------------------------------

struct FifoStep {
  /// Lanes [i, i + width of V) of one fifo_step frame.  On vector types
  /// `x > y` is a lane mask and `mask ? a : b` a lane-wise blend of bit
  /// patterns; on the scalar tier they are the plain compare and select.
  template <class V, class U, bool kTally>
  [[gnu::always_inline]] static void lanes(const FifoLanes& l, std::size_t i,
                                           const V& net) {
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

  template <class V, class U, bool kTally>
  [[gnu::always_inline]] static void all_lanes(const FifoLanes& lanes_in,
                                               double net) {
    constexpr std::size_t kW = kWidth<V>;
    // A local copy: the lane stores cannot alias it, so its pointers and
    // count stay in registers.
    const FifoLanes l = lanes_in;
    // x - (+0) is x for every x, -0.0 included (0 + x would give +0), so
    // this broadcasts net exactly.
    const V vnet = net - V{};
    std::size_t i = 0;
    for (; i + kW <= l.count; i += kW) lanes<V, U, kTally>(l, i, vnet);
    for (; i < l.count; ++i) lanes<double, std::uint64_t, kTally>(l, i, net);
  }

  template <class V, class U>
  [[gnu::always_inline]] static void run(const FifoLanes& l, double net,
                                         bool tally) {
    if (tally) {
      all_lanes<V, U, true>(l, net);
    } else {
      all_lanes<V, U, false>(l, net);
    }
  }
};

// ---------------------------------------------------------------------------
// Dispatch: one instantiation of kernel K's body per tier.
// ---------------------------------------------------------------------------

template <class K, class... A>
auto run_scalar(const A&... a) {
  return K::template run<double, std::uint64_t>(a...);
}

#if CTS_SIMD_X86
template <class K, class... A>
__attribute__((target("sse2"))) auto run_sse2(const A&... a) {
  return K::template run<V2d, V2u>(a...);
}

template <class K, class... A>
__attribute__((target("avx2"))) auto run_avx2(const A&... a) {
  return K::template run<V4d, V4u>(a...);
}
#endif  // CTS_SIMD_X86

/// Runs kernel K on the tier of `kind`, which the host must support.
template <class K, class... A>
auto dispatch(Kind kind, const A&... a) {
  switch (kind) {
#if CTS_SIMD_X86
    case Kind::kAvx2:
      return run_avx2<K>(a...);
    case Kind::kSse2:
      return run_sse2<K>(a...);
#endif
    default:
      return run_scalar<K>(a...);
  }
}

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
  return dispatch<ScanMin>(active(), b, drift, inv2v, m_lo, m_hi);
}

double dot_reversed(const double* a, const double* b_last, std::size_t n) {
  return dispatch<DotReversed>(active(), a, b_last, n);
}

void axpy_reversed(const double* a, const double* a_last, double r,
                   double* out, std::size_t n) {
  dispatch<AxpyReversed>(active(), a, a_last, r, out, n);
}

void scale_pairs(const double* s, const double* z, double* out,
                 std::size_t n) {
  dispatch<ScalePairs>(active(), s, z, out, n);
}

void scaled_real_stride2(const double* in, double norm, double* out,
                         std::size_t n) {
  dispatch<ScaledRealStride2>(active(), in, norm, out, n);
}

void fractal_sojourns(Kind kind, const double* u, double* out, std::size_t n,
                      const SojournConsts& consts) noexcept {
  dispatch<FractalSojourns>(kind, u, out, n, consts);
}

void fifo_step(Kind kind, const FifoLanes& lanes, double net,
               bool measuring) noexcept {
  // Every lane enters with W_i <= B_i, so unless net > 0 each w = W_i + net
  // rounds to at most W_i and no lane can overflow: the tally pass would
  // only blend back what it read, and is skipped.
  dispatch<FifoStep>(kind, lanes, net, measuring && net > 0.0);
}

}  // namespace cts::core::simd
