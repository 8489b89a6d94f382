// Runtime-dispatched SIMD kernels for the analytic and simulation hot paths.
//
// The kernels here back the CTS scan (`RateFunction::evaluate`), the
// Davies-Harte block scaling, the Hosking/Durbin-Levinson inner products,
// the fractal ON/OFF sojourn draws behind every FBNDP source and the
// finite-buffer sweep of the fluid multiplexer (`FluidMux::run`).
// Dispatch picks the best instruction set the host supports (AVX2 > SSE2 >
// scalar, probed once via cpuid) and can be overridden for testing with
// the `CTS_SIMD=scalar|sse2|avx2` environment variable or the `force()`
// hook.
//
// Bit-identity contract: every kernel produces byte-identical results on
// every dispatch kind.  Each kernel is one generic body, instantiated per
// kind over `double` or a 2- or 4-wide vector of doubles, so the kinds run
// the same operations element for element.  Element-wise kernels
// (`scale_pairs`, `axpy_reversed`, `scaled_real_stride2`) use only
// per-element IEEE-754 mul/add/div (never FMA), which round identically in
// scalar and vector registers.  Reductions cannot reorder floating-point
// sums freely, so `dot_reversed` fixes a "4-lane blocked" summation order
// on every kind -- lane l accumulates elements j with j % 4 == l, lanes
// combine as (acc0 + acc2) + (acc1 + acc3), and the tail is added
// sequentially.  `scan_min` is an argmin under strict `<` with lowest-m
// tie-breaking, which is independent of evaluation order altogether, so
// every kind keeps four independent running-minimum accumulators.
// `fractal_sojourns` is element-wise too: generic log and exp lane bodies
// built from IEEE-754 add/sub/mul/div and integer bit operations only.
// `fifo_step` is element-wise over its queue lanes: IEEE-754 add/sub,
// compares and bitwise blends.  Its clamp is a blend of bit patterns, not
// arithmetic: a lane with w > B takes B, a lane with w < 0 takes the
// all-zero pattern (+0), and every other lane keeps w's own bits, so a
// -0.0 workload stays -0.0 on every tier.  Tests assert the contract
// kernel-by-kernel and end-to-end at the curve level (test_simd_kernels,
// test_curve_bit_identity, test_golden_fluid_mux).

#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace cts::core::simd {

/// Available kernel implementations, ordered by preference.
enum class Kind {
  kScalar = 0,  ///< portable fallback, always available
  kSse2 = 1,    ///< 2-wide doubles (baseline on x86-64)
  kAvx2 = 2,    ///< 4-wide doubles
};

/// Short lowercase name ("scalar", "sse2", "avx2") for logs and flags.
const char* kind_name(Kind kind) noexcept;

/// Best kind the host CPU supports (cpuid probe, computed once).
Kind best_supported() noexcept;

/// The kind kernels currently dispatch to: a `force()`d kind if set, else
/// the validated `CTS_SIMD` environment override, else `best_supported()`.
/// Throws util::InvalidArgument on the first call if `CTS_SIMD` is set to
/// an unknown name or to a kind the host cannot execute.
Kind active();

/// Test hook: pin dispatch to `kind` (must be supported by the host;
/// throws util::InvalidArgument otherwise).  Thread-safe.
void force(Kind kind);

/// Test hook: clears a `force()`d kind, restoring env/auto dispatch.
void clear_force() noexcept;

/// Parses "scalar"/"sse2"/"avx2"; throws util::InvalidArgument otherwise.
Kind parse_kind(std::string_view name);

/// Result of a windowed scan: the minimum objective value and its m.
struct ScanPoint {
  double value = 0.0;
  std::size_t m = 0;
};

/// Argmin over m in [m_lo, m_hi] (inclusive, m_lo >= 1, m_lo <= m_hi) of
/// the Bahadur-Rao scan objective
///
///   f(m) = (b + m * drift)^2 * inv2v[m],
///
/// where `inv2v[m]` is the precomputed reciprocal table 1 / (2 V(m))
/// (indexed by m; inv2v[0] unused, entries up to m_hi must be valid and
/// positive).  Hoisting the division into the shared table keeps the hot
/// loop pure mul/add — the per-element divide would otherwise cap the
/// vector win at the divider's throughput.  Ties resolve to the lowest m,
/// so the result equals the first running minimum of a sequential scan.
ScanPoint scan_min(double b, double drift, const double* inv2v,
                   std::size_t m_lo, std::size_t m_hi);

/// sum_{j=0..n-1} a[j] * b_last[-j]  -- a forward vector against a
/// reversed one (`b_last` points at the LAST element of the reversed
/// operand).  Fixed 4-lane blocked summation order (see file comment).
double dot_reversed(const double* a, const double* b_last, std::size_t n);

/// out[j] = a[j] - r * a_last[-j] for j in [0, n).  `out` must not alias
/// `a`/`a_last`.  Element-wise, hence exact on every kind.
void axpy_reversed(const double* a, const double* a_last, double r,
                   double* out, std::size_t n);

/// out[2j] = s[j] * z[2j], out[2j+1] = s[j] * z[2j+1] for j in [0, n):
/// scales interleaved complex pairs by a real per-pair factor
/// (Davies-Harte spectral scaling).  `out` may alias `z`.
void scale_pairs(const double* s, const double* z, double* out,
                 std::size_t n);

/// out[j] = in[2j] * norm for j in [0, n): extracts the real parts of an
/// interleaved complex array and applies the FFT normalisation.
void scaled_real_stride2(const double* in, double norm, double* out,
                         std::size_t n);

/// Constants of the fractal ON/OFF sojourn law (cts/proc/on_off.hpp) with
/// gamma = 2 - alpha and crossover A.
struct SojournConsts {
  double body_mass = 0.0;  ///< 1 - e^{-gamma}: P(sojourn <= A)
  double a = 0.0;          ///< A
  double a_over_g = 0.0;   ///< A / gamma
  double neg_g = 0.0;      ///< -gamma
  double inv_g = 0.0;      ///< 1 / gamma
};

/// Inverse-CDF sojourn samples: out[i] is the sojourn of uniform u[i] in
/// [0, 1).  With L = log(1 - u[i]) (1 - u is exact for 53-bit uniforms):
///
///   out[i] = -(A/gamma) L                  if u[i] <  body_mass,
///            A exp((-gamma - L) / gamma)   otherwise,
///
/// (the kernel multiplies by the precomputed A/gamma and 1/gamma of
/// `consts`).  Every draw takes the log and only tail draws take the exp:
/// every tier packs the tail draws' logs densely, exponentiates them as
/// vectors and scatters the results back.  `log` and `exp` are the kernel's
/// own fdlibm-style polynomials (no libm, no FMA), each accurate to about
/// 1 ulp, so every tier is byte-identical and out[i] lies within 1e-13
/// relative of the libm-based `OnOffParams::sample_sojourn`.  `out` must
/// not alias `u`.  `kind` must be one the host supports (e.g. a value
/// `active()` returned), so a caller resolves dispatch once and keeps the
/// per-batch call noexcept.
void fractal_sojourns(Kind kind, const double* u, double* out, std::size_t n,
                      const SojournConsts& consts) noexcept;

/// Structure-of-arrays state of `count` finite-buffer fluid queues fed by
/// one shared arrival stream: lane i is the queue of buffer size buffer[i].
/// The caller owns the arrays; `fifo_step` updates all but `buffer`.
struct FifoLanes {
  double* workload = nullptr;            ///< W_i, cells (start at 0)
  const double* buffer = nullptr;        ///< B_i >= 0, cells (+inf allowed)
  double* lost = nullptr;                ///< Kahan sum of cells lost
  double* comp = nullptr;                ///< its Kahan compensation
  std::uint64_t* loss_frames = nullptr;  ///< measured frames with a loss
  std::size_t count = 0;
};

/// One frame of the finite-buffer Lindley recursion on every lane, with
/// net = A - C the frame's arrivals minus the service capacity:
///
///   w = W_i + net;  W_i <- B_i if w > B_i,  +0 if w < 0,  w otherwise,
///
/// and, only where w > B_i and only while `measuring`, the Kahan update of
/// lost_i by the loss w - B_i (y = loss - comp_i, t = lost_i + y,
/// comp_i = (t - lost_i) - y, lost_i = t) and ++loss_frames_i.  Branch-free
/// masked lanes; byte-identical on every kind (see the file comment).
/// Lanes must enter with W_i <= B_i, as the recursion leaves them from
/// W_i = 0: a frame with net <= 0 then cannot overflow any lane, and the
/// kernel skips its tally pass.  `kind` must be one the host supports
/// (e.g. a value `active()` returned), so a caller resolves dispatch once
/// per run.
void fifo_step(Kind kind, const FifoLanes& lanes, double net,
               bool measuring) noexcept;

}  // namespace cts::core::simd
