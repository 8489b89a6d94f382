// The paper's model zoo: canonical constructions of V^v, Z^a, S, and L.
//
// Central registry used by every bench and example.  All models share one
// Gaussian marginal N(500, 5000) cells/frame at 25 frames/s (T_s = 40 ms),
// per Section 5.1, so any difference in queueing behaviour is attributable
// purely to correlation structure.  Each ModelSpec bundles:
//
//   * the analytic ACF (for the CTS / B-R machinery),
//   * marginal moments,
//   * a factory for simulation-ready FrameSources.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cts/core/acf_model.hpp"
#include "cts/fit/dar_fit.hpp"
#include "cts/proc/frame_source.hpp"

namespace cts::fit {

/// Shared experimental constants of Section 5.1.
struct PaperConstants {
  double mean = 500.0;       ///< cells/frame
  double variance = 5000.0;  ///< (cells/frame)^2
  double frame_rate = 25.0;  ///< frames/sec
  double Ts = 0.04;          ///< frame duration (sec)
  double alpha_v = 0.9;      ///< FBNDP exponent of the V^v family (H=0.95)
  double alpha_z = 0.8;      ///< FBNDP exponent of the Z^a family (H=0.9)
  std::uint32_t M_mixture = 15;  ///< ON/OFF count for V^v / Z^a components
  std::uint32_t M_pure = 30;     ///< ON/OFF count for L
  double anchor_a = 0.8;     ///< DAR(1) coefficient of the v = 1 anchor row
};

/// A fully specified source model: analytics + simulation factory.
struct ModelSpec {
  std::string name;
  double mean = 0.0;
  double variance = 0.0;
  std::shared_ptr<const core::AcfModel> acf;
  std::function<std::unique_ptr<proc::FrameSource>(std::uint64_t seed)>
      make_source;
};

/// The V^v model (FBNDP_alpha=0.9 + DAR(1)), first-lag pinned to the v = 1
/// anchor.  Paper values of v: 0.67, 1, 1.5.
ModelSpec make_vv(double v, const PaperConstants& constants = {});

/// The Z^a model (FBNDP_alpha=0.8 + DAR(1) with coefficient a, v = 1).
/// Paper values of a: 0.7, 0.9, 0.975, 0.99.
ModelSpec make_za(double a, const PaperConstants& constants = {});

/// The S model: DAR(p) exactly matching the first p autocorrelations of
/// Z^a (p = 1, 2, 3 in the paper).
ModelSpec make_dar_matched_to_za(double a, std::size_t p,
                                 const PaperConstants& constants = {});

/// The L model: pure FBNDP with the common marginal and alpha fitted to the
/// ACF tail of Z^a (paper: alpha ~= 0.72, fitted over lags 100..1000
/// against the a = 0.9 variant, where the geometric term is negligible).
ModelSpec make_l(const PaperConstants& constants = {});

/// A white (i.i.d. Gaussian) reference model with the common marginal.
ModelSpec make_white(const PaperConstants& constants = {});

/// A Gaussian AR(1) reference with lag-1 correlation `phi`.
ModelSpec make_ar1(double phi, const PaperConstants& constants = {});

/// Extension: F-ARIMA(0, d, 0) with the common marginal -- the paper's
/// canonical ASYMPTOTIC LRD example (d = H - 1/2), generated exactly via
/// the generic Davies-Harte source.
ModelSpec make_farima(double d, const PaperConstants& constants = {});

/// Extension: discrete M/G/infinity (Cox) source with the common moments
/// (marginal is scaled-Poisson, not Gaussian) -- the model class behind
/// the hyperbolic-decay BOP results the paper contrasts itself with.
/// H = (3 - beta)/2.
ModelSpec make_mginf(double beta, const PaperConstants& constants = {});

/// Extension: DAR(p) matched to Z^a but carrying a NEGATIVE BINOMIAL
/// marginal with the common moments (Section 6.1's heavier-tailed case).
ModelSpec make_dar_negbinom(double a, std::size_t p,
                            const PaperConstants& constants = {});

/// Builds a zoo model from a compact id string, the wire format the
/// admission-control service accepts:
///
///   "za:0.9"       -> make_za(0.9)
///   "vv:1.5"       -> make_vv(1.5)
///   "dar:0.9:2"    -> make_dar_matched_to_za(0.9, 2)
///   "l"            -> make_l()
///   "white"        -> make_white()
///   "ar1:0.8"      -> make_ar1(0.8)
///   "farima:0.3"   -> make_farima(0.3)
///   "mginf:1.4"    -> make_mginf(1.4)
///
/// Numeric fields are parsed strictly (full-string); a malformed or
/// unknown id throws util::InvalidArgument naming the id and the reason.
ModelSpec model_from_id(const std::string& id,
                        const PaperConstants& constants = {});

/// Builds an inline analytic model, the other form a CAC request or a
/// scenario spec may name instead of a zoo id: `kind` "geometric"
/// (GeometricAcf(a)), "white" (WhiteAcf) or "lrd" (ExactLrdAcf(hurst,
/// weight)), with the given mean and variance in cells/frame.  The
/// canonical name, e.g. "geometric(a=0.8,mu=500,var=5000)", encodes every
/// parameter that shapes the analytics, so it doubles as a cache key.  No
/// make_source: a caller that simulates adds its own factory.  Throws
/// util::InvalidArgument on an unknown kind.
ModelSpec inline_model(const std::string& kind, double mean, double variance,
                       double a, double hurst, double weight);

/// Parameters echoing Table 1 for reporting: the derived lambda (cells/s),
/// T0 (msec), calibrated DAR coefficient, etc., for a mixture model.
struct MixtureReport {
  double v = 1.0;
  double alpha = 0.8;
  double a = 0.8;       ///< DAR(1) coefficient
  double lambda = 0.0;  ///< FBNDP mean rate, cells/sec
  double t0_msec = 0.0; ///< fractal onset time, msec
  std::uint32_t M = 15;
};

/// Reporting helpers used by the Table-1 bench.
MixtureReport report_vv(double v, const PaperConstants& constants = {});
MixtureReport report_za(double a, const PaperConstants& constants = {});
MixtureReport report_l(const PaperConstants& constants = {});

/// The fitted DAR(p) parameters matching Z^a (for the Table-1 S rows).
DarFit report_dar_fit(double a, std::size_t p,
                      const PaperConstants& constants = {});

}  // namespace cts::fit
