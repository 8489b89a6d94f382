// The Bahadur-Rao rate function and the Critical Time Scale (CTS).
//
// For N homogeneous Gaussian sources with per-source buffer b (cells) and
// bandwidth c (cells/frame), the rate function is (paper eq. 8):
//
//   I(c, b) = inf_{m >= 1} [b + m(c - mu)]^2 / (2 V(m)),
//
// and the minimiser m*_b is the Critical Time Scale: the number of frame
// correlations that determine the overflow probability.  Correlations at
// lags beyond m*_b do not influence I -- which is the paper's central
// object.  The paper proves m* < infinity whenever V(m) grows slower than
// m^2 (true for SRD and for LRD with H < 1) and that m*_0 = 1.

#pragma once

#include <cstddef>
#include <memory>

#include "cts/core/variance_growth.hpp"

namespace cts::core {

/// Result of one rate-function evaluation.
struct RateResult {
  double rate = 0.0;            ///< I(c, b)
  std::size_t critical_m = 1;   ///< m*_b, the Critical Time Scale
};

/// Evaluator of I(c, b) for one source model (mu, sigma^2, r(.)).
///
/// The minimisation over m is an exact integer scan with a stopping rule:
/// the scan runs to max(kMinScan, scan_margin * m_best_so_far) and at least
/// to the LRD scaling prediction H b / ((1-H)(c-mu)) padded by the margin,
/// so slowly-varying objectives near H -> 1 cannot stop the scan early.
///
/// V(m) depends on the model alone, not on (c, b), so the V(m) table may be
/// shared: every RateFunction built on the same VarianceGrowth reuses (and
/// extends) one table.  The table grows lazily inside `evaluate`, so
/// evaluations that share a table must not run concurrently; the caller
/// serialises them (atm::CacCache holds a per-model lock).
class RateFunction {
 public:
  /// `acf` must describe a process with variance `variance` and mean `mean`.
  /// `bandwidth` is c (cells/frame) and must exceed `mean` (stability).
  /// Builds a private V(m) table.
  RateFunction(std::shared_ptr<const AcfModel> acf, double mean,
               double variance, double bandwidth);

  /// Borrows `growth`'s V(m) table (shared ownership).  Answers are
  /// bit-identical to the private-table form: the table is the same
  /// sequential recurrence however far it was extended before.
  RateFunction(std::shared_ptr<const VarianceGrowth> growth, double mean,
               double bandwidth);

  /// I(c, b) and m* for per-source buffer b >= 0 (cells).  Throws
  /// util::NumericalError when the required scan horizon (including the
  /// initial LRD-scaling prediction, not just improvement-driven
  /// extensions) would exceed kMaxScan.
  RateResult evaluate(double buffer_per_source) const;

  /// Warm-started evaluation: begins the integer scan at `m_hint` instead
  /// of 1.  The result is bit-identical to the cold scan provided
  /// m_hint <= m*_b (the smallest minimiser): m*_b is non-decreasing in b
  /// at fixed c (decreasing differences of the objective in (m, b)), so a
  /// cached m* from any smaller buffer is always a valid hint.
  /// m_hint = 1 reproduces the cold scan exactly.
  RateResult evaluate(double buffer_per_source, std::size_t m_hint) const;

  double mean() const noexcept { return mean_; }
  double bandwidth() const noexcept { return bandwidth_; }
  const VarianceGrowth& variance_growth() const noexcept { return *growth_; }

  /// Upper bound on the scanned m; evaluations requiring more throw
  /// util::NumericalError instead of silently returning a non-minimum.
  static constexpr std::size_t kMaxScan = 1u << 24;

 private:
  std::shared_ptr<const VarianceGrowth> growth_;
  double mean_;
  double bandwidth_;
};

/// Asymptotic CTS slope for a Gaussian exact-LRD source (paper appendix):
///   m*_b ~ [H / ((1-H)(c-mu))] * b.
double lrd_cts_slope(double hurst, double mean, double bandwidth);

/// Asymptotic CTS slope for a Gaussian AR(1)/Markov source
/// (Courcoubetis & Weber):  m*_b ~ b / (c - mu).
double markov_cts_slope(double mean, double bandwidth);

}  // namespace cts::core
