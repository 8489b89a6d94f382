// Thread-safe memoization cache for admission-control analytics.
//
// Every CAC decision reduces to rate points I(c, b) -- the Bahadur-Rao
// overflow probability is then closed-form in (I, N) -- and each rate
// point is an argmin over m of (b + m(c - mu))^2 / (2 V(m)).  Correlations
// enter only through V(m), which depends on the model alone, so the
// expensive step is paid once per model: the cache keeps one V(m) table
// per model (VarianceGrowth, grown to the largest horizon any probe has
// needed), and a cache miss then costs only the SIMD argmin over that
// table.  Rate points are memoized on top, keyed on (model name,
// per-connection bandwidth c, per-connection buffer b); every
// (model, b, c, N) BOP query the daemon serves maps onto one such rate
// point plus O(1) arithmetic, so a single cached scan serves all N
// sharing the same per-connection operating point.
//
// Two analytic facts make the cache more than a lookup table:
//
//  * m*_b is non-decreasing in b at fixed c (decreasing differences of
//    the BR objective in (m, b)), so a cache miss warm-starts its integer
//    scan from the cached m* of the largest b' <= b already present --
//    bit-identical to the cold scan, but skipping the settled prefix.
//  * log10 BOP is smooth in b between grid points, so probe queries may
//    opt into linear interpolation between two cached brackets instead
//    of paying for a fresh scan.  Interpolation is approximate and is
//    never used for admit/reject decisions.
//
// Concurrency: lookups and inserts take the cache mutex; scans run outside
// it.  A scan holds its model's table mutex instead, because the table
// grows lazily inside the scan: scans of one model serialise, scans of
// different models run in parallel.  The table is the same sequential
// recurrence however far and in whatever order it was extended, so every
// answer is bit-identical to a fresh computation.  Two threads missing on
// the same key compute the same value and the second insert is a no-op.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "cts/atm/cac.hpp"
#include "cts/core/rate_function.hpp"

namespace cts::atm {

/// Shared memo of rate-function evaluations plus derived CAC answers.
/// Models are identified by ModelSpec::name -- two specs with the same
/// name MUST describe the same process (true for the model zoo, whose
/// names encode their parameters).
class CacCache {
 public:
  /// Monotone counters plus current sizes (rate_entries, table_lags);
  /// readable while other threads query the cache.
  struct Stats {
    std::uint64_t rate_hits = 0;       ///< BOP served from a cached scan
    std::uint64_t rate_misses = 0;     ///< scans actually run
    std::uint64_t warm_starts = 0;     ///< misses started at a cached m*
    std::uint64_t interpolations = 0;  ///< BOPs served by interpolation
    std::uint64_t eb_hits = 0;         ///< variance rates served from cache
    std::uint64_t eb_misses = 0;       ///< variance-rate summations run
    std::uint64_t rate_entries = 0;    ///< cached rate points
    std::uint64_t table_lags = 0;      ///< V(m) lags held across all models
    std::uint64_t table_extensions = 0;  ///< misses that grew a V(m) table
  };

  CacCache() = default;
  CacCache(const CacCache&) = delete;
  CacCache& operator=(const CacCache&) = delete;

  /// log10 BOP for N connections of `model` on `problem`'s link
  /// (c = C/N, b = B/N per connection).  Returns 0.0 -- log10 of
  /// probability ~1 -- when N is infeasible (c <= mean); such points are
  /// not cached.  Exact: bit-identical to the uncached computation.
  double log10_bop(const fit::ModelSpec& model, const CacProblem& problem,
                   std::size_t n);

  /// Like log10_bop, but when the exact point is absent and two cached
  /// buffer grid points bracket b at the same (model, c), returns the
  /// linear interpolation of their BOPs instead of running a scan.
  /// Falls back to the exact (caching) path when no bracket exists.
  double log10_bop_interpolated(const fit::ModelSpec& model,
                                const CacProblem& problem, std::size_t n);

  /// admissible_connections_br through the cache: the binary search's
  /// final BOP report is a guaranteed rate_hits increment, never a
  /// re-evaluation.  Bit-identical to atm::admissible_connections_br.
  CacResult admissible_br(const fit::ModelSpec& model,
                          const CacProblem& problem);

  /// admissible_connections_eb with the asymptotic variance rate memoized
  /// per model -- including the LRD failure: a model that failed to
  /// converge throws the cached util::NumericalError immediately on
  /// re-query.  Bit-identical to atm::admissible_connections_eb.
  CacResult admissible_eb(const fit::ModelSpec& model,
                          const CacProblem& problem);

  Stats stats() const;

  /// Drops every cached entry and V(m) table (counters are kept: they are
  /// monotone).
  void clear();

 private:
  /// Lexicographic (model, c, b): entries of one (model, c) curve are
  /// contiguous and ordered by b, which is what warm-start hints and
  /// interpolation brackets need.
  struct RateKey {
    std::string model;
    double bandwidth = 0.0;  ///< c, per connection
    double buffer = 0.0;     ///< b, per connection
    bool operator<(const RateKey& o) const {
      if (model != o.model) return model < o.model;
      if (bandwidth != o.bandwidth) return bandwidth < o.bandwidth;
      return buffer < o.buffer;
    }
  };

  /// Cached asymptotic variance rate, or the cached reason there is none.
  struct EbEntry {
    bool converged = false;
    double variance_rate = 0.0;
    std::string error;
  };

  /// One model's V(m) table.  `mutex` serialises the scans that read and
  /// grow `growth`; `lags` (guarded by the cache mutex) is the largest
  /// table a finished scan left, summed into Stats::table_lags.
  struct ModelTable {
    ModelTable(std::shared_ptr<const core::AcfModel> acf, double variance)
        : growth(std::make_shared<const core::VarianceGrowth>(std::move(acf),
                                                              variance)) {}
    std::mutex mutex;
    std::shared_ptr<const core::VarianceGrowth> growth;
    std::size_t lags = 0;
  };

  core::RateResult rate_point(const fit::ModelSpec& model, double bandwidth,
                              double buffer);

  mutable std::mutex mutex_;
  std::map<RateKey, core::RateResult> rates_;
  std::map<std::string, std::shared_ptr<ModelTable>> tables_;
  std::map<std::string, EbEntry> eb_;
  Stats stats_;
};

}  // namespace cts::atm
