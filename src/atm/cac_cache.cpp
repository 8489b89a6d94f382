#include "cts/atm/cac_cache.hpp"

#include <algorithm>
#include <cmath>

#include "cts/core/br_asymptotic.hpp"
#include "cts/core/effective_bandwidth.hpp"
#include "cts/util/error.hpp"

namespace cts::atm {

core::RateResult CacCache::rate_point(const fit::ModelSpec& model,
                                      double bandwidth, double buffer) {
  const RateKey key{model.name, bandwidth, buffer};
  std::size_t hint = 1;
  std::shared_ptr<ModelTable> table;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = rates_.find(key);
    if (it != rates_.end()) {
      ++stats_.rate_hits;
      return it->second;
    }
    // Warm start: the cached point with the largest b' <= b on the same
    // (model, c) curve.  Its m* lower-bounds ours (CTS monotonicity in b),
    // so starting the scan there is bit-identical to a cold scan.
    auto bound = rates_.lower_bound(key);
    if (bound != rates_.begin()) {
      --bound;
      if (bound->first.model == key.model &&
          bound->first.bandwidth == key.bandwidth) {
        hint = bound->second.critical_m;
      }
    }
    std::shared_ptr<ModelTable>& slot = tables_[model.name];
    if (!slot) slot = std::make_shared<ModelTable>(model.acf, model.variance);
    table = slot;
  }
  // The scan runs outside the cache lock, under its model's table lock
  // (the table grows inside the scan); a concurrent miss on the same key
  // computes the same deterministic value.
  core::RateResult result;
  std::size_t lags_before = 0;
  std::size_t lags_after = 0;
  {
    std::lock_guard<std::mutex> lock(table->mutex);
    lags_before = table->growth->table_size();
    const core::RateFunction rate(table->growth, model.mean, bandwidth);
    result = rate.evaluate(buffer, hint);
    lags_after = table->growth->table_size();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.rate_misses;
    if (hint > 1) ++stats_.warm_starts;
    if (lags_after > lags_before) ++stats_.table_extensions;
    table->lags = std::max(table->lags, lags_after - 1);  // index 0 unused
    rates_.emplace(key, result);
    stats_.rate_entries = rates_.size();
  }
  return result;
}

double CacCache::log10_bop(const fit::ModelSpec& model,
                           const CacProblem& problem, std::size_t n) {
  util::require(n >= 1, "CacCache::log10_bop: need at least one connection");
  const double c = problem.capacity_cells_per_frame / static_cast<double>(n);
  if (c <= model.mean) return 0.0;  // unstable: probability ~1, log10 = 0
  const double b = problem.buffer_cells / static_cast<double>(n);
  const core::RateResult r = rate_point(model, c, b);
  return core::br_log10_bop(r, b, n).log10_bop;
}

double CacCache::log10_bop_interpolated(const fit::ModelSpec& model,
                                        const CacProblem& problem,
                                        std::size_t n) {
  util::require(n >= 1,
                "CacCache::log10_bop_interpolated: need at least one "
                "connection");
  const double c = problem.capacity_cells_per_frame / static_cast<double>(n);
  if (c <= model.mean) return 0.0;
  const double b = problem.buffer_cells / static_cast<double>(n);
  const RateKey key{model.name, c, b};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto exact = rates_.find(key);
    if (exact == rates_.end()) {
      // Bracket: the cached neighbours just below and just above b on the
      // same (model, c) curve.
      auto above = rates_.lower_bound(key);
      auto below = above;
      const bool have_above = above != rates_.end() &&
                              above->first.model == key.model &&
                              above->first.bandwidth == key.bandwidth;
      bool have_below = false;
      if (below != rates_.begin()) {
        --below;
        have_below = below->first.model == key.model &&
                     below->first.bandwidth == key.bandwidth;
      }
      if (have_below && have_above) {
        const double b0 = below->first.buffer;
        const double b1 = above->first.buffer;
        const double y0 =
            core::br_log10_bop(below->second, b0, n).log10_bop;
        const double y1 =
            core::br_log10_bop(above->second, b1, n).log10_bop;
        ++stats_.interpolations;
        return y0 + (y1 - y0) * (b - b0) / (b1 - b0);
      }
    }
  }
  return log10_bop(model, problem, n);
}

CacResult CacCache::admissible_br(const fit::ModelSpec& model,
                                  const CacProblem& problem) {
  problem.validate();
  util::require(model.mean > 0.0, "CacCache::admissible_br: bad model");

  // Hard upper bound: stability requires N < C/mu.
  const auto n_max = static_cast<std::size_t>(
      std::floor(problem.capacity_cells_per_frame / model.mean));
  CacResult result;
  if (n_max == 0) return result;
  if (log10_bop(model, problem, 1) > problem.log10_target_clr) {
    return result;  // even one connection misses the QOS target
  }
  // Binary search for the largest feasible N; BOP is monotone increasing
  // in N on this fixed link.
  std::size_t lo = 1;      // feasible
  std::size_t hi = n_max;  // possibly infeasible
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    if (log10_bop(model, problem, mid) <= problem.log10_target_clr) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  result.admissible = lo;
  // The search evaluated N = lo on its way here (lo is only ever assigned
  // from an evaluated, feasible probe), so this lookup is a guaranteed
  // cache hit -- the "reuse, don't re-scan" contract of the admission
  // service.
  result.log10_bop_at_max = log10_bop(model, problem, lo);
  return result;
}

CacResult CacCache::admissible_eb(const fit::ModelSpec& model,
                                  const CacProblem& problem) {
  problem.validate();
  util::require(problem.buffer_cells > 0.0,
                "CacCache::admissible_eb: EB needs a positive buffer");
  EbEntry entry;
  bool cached = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = eb_.find(model.name);
    if (it != eb_.end()) {
      ++stats_.eb_hits;
      entry = it->second;
      cached = true;
    }
  }
  if (!cached) {
    try {
      entry.variance_rate =
          core::asymptotic_variance_rate(*model.acf, model.variance);
      entry.converged = true;
    } catch (const util::NumericalError& e) {
      entry.converged = false;
      entry.error = e.what();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.eb_misses;
    eb_.emplace(model.name, entry);
  }
  if (!entry.converged) throw util::NumericalError(entry.error);
  const double delta = core::decay_rate_for_target(problem.log10_target_clr,
                                                   problem.buffer_cells);
  const double eb =
      core::effective_bandwidth(model.mean, entry.variance_rate, delta);
  CacResult result;
  result.admissible = static_cast<std::size_t>(
      std::floor(problem.capacity_cells_per_frame / eb));
  if (result.admissible > 0) {
    result.log10_bop_at_max = -delta * problem.buffer_cells / std::log(10.0);
  }
  return result;
}

CacCache::Stats CacCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats = stats_;
  for (const auto& [name, table] : tables_) stats.table_lags += table->lags;
  return stats;
}

void CacCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  rates_.clear();
  eb_.clear();
  tables_.clear();
  stats_.rate_entries = 0;
}

}  // namespace cts::atm
