// Unit tests for the admission-control memoization cache: bit-identity
// with the direct library entry points, warm-started CTS scans, the
// per-model V(m) table shared across query orders and threads, opt-in
// interpolation, and the hit/miss accounting the daemon's stats endpoint
// exposes.

#include "cts/atm/cac_cache.hpp"

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cts/atm/cac.hpp"
#include "cts/core/br_asymptotic.hpp"
#include "cts/core/simd.hpp"
#include "cts/util/error.hpp"
#include "cts/util/rng.hpp"

namespace ca = cts::atm;
namespace cf = cts::fit;
namespace cu = cts::util;

namespace {

ca::CacProblem paper_problem() {
  ca::CacProblem p;
  p.capacity_cells_per_frame = 16140.0;  // 30 x 538
  p.buffer_cells = 4035.0;               // 10 ms at that drain rate
  p.log10_target_clr = -6.0;
  return p;
}

ca::CacProblem link(double capacity, double buffer) {
  ca::CacProblem p = paper_problem();
  p.capacity_cells_per_frame = capacity;
  p.buffer_cells = buffer;
  return p;
}

/// log10 BOP the uncached way: a private V(m) table and a cold scan.
double fresh_log10_bop(const cf::ModelSpec& model, const ca::CacProblem& p,
                       std::size_t n) {
  const double c = p.capacity_cells_per_frame / static_cast<double>(n);
  if (c <= model.mean) return 0.0;
  const double b = p.buffer_cells / static_cast<double>(n);
  const cts::core::RateFunction rate(model.acf, model.mean, model.variance,
                                     c);
  return cts::core::br_log10_bop(rate, b, n).log10_bop;
}

/// One admission-service query: admit_br when n == 0, else log10 BOP at n.
struct Query {
  const cf::ModelSpec* model = nullptr;
  ca::CacProblem problem;
  std::size_t n = 0;
};

/// Answer as one double: the admissible count for admit_br, else the BOP.
/// Admit answers are also checked against the fresh BOP at the answer.
double run(ca::CacCache& cache, const Query& q) {
  if (q.n > 0) return cache.log10_bop(*q.model, q.problem, q.n);
  const ca::CacResult r = cache.admissible_br(*q.model, q.problem);
  EXPECT_GT(r.admissible, 0u);
  if (r.admissible > 0) {
    EXPECT_EQ(r.log10_bop_at_max,
              fresh_log10_bop(*q.model, q.problem, r.admissible));
  }
  return static_cast<double>(r.admissible);
}

double run_fresh(const Query& q) {
  if (q.n > 0) return fresh_log10_bop(*q.model, q.problem, q.n);
  return static_cast<double>(
      ca::admissible_connections_br(*q.model, q.problem).admissible);
}

std::uint64_t lags_needed(const Query& q) {
  ca::CacCache alone;
  (void)run(alone, q);
  return alone.stats().table_lags;
}

}  // namespace

TEST(CacCache, RepeatQueryIsAHitAndBitIdentical) {
  const cf::ModelSpec model = cf::make_za(0.9);
  ca::CacCache cache;
  const double first = cache.log10_bop(model, paper_problem(), 20);
  ca::CacCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.rate_misses, 1u);
  EXPECT_EQ(stats.rate_hits, 0u);
  EXPECT_EQ(stats.rate_entries, 1u);

  const double second = cache.log10_bop(model, paper_problem(), 20);
  EXPECT_EQ(first, second);  // bit-identical, not merely close
  stats = cache.stats();
  EXPECT_EQ(stats.rate_misses, 1u);
  EXPECT_EQ(stats.rate_hits, 1u);
  EXPECT_EQ(stats.rate_entries, 1u);
}

TEST(CacCache, InfeasibleNReportsCertaintyAndIsNotCached) {
  // N = 40 makes c = 16140/40 = 403.5 <= mean 500: the queue is unstable,
  // overflow has probability ~1, and the log10 scale reports 0.0 (NOT
  // +inf -- log10 is clamped at certainty).  Such points are not cached.
  const cf::ModelSpec model = cf::make_za(0.9);
  ca::CacCache cache;
  EXPECT_EQ(cache.log10_bop(model, paper_problem(), 40), 0.0);
  const ca::CacCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.rate_hits, 0u);
  EXPECT_EQ(stats.rate_misses, 0u);
  EXPECT_EQ(stats.rate_entries, 0u);
}

TEST(CacCache, WarmStartedScansAreBitIdenticalToColdScans) {
  // Ascending buffers at a fixed (model, c): from the second query on, the
  // scan warm-starts at the cached m* of the previous grid point.  CTS
  // monotonicity in b makes that bit-identical to a cold scan.
  const cf::ModelSpec model = cf::make_za(0.9);
  ca::CacCache warm;
  for (const double buffer :
       {500.0, 1000.0, 2000.0, 4035.0, 8000.0, 16000.0, 32000.0}) {
    ca::CacProblem p = paper_problem();
    p.buffer_cells = buffer;
    const double warmed = warm.log10_bop(model, p, 20);
    ca::CacCache cold;
    EXPECT_EQ(warmed, cold.log10_bop(model, p, 20)) << "buffer=" << buffer;
  }
  const ca::CacCache::Stats stats = warm.stats();
  EXPECT_EQ(stats.rate_misses, 7u);
  EXPECT_GE(stats.warm_starts, 1u);
  EXPECT_EQ(stats.rate_entries, 7u);
}

TEST(CacCache, WarmStartedScansAreBitIdenticalAcrossSimdKinds) {
  // The daemon's cached scans run through the dispatched kernels; answers
  // must not depend on the host's instruction set (or on the CTS_SIMD
  // override a worker happens to run with).
  namespace cds = cts::core::simd;
  struct Guard {
    ~Guard() { cds::clear_force(); }
  } guard;
  const cf::ModelSpec model = cf::make_za(0.9);
  std::vector<double> reference;
  cds::force(cds::Kind::kScalar);
  {
    ca::CacCache cache;
    for (const double buffer : {500.0, 2000.0, 8000.0, 32000.0}) {
      ca::CacProblem p = paper_problem();
      p.buffer_cells = buffer;
      reference.push_back(cache.log10_bop(model, p, 20));
    }
  }
  cds::force(cds::best_supported());
  ca::CacCache cache;
  std::size_t i = 0;
  for (const double buffer : {500.0, 2000.0, 8000.0, 32000.0}) {
    ca::CacProblem p = paper_problem();
    p.buffer_cells = buffer;
    EXPECT_EQ(cache.log10_bop(model, p, 20), reference[i++])
        << "buffer=" << buffer;
  }
}

TEST(CacCache, AdmissibleBrMatchesDirectCallAndReusesFinalBop) {
  for (const cf::ModelSpec& model :
       {cf::make_za(0.9), cf::make_dar_matched_to_za(0.9, 1),
        cf::make_ar1(0.8)}) {
    ca::CacCache cache;
    const ca::CacResult cached = cache.admissible_br(model, paper_problem());
    const ca::CacResult direct =
        ca::admissible_connections_br(model, paper_problem());
    EXPECT_EQ(cached.admissible, direct.admissible) << model.name;
    EXPECT_EQ(cached.log10_bop_at_max, direct.log10_bop_at_max) << model.name;

    // The binary search's probes all hit distinct (c, b) points; only the
    // final BOP report re-reads one -- exactly one guaranteed cache hit,
    // never a re-scan.
    const ca::CacCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.rate_hits, 1u) << model.name;
    EXPECT_GE(stats.rate_misses, 1u) << model.name;
  }
}

TEST(CacCache, AdmissibleEbMatchesDirectCallAndMemoizesVarianceRate) {
  const cf::ModelSpec model = cf::make_dar_matched_to_za(0.9, 1);
  ca::CacCache cache;
  const ca::CacResult first = cache.admissible_eb(model, paper_problem());
  const ca::CacResult direct =
      ca::admissible_connections_eb(model, paper_problem());
  EXPECT_EQ(first.admissible, direct.admissible);
  EXPECT_EQ(first.log10_bop_at_max, direct.log10_bop_at_max);
  ca::CacCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.eb_misses, 1u);
  EXPECT_EQ(stats.eb_hits, 0u);

  const ca::CacResult second = cache.admissible_eb(model, paper_problem());
  EXPECT_EQ(second.admissible, first.admissible);
  EXPECT_EQ(second.log10_bop_at_max, first.log10_bop_at_max);
  stats = cache.stats();
  EXPECT_EQ(stats.eb_misses, 1u);  // the summation ran once
  EXPECT_EQ(stats.eb_hits, 1u);
}

TEST(CacCache, CachedLrdFailureRethrowsTheSameError) {
  // An LRD model has no finite variance rate; the failure itself is
  // memoized, so a re-query throws immediately with the identical message
  // instead of re-running the divergent summation.
  const cf::ModelSpec model = cf::make_l();
  ca::CacCache cache;
  std::string first_error;
  try {
    cache.admissible_eb(model, paper_problem());
    FAIL() << "expected NumericalError";
  } catch (const cu::NumericalError& e) {
    first_error = e.what();
  }
  EXPECT_FALSE(first_error.empty());
  try {
    cache.admissible_eb(model, paper_problem());
    FAIL() << "expected NumericalError";
  } catch (const cu::NumericalError& e) {
    EXPECT_EQ(std::string(e.what()), first_error);
  }
  const ca::CacCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.eb_misses, 1u);
  EXPECT_EQ(stats.eb_hits, 1u);
}

TEST(CacCache, InterpolationBracketsCachedGridPoints) {
  const cf::ModelSpec model = cf::make_za(0.9);
  ca::CacProblem below = paper_problem();
  below.buffer_cells = 2000.0;
  ca::CacProblem above = paper_problem();
  above.buffer_cells = 4000.0;
  ca::CacCache cache;
  const double y0 = cache.log10_bop(model, below, 20);
  const double y1 = cache.log10_bop(model, above, 20);
  ASSERT_LT(y1, y0);  // BOP improves with buffer

  // Mid-grid probe with interpolation allowed: served from the bracket,
  // no new scan, and the value sits between the bracket's endpoints.
  ca::CacProblem mid = paper_problem();
  mid.buffer_cells = 3000.0;
  const double interpolated = cache.log10_bop_interpolated(model, mid, 20);
  EXPECT_LE(interpolated, y0);
  EXPECT_GE(interpolated, y1);
  ca::CacCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.interpolations, 1u);
  EXPECT_EQ(stats.rate_misses, 2u);   // only the two priming scans
  EXPECT_EQ(stats.rate_entries, 2u);  // the probe cached nothing

  // An exactly-cached point is served exactly, never interpolated.
  const double exact = cache.log10_bop_interpolated(model, below, 20);
  EXPECT_EQ(exact, y0);
  stats = cache.stats();
  EXPECT_EQ(stats.interpolations, 1u);
  EXPECT_EQ(stats.rate_hits, 1u);
}

TEST(CacCache, InterpolationFallsBackToExactWithoutABracket) {
  const cf::ModelSpec model = cf::make_za(0.9);
  ca::CacCache cache;
  const double value = cache.log10_bop_interpolated(model, paper_problem(), 20);
  ca::CacCache no_interp;
  EXPECT_EQ(value, no_interp.log10_bop(model, paper_problem(), 20));
  const ca::CacCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.interpolations, 0u);
  EXPECT_EQ(stats.rate_misses, 1u);  // the fallback scan, now cached
  EXPECT_EQ(stats.rate_entries, 1u);
}

TEST(CacCache, ClearDropsEntriesAndKeepsMonotoneCounters) {
  const cf::ModelSpec model = cf::make_za(0.9);
  ca::CacCache cache;
  (void)cache.log10_bop(model, paper_problem(), 20);
  EXPECT_EQ(cache.stats().rate_entries, 1u);
  const std::uint64_t lags = cache.stats().table_lags;
  EXPECT_GE(lags, 512u);  // the minimum scan horizon
  EXPECT_EQ(cache.stats().table_extensions, 1u);
  cache.clear();
  ca::CacCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.rate_entries, 0u);
  EXPECT_EQ(stats.table_lags, 0u);   // the V(m) table went too
  EXPECT_EQ(stats.rate_misses, 1u);  // history survives the flush
  EXPECT_EQ(stats.table_extensions, 1u);
  (void)cache.log10_bop(model, paper_problem(), 20);
  stats = cache.stats();
  EXPECT_EQ(stats.rate_misses, 2u);  // cleared means re-scan, not hit
  EXPECT_EQ(stats.rate_hits, 0u);
  EXPECT_EQ(stats.table_lags, lags);  // rebuilt from scratch
  EXPECT_EQ(stats.table_extensions, 2u);
}

TEST(CacCache, SharedTableIsBitIdenticalInAnyQueryOrder) {
  // One V(m) table per model serves every (c, b).  Whether the table is
  // grown step by step (short -> long horizons), built once up front
  // (long -> short) or grown in a shuffled order across capacities, every
  // answer equals the uncached computation bit for bit.  Two models ride
  // in the stream: each keeps a table of its own.
  const cf::ModelSpec za = cf::make_za(0.9);
  const cf::ModelSpec dar = cf::make_dar_matched_to_za(0.9, 1);
  std::vector<Query> stream;
  for (const double capacity : {16140.0, 12000.0, 20000.0}) {
    for (const double buffer : {500.0, 4035.0, 16000.0}) {
      stream.push_back({&za, link(capacity, buffer), 0});
      stream.push_back({&za, link(capacity, buffer), 20});
      stream.push_back({&dar, link(capacity, buffer), 20});
    }
  }
  std::vector<std::uint64_t> lags;
  std::vector<double> expected;
  std::uint64_t za_lags = 0;
  std::uint64_t dar_lags = 0;
  for (const Query& q : stream) {
    lags.push_back(lags_needed(q));
    expected.push_back(run_fresh(q));
    std::uint64_t& model_lags = q.model == &za ? za_lags : dar_lags;
    model_lags = std::max(model_lags, lags.back());
  }

  std::vector<std::size_t> ascending(stream.size());
  for (std::size_t i = 0; i < ascending.size(); ++i) ascending[i] = i;
  std::stable_sort(ascending.begin(), ascending.end(),
                   [&](std::size_t a, std::size_t b) {
                     return lags[a] < lags[b];
                   });
  const std::vector<std::size_t> descending(ascending.rbegin(),
                                            ascending.rend());
  std::vector<std::size_t> shuffled = ascending;
  cu::Xoshiro256pp rng(2026);
  for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
    std::swap(shuffled[i], shuffled[rng() % (i + 1)]);
  }

  for (const auto& [label, order] :
       {std::make_pair("short->long", ascending),
        std::make_pair("long->short", descending),
        std::make_pair("shuffled", shuffled)}) {
    ca::CacCache cache;
    const bool longest_first = std::string(label) == "long->short";
    std::vector<const cf::ModelSpec*> seen;
    for (const std::size_t i : order) {
      const std::uint64_t before = cache.stats().table_extensions;
      EXPECT_EQ(run(cache, stream[i]), expected[i])
          << label << " query " << i;
      const bool first_of_model =
          std::find(seen.begin(), seen.end(), stream[i].model) == seen.end();
      if (first_of_model) seen.push_back(stream[i].model);
      if (longest_first && !first_of_model) {
        // Built once: after its longest query, no miss grows a table.
        EXPECT_EQ(cache.stats().table_extensions, before) << "query " << i;
      }
    }
    const ca::CacCache::Stats stats = cache.stats();
    // Each table ends at the longest horizon any query of its model
    // needed, whatever the order, and only misses grew it.
    EXPECT_EQ(stats.table_lags, za_lags + dar_lags) << label;
    EXPECT_GE(stats.table_extensions, 2u) << label;
    EXPECT_LE(stats.table_extensions, stats.rate_misses) << label;
  }
}

TEST(CacCache, ConcurrentQueriesShareOneTableBitIdentically) {
  // Eight threads, distinct capacities, one model: scans serialise on the
  // model's table lock while hits and inserts go through the cache lock.
  const cf::ModelSpec model = cf::make_za(0.9);
  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<Query>> work(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    const double capacity = 12000.0 + 1000.0 * static_cast<double>(t);
    for (const double buffer : {4035.0, 500.0, 16000.0}) {
      work[t].push_back({&model, link(capacity, buffer), 0});
      work[t].push_back({&model, link(capacity, buffer), 18});
    }
  }
  ca::CacCache cache;
  std::vector<std::vector<double>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const Query& q : work[t]) got[t].push_back(run(cache, q));
    });
  }
  for (std::thread& thread : threads) thread.join();

  ca::CacCache sequential;
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), work[t].size());
    for (std::size_t i = 0; i < work[t].size(); ++i) {
      EXPECT_EQ(got[t][i], run_fresh(work[t][i]))
          << "thread " << t << " query " << i;
      (void)run(sequential, work[t][i]);
    }
  }
  // The table's final size depends only on the set of scanned points.
  EXPECT_EQ(cache.stats().table_lags, sequential.stats().table_lags);
  EXPECT_EQ(cache.stats().rate_entries, sequential.stats().rate_entries);
}
