// Service bench: sustained CAC queries/sec through the admission cache
// (tools/cts_cacd's analytic core), cold versus warm.
//
// The paper's engineering claim is that the CTS analysis makes one
// admission decision cheap enough to run per offered VC.  This bench
// quantifies "cheap" for the serving path: a cold pass answers a buffer
// sweep of admit_br batches on an empty atm::CacCache (every probe runs a
// real CTS scan, later probes warm-starting from cached neighbours), then
// warm passes replay the identical workload against the populated cache
// (pure memo lookups + the closed-form Bahadur-Rao step).  The warm/cold
// throughput ratio is the service's cache win; the committed BENCH_*.json
// baselines track both via cts_benchd.

#include <cstdio>

#include "bench_common.hpp"
#include "cts/atm/cac_cache.hpp"
#include "cts/obs/metrics.hpp"
#include "cts/util/clock.hpp"

namespace atm = cts::atm;
namespace cu = cts::util;
namespace obs = cts::obs;

namespace {

/// One admission workload: the paper's link (Section 5.4) swept across a
/// buffer grid, per model.
std::vector<atm::CacProblem> workload() {
  std::vector<atm::CacProblem> problems;
  for (const double buffer : {500.0, 1000.0, 2000.0, 4035.0, 8000.0,
                              16000.0, 32000.0}) {
    atm::CacProblem p;
    p.capacity_cells_per_frame = 16140.0;
    p.buffer_cells = buffer;
    p.log10_target_clr = -6.0;
    problems.push_back(p);
  }
  return problems;
}

}  // namespace

int main(int argc, char** argv) {
  const cu::Flags flags(argc, argv);
  const bench::ObsGuard guard(flags, bench::spec("cacd"), {"warm-reps"});
  bench::banner("Admission service: CAC throughput, cold vs warm cache");
  // The CSV holds only what the run computes: the wall-clock throughputs
  // and their ratio vary run to run, so they stay in the stdout table and
  // the metrics gauges, and the CSV compares byte for byte across runs.
  cu::CsvWriter csv({"model", "queries", "warm_starts", "cache_entries"});

  // Warm replays per model: enough that the per-query cost dominates the
  // timer, small enough for the smoke suite.
  const long long warm_reps = flags.get_int("warm-reps", 200);

  const std::vector<cts::fit::ModelSpec> models = {
      cts::fit::make_za(0.9),
      cts::fit::make_dar_matched_to_za(0.9, 1),
      cts::fit::make_ar1(0.8),
  };
  const std::vector<atm::CacProblem> problems = workload();

  cu::TextTable table({"model", "queries", "cold q/s", "warm q/s",
                       "speedup", "warm starts", "entries"});
  double min_speedup = 0.0;
  for (const cts::fit::ModelSpec& model : models) {
    atm::CacCache cache;

    const double cold_start = cu::monotonic_s();
    for (const atm::CacProblem& p : problems) {
      (void)cache.admissible_br(model, p);
    }
    const double cold_s = cu::monotonic_s() - cold_start;
    const double cold_qps = static_cast<double>(problems.size()) / cold_s;

    const double warm_start = cu::monotonic_s();
    for (long long rep = 0; rep < warm_reps; ++rep) {
      for (const atm::CacProblem& p : problems) {
        (void)cache.admissible_br(model, p);
      }
    }
    const double warm_s = cu::monotonic_s() - warm_start;
    const double warm_qps =
        static_cast<double>(problems.size()) *
        static_cast<double>(warm_reps) / warm_s;

    const double speedup = warm_qps / cold_qps;
    if (min_speedup == 0.0 || speedup < min_speedup) min_speedup = speedup;
    const atm::CacCache::Stats stats = cache.stats();
    table.add_row({model.name, cu::format_int(static_cast<long long>(
                                   problems.size())),
                   cu::format_fixed(cold_qps, 1), cu::format_fixed(warm_qps, 0),
                   cu::format_fixed(speedup, 1),
                   cu::format_int(static_cast<long long>(stats.warm_starts)),
                   cu::format_int(static_cast<long long>(
                       stats.rate_entries))});
    csv.add_row({model.name,
                 cu::format_int(static_cast<long long>(problems.size())),
                 cu::format_int(static_cast<long long>(stats.warm_starts)),
                 cu::format_int(static_cast<long long>(stats.rate_entries))});

    obs::MetricsRegistry::global().gauge("cacd.cold_qps." + model.name,
                                         cold_qps);
    obs::MetricsRegistry::global().gauge("cacd.warm_qps." + model.name,
                                         warm_qps);
  }
  obs::MetricsRegistry::global().gauge("cacd.min_speedup", min_speedup);
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "expected shape: warm-cache throughput >= 10x cold — the memoized "
      "rate points turn a CTS scan\ninto a map lookup plus the closed-form "
      "Bahadur-Rao step (min speedup this run: %.1fx).\n",
      min_speedup);
  bench::maybe_write_csv(flags, csv, "cacd.csv");
  return 0;
}
