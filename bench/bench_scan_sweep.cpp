// Analytic hot-path bench: dense Bahadur-Rao buffer sweeps through the
// CTS scan, cold-scalar vs warm-started-scalar vs warm-started-dispatched
// (the SIMD kernel the host actually selects, or the CTS_SIMD override).
//
// Three passes answer the same buffer grid per model and must agree
// bit-for-bit -- the warm-start hint can never skip the minimiser (m*_b is
// non-decreasing in b) and the dispatched kernels are byte-identical to
// the scalar reference by contract (core/simd.hpp).  The bench enforces
// both identities and exits non-zero on any divergence, so the committed
// BENCH_*.json baselines track a speedup that is provably a pure
// optimisation.  The --csv mirror carries values only (no timings): the
// forced-tier CI leg re-runs it under CTS_SIMD=scalar and CTS_SIMD=sse2 and
// diffs each file with the dispatched one byte-for-byte.

#include <cstdio>

#include "bench_common.hpp"
#include "cts/core/br_asymptotic.hpp"
#include "cts/core/rate_function.hpp"
#include "cts/core/simd.hpp"
#include "cts/obs/metrics.hpp"
#include "cts/util/clock.hpp"

namespace cc = cts::core;
namespace cds = cts::core::simd;
namespace cu = cts::util;
namespace obs = cts::obs;

namespace {

struct SweepResult {
  std::vector<std::size_t> critical_m;
  std::vector<double> log10_bop;
  std::vector<double> rate;
  double seconds = 0.0;
};

enum class Pass { kCold, kWarm };

/// `sweeps` repeats of one full grid sweep; per-point results are recorded
/// on the first repeat only (later repeats are timing ballast).
SweepResult run_pass(const cc::RateFunction& rate,
                     const std::vector<double>& buffers_per_source,
                     std::size_t n_sources, Pass pass, long long sweeps) {
  SweepResult out;
  out.critical_m.reserve(buffers_per_source.size());
  out.log10_bop.reserve(buffers_per_source.size());
  out.rate.reserve(buffers_per_source.size());
  const double start = cu::monotonic_s();
  for (long long sweep = 0; sweep < sweeps; ++sweep) {
    std::size_t hint = 1;
    for (std::size_t i = 0; i < buffers_per_source.size(); ++i) {
      const cc::BopPoint point =
          pass == Pass::kCold
              ? cc::br_log10_bop(rate, buffers_per_source[i], n_sources)
              : cc::br_log10_bop(rate, buffers_per_source[i], n_sources,
                                 hint);
      hint = point.critical_m;
      if (sweep == 0) {
        out.critical_m.push_back(point.critical_m);
        out.log10_bop.push_back(point.log10_bop);
        out.rate.push_back(point.rate);
      }
    }
  }
  out.seconds = cu::monotonic_s() - start;
  return out;
}

bool identical(const SweepResult& reference, const SweepResult& candidate,
               const std::string& model, const char* what) {
  for (std::size_t i = 0; i < reference.critical_m.size(); ++i) {
    if (candidate.critical_m[i] != reference.critical_m[i] ||
        candidate.log10_bop[i] != reference.log10_bop[i] ||
        candidate.rate[i] != reference.rate[i]) {
      std::fprintf(stderr,
                   "scan_sweep: %s pass diverged from the cold scalar scan "
                   "(model %s, grid point %zu)\n",
                   what, model.c_str(), i);
      return false;
    }
  }
  return true;
}

/// Shortest-exact double formatting for the CSV mirror: byte-stable across
/// runs and SIMD kinds, diffable with cmp(1).
std::string g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::string(buf);
}

}  // namespace

int main(int argc, char** argv) {
  const cu::Flags flags(argc, argv);
  const bench::ObsGuard guard(flags, bench::spec("scan_sweep"),
                              {"points", "sweeps"});
  bench::banner(
      "Scan sweep: warm-started, SIMD-dispatched CTS scans (Bahadur-Rao)");
  cu::CsvWriter csv({"model", "buffer_ms", "critical_m", "log10_bop", "rate"});

  const long long points = flags.get_int("points", 1500);
  const long long sweeps = flags.get_int("sweeps", 8);
  const cts::sim::MuxGeometry geometry = bench::paper_mux_30();
  const std::vector<double> grid_ms = cts::sim::buffer_grid_ms(
      0.5, 2000.0, static_cast<std::size_t>(points));
  std::vector<double> buffers(grid_ms.size());
  for (std::size_t i = 0; i < grid_ms.size(); ++i) {
    buffers[i] = geometry.buffer_ms_to_cells(grid_ms[i]) /
                 static_cast<double>(geometry.n_sources);
  }

  // The kernel the dispatcher would pick on its own (honours CTS_SIMD);
  // resolved before the scalar-forced passes below.
  const std::string dispatched = cds::kind_name(cds::active());
  struct ForceGuard {
    ~ForceGuard() { cds::clear_force(); }
  } force_guard;

  const std::vector<cts::fit::ModelSpec> models = {
      cts::fit::make_za(0.9),
      cts::fit::make_l(),
      cts::fit::make_ar1(0.975),
  };

  cu::TextTable table({"model", "points", "cold ms", "warm ms", "simd ms",
                       "warm x", "simd x", "total x"});
  double min_warm = 0.0;
  double min_total = 0.0;
  for (const cts::fit::ModelSpec& model : models) {
    const cc::RateFunction rate(model.acf, model.mean, model.variance,
                                geometry.bandwidth_per_source);
    // One untimed evaluation at the largest buffer grows the shared V(m)
    // table to its final extent, so every timed pass below measures pure
    // scan work on equal footing.
    (void)rate.evaluate(buffers.back());

    cds::force(cds::Kind::kScalar);
    const SweepResult cold =
        run_pass(rate, buffers, geometry.n_sources, Pass::kCold, sweeps);
    const SweepResult warm =
        run_pass(rate, buffers, geometry.n_sources, Pass::kWarm, sweeps);
    cds::clear_force();
    const SweepResult simd =
        run_pass(rate, buffers, geometry.n_sources, Pass::kWarm, sweeps);

    if (!identical(cold, warm, model.name, "warm-scalar") ||
        !identical(cold, simd, model.name, "warm-dispatched")) {
      return 1;
    }

    const double warm_x = cold.seconds / warm.seconds;
    const double simd_x = warm.seconds / simd.seconds;
    const double total_x = cold.seconds / simd.seconds;
    if (min_warm == 0.0 || warm_x < min_warm) min_warm = warm_x;
    if (min_total == 0.0 || total_x < min_total) min_total = total_x;
    table.add_row({model.name, cu::format_int(points),
                   cu::format_fixed(cold.seconds * 1e3, 1),
                   cu::format_fixed(warm.seconds * 1e3, 1),
                   cu::format_fixed(simd.seconds * 1e3, 1),
                   cu::format_fixed(warm_x, 2), cu::format_fixed(simd_x, 2),
                   cu::format_fixed(total_x, 2)});
    for (std::size_t i = 0; i < grid_ms.size(); ++i) {
      csv.add_row({model.name, g17(grid_ms[i]),
                   cu::format_int(static_cast<long long>(cold.critical_m[i])),
                   g17(cold.log10_bop[i]), g17(cold.rate[i])});
    }
    obs::MetricsRegistry::global().gauge("scan_sweep.warm_speedup." +
                                             model.name,
                                         warm_x);
    obs::MetricsRegistry::global().gauge("scan_sweep.simd_speedup." +
                                             model.name,
                                         simd_x);
    obs::MetricsRegistry::global().gauge("scan_sweep.total_speedup." +
                                             model.name,
                                         total_x);
  }
  obs::MetricsRegistry::global().gauge("scan_sweep.min_warm_speedup",
                                       min_warm);
  obs::MetricsRegistry::global().gauge("scan_sweep.min_total_speedup",
                                       min_total);
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "expected shape: all three passes bit-identical (enforced); the "
      "dispatched kernel (%s here)\nbuys >= 2x over the cold scalar sweep "
      "on AVX2 hosts (min total speedup this run: %.2fx).\n",
      dispatched.c_str(), min_total);
  bench::maybe_write_csv(flags, csv, "scan_sweep.csv");
  return 0;
}
