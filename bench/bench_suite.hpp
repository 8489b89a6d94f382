// Registry of the figure/table/ablation/service benches: one BenchSpec per
// binary, shared by the bench mains themselves (which echo their spec into
// run/perf reports via ObsGuard) and by the tools that launch them
// (cts_benchd selects suites from it; cts_simd and cts_shardd resolve a
// job's bench id through it, so a client can never name an arbitrary path).
//
// Suites:
//   smoke    - fast subset (analytic + short simulations) for CI and the
//              committed BENCH_*.json perf baseline
//   sim      - every bench that runs the replicated fluid/cell simulators
//   analytic - closed-form benches only (no simulation)
//   full     - everything
//
// The micro benches (bench_micro_*) are Google-Benchmark binaries with
// their own repetition machinery and are deliberately not part of this
// registry.

#pragma once

#include <unistd.h>

#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "cts/util/error.hpp"
#include "cts/util/flags.hpp"

namespace bench {

struct BenchSpec {
  const char* id;      ///< run id, e.g. "fig8_sim_clr"
  const char* binary;  ///< executable name, e.g. "bench_fig8_sim_clr"
  const char* kind;    ///< "analytic" | "sim"
  bool smoke;          ///< member of the smoke suite
  const char* title;   ///< one-line description (from EXPERIMENTS.md)
};

inline constexpr BenchSpec kSuite[] = {
    {"table1", "bench_table1", "analytic", true,
     "Table 1: fitted model parameters"},
    {"fig1_acf_concept", "bench_fig1_acf_concept", "analytic", false,
     "Figure 1: conceptual ACF knobs"},
    {"fig2_sample_paths", "bench_fig2_sample_paths", "sim", true,
     "Figure 2: generated sample paths"},
    {"fig3_acf", "bench_fig3_acf", "analytic", false,
     "Figure 3: analytic ACFs of the fitted models"},
    {"fig4_cts", "bench_fig4_cts", "analytic", false,
     "Figure 4: critical time scale (N=100, c=526)"},
    {"fig5_bop", "bench_fig5_bop", "analytic", true,
     "Figure 5: Bahadur-Rao BOPs of V^v and Z^a"},
    {"fig6_markov_efficacy", "bench_fig6_markov_efficacy", "analytic", false,
     "Figure 6: Markov efficacy (analytic)"},
    {"fig7_wide_range", "bench_fig7_wide_range", "sim", true,
     "Figure 7: BOPs over a wide buffer range"},
    {"fig8_sim_clr", "bench_fig8_sim_clr", "sim", false,
     "Figure 8: simulated CLRs of V^v and Z^a"},
    {"fig9_sim_markov", "bench_fig9_sim_markov", "sim", true,
     "Figure 9: simulated CLRs, Markov efficacy"},
    {"fig10_asymptotics", "bench_fig10_asymptotics", "analytic", false,
     "Figure 10: asymptotics vs simulation curves"},
    {"ablation_marginal", "bench_ablation_marginal", "analytic", false,
     "Ablation: marginal distribution choice"},
    {"ablation_cts_scan", "bench_ablation_cts_scan", "analytic", false,
     "Ablation: CTS scan over utilisation"},
    {"ablation_granularity", "bench_ablation_granularity", "sim", false,
     "Ablation: cell-level vs fluid granularity"},
    {"ablation_lrd_models", "bench_ablation_lrd_models", "analytic", false,
     "Ablation: LRD model family comparison"},
    {"ablation_cutoff", "bench_ablation_cutoff", "sim", false,
     "Ablation: correlation cutoff sensitivity"},
    {"cacd", "bench_cacd", "analytic", true,
     "Admission service: CAC query throughput, cold vs warm cache"},
    {"scan_sweep", "bench_scan_sweep", "analytic", true,
     "Scan sweep: warm-started, SIMD-dispatched CTS scans"},
};

inline constexpr std::size_t kSuiteSize = sizeof(kSuite) / sizeof(kSuite[0]);

/// Looks a bench up by id; throws util::InvalidArgument for an unknown id
/// so a renamed bench fails loudly at startup, not silently at report time.
inline const BenchSpec& spec(const std::string& id) {
  for (const BenchSpec& s : kSuite) {
    if (id == s.id) return s;
  }
  throw cts::util::InvalidArgument("bench_suite: unknown bench id '" + id +
                                   "'");
}

/// Where the tools find bench binaries: --bench-dir, else CTS_BENCH_DIR,
/// else bench/ beside the directory of the tool's own `argv0`.
inline std::string bench_dir(const cts::util::Flags& flags,
                             const char* argv0) {
  const std::string dir = flags.get_string("bench-dir", "");
  if (!dir.empty()) return dir;
  const char* env = std::getenv("CTS_BENCH_DIR");
  if (env != nullptr && env[0] != '\0') return env;
  return (std::filesystem::path(argv0).parent_path() / ".." / "bench")
      .string();
}

/// The executable of registered bench `id` under `dir`; throws
/// InvalidArgument for an unknown id or a binary that is not executable.
inline std::string bench_binary(const std::string& dir,
                                const std::string& id) {
  const std::string path =
      (std::filesystem::path(dir) / spec(id).binary).string();
  cts::util::require(::access(path.c_str(), X_OK) == 0,
                     "bench binary " + path + " is not executable");
  return path;
}

}  // namespace bench
