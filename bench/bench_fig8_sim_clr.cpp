// Figure 8: SIMULATED cell loss rates (finite buffer) of V^v and Z^a,
// N = 30, c = 538.  The simulation verifies Fig. 5's analytic prediction:
// short-term correlations dominate the CLR; long-term correlations barely
// move it.  Paper scale is 60 reps x 500k frames (REPRO_FULL=1); the bench
// default is reduced for runtime.

#include <cstdio>

#include "bench_common.hpp"
#include "cts/fit/model_zoo.hpp"

namespace cf = cts::fit;
namespace cm = cts::sim;
namespace cu = cts::util;

int main(int argc, char** argv) {
  const cu::Flags flags(argc, argv);
  const bench::ObsGuard obs(flags, bench::spec("fig8_sim_clr"));
  bench::banner(
      "Figure 8: simulated CLRs of V^v and Z^a (N = 30, c = 538)");
  cu::CsvWriter csv({"panel", "buffer_ms", "model", "clr"});

  const cm::MuxGeometry g = bench::paper_mux_30();
  const cm::ReplicationConfig scale = bench::bench_scale();
  bench::scale_note(scale);
  const std::vector<double> grid = {1e-6, 2.0, 4.0, 8.0, 16.0, 30.0};

  // The V^v family's ON/OFF transition rate grows steeply with v (A ~
  // R^{-10} at alpha = 0.9): V^1.5 costs ~47x a Z source per frame (111
  // vs 2.4 us on a 4-vCPU Xeon).  The default scale for panel (a) is
  // therefore reduced; REPRO_FULL removes the reduction along with
  // everything else.
  cm::ReplicationConfig v_scale = scale;
  if (!cts::util::env_flag("REPRO_FULL")) {
    v_scale.replications = std::min<std::size_t>(v_scale.replications, 2);
    v_scale.frames_per_replication =
        std::min<std::uint64_t>(v_scale.frames_per_replication, 5000);
  }
  bench::clr_panel("(a) V^v",
                   {cf::make_vv(0.67), cf::make_vv(1.0), cf::make_vv(1.5)},
                   g, grid, v_scale, csv, "a");
  bench::clr_panel("(b) Z^a",
                   {cf::make_za(0.7), cf::make_za(0.9), cf::make_za(0.975),
                    cf::make_za(0.99)},
                   g, grid, scale, csv, "b");

  std::printf(
      "expected shape: all curves start near log10 ~ -5 at B = 0 (identical "
      "marginals);\n(a) stays bundled, (b) fans out by orders of "
      "magnitude.\n");

  if (!cts::util::env_flag("REPRO_FULL")) {
    // At CI scale the buffered CLRs at c = 538 sit below the measurement
    // floor; rerun the Z panel at reduced utilisation where every point
    // resolves (Section 5.5: other N, c choices are qualitatively
    // identical).
    std::printf(
        "\n-- CI validation panel: same experiment at c = 520 (resolvable "
        "at this scale) --\n\n");
    const cm::MuxGeometry gv = bench::validation_mux_30();
    const std::vector<double> vgrid = {1e-6, 2.0, 6.0, 12.0, 20.0};
    bench::clr_panel("(a') V^v at c = 520",
                     {cf::make_vv(0.67), cf::make_vv(1.0)}, gv, vgrid,
                     v_scale, csv, "a_ci");
    bench::clr_panel("(b') Z^a at c = 520",
                     {cf::make_za(0.7), cf::make_za(0.9), cf::make_za(0.975),
                      cf::make_za(0.99)},
                     gv, vgrid, scale, csv, "b_ci");
  }
  bench::maybe_write_csv(flags, csv, "fig8.csv");
  return 0;
}
