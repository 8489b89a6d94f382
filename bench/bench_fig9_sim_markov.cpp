// Figure 9: SIMULATED CLRs of Z^a, its matched DAR(p), and L (N = 30,
// c = 538) -- the simulation counterpart of Fig. 6: a well-designed Markov
// model predicts the loss of LRD traffic; the pure-LRD L does not.

#include <cstdio>

#include "bench_common.hpp"
#include "cts/fit/model_zoo.hpp"

namespace cf = cts::fit;
namespace cm = cts::sim;
namespace cu = cts::util;

int main(int argc, char** argv) {
  const cu::Flags flags(argc, argv);
  const bench::ObsGuard obs(flags, bench::spec("fig9_sim_markov"));
  bench::banner(
      "Figure 9: simulated CLRs -- Z^a vs matched DAR(p) vs L (N = 30, "
      "c = 538)");
  cu::CsvWriter csv({"panel", "buffer_ms", "model", "clr"});

  const cm::MuxGeometry g = bench::paper_mux_30();
  const cm::ReplicationConfig scale = bench::bench_scale();
  bench::scale_note(scale);
  const std::vector<double> grid = {1e-6, 2.0, 4.0, 8.0, 16.0, 30.0};

  bench::clr_panel("(a) Z^0.975 vs DAR(p) vs L",
                   {cf::make_za(0.975), cf::make_dar_matched_to_za(0.975, 1),
                    cf::make_dar_matched_to_za(0.975, 2),
                    cf::make_dar_matched_to_za(0.975, 3), cf::make_l()},
                   g, grid, scale, csv, "a");
  bench::clr_panel("(b) Z^0.7 vs DAR(p)",
                   {cf::make_za(0.7), cf::make_dar_matched_to_za(0.7, 1),
                    cf::make_dar_matched_to_za(0.7, 2),
                    cf::make_dar_matched_to_za(0.7, 3)},
                   g, grid, scale, csv, "b");

  std::printf(
      "expected shape: DAR(p) tracks Z within a fraction of a decade "
      "(closer as p grows); L overestimates the loss badly at small B.\n");

  if (!cts::util::env_flag("REPRO_FULL")) {
    std::printf(
        "\n-- CI validation panel: same comparison at c = 520 (resolvable "
        "at this scale) --\n\n");
    const cm::MuxGeometry gv = bench::validation_mux_30();
    const std::vector<double> vgrid = {1e-6, 2.0, 6.0, 12.0};
    bench::clr_panel(
        "(a') Z^0.975 vs DAR(p) vs L at c = 520",
        {cf::make_za(0.975), cf::make_dar_matched_to_za(0.975, 1),
         cf::make_dar_matched_to_za(0.975, 3), cf::make_l()},
        gv, vgrid, scale, csv, "a_ci");
  }
  bench::maybe_write_csv(flags, csv, "fig9.csv");
  return 0;
}
