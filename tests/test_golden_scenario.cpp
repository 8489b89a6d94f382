// Golden check of a full cts.scenario.v1 run.
//
// tests/golden/scenario_policed_smoothed.json is the cts.scenarioresult.v1
// document `cts_scenariod run examples/scenarios/policed_smoothed.scn`
// wrote: eight Z^0.9 sources through smoothing, AAL5 and a dual-leaky-
// bucket GCRA into one mux.  The policer, the smoother and the mux tallies
// are exact cell arithmetic, so the document must match byte for byte,
// with no ulp slack.  Regenerate on purpose only (tests/golden/README.md).
// The same run checks that the GCRA policer keeps covering these cells
// with closed-form runs (atm.gcra.stepped_cells).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "cts/obs/metrics.hpp"
#include "cts/sim/scenario.hpp"
#include "cts/sim/scenario_run.hpp"
#include "cts/util/file.hpp"

namespace obs = cts::obs;
namespace sim = cts::sim;
namespace cu = cts::util;

TEST(GoldenScenario, PolicedSmoothedMatchesCommittedDocument) {
  const sim::Scenario sc = sim::parse_scenario(cu::read_text_file(
      std::string(CTS_SCENARIO_DIR) + "/policed_smoothed.scn"));
  sim::ScenarioRunOptions options;
  options.progress = false;
  const std::string now =
      sim::write_scenario_result_json(sc, sim::run_scenario(sc, options));
  const std::string golden = cu::read_text_file(
      std::string(CTS_GOLDEN_DIR) + "/scenario_policed_smoothed.json");
  EXPECT_EQ(now, golden);

  // The policer resolves all but a sliver of these cells in closed-form
  // runs; a per-cell share above 1% means the input mix defeats them.
  const obs::MetricsShard snap = obs::MetricsRegistry::global().snapshot();
  const std::uint64_t cells = snap.counters().at("atm.gcra.cells");
  const std::uint64_t stepped = snap.counters().at("atm.gcra.stepped_cells");
  EXPECT_GT(cells, 0u);
  EXPECT_LT(static_cast<double>(stepped), 0.01 * static_cast<double>(cells))
      << stepped << " of " << cells << " cells took a per-cell step";
}
