// Scenario spec parser (cts/sim/scenario.hpp): the strict cts.scenario.v1
// grammar.  Accept cases pin defaults and topology resolution; the
// rejection suite asserts that every violation class throws
// util::InvalidArgument naming the line number and the offending key or
// name -- the error contract docs/scenarios.md promises.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cts/sim/scenario.hpp"
#include "cts/util/error.hpp"

namespace sim = cts::sim;
namespace cu = cts::util;

namespace {

/// Asserts parse_scenario(text) throws InvalidArgument whose message
/// contains every needle (typically "line N" plus the key).
void expect_rejected(const std::string& text,
                     const std::vector<std::string>& needles) {
  try {
    sim::parse_scenario(text);
    FAIL() << "spec was accepted:\n" << text;
  } catch (const cu::InvalidArgument& e) {
    const std::string what = e.what();
    for (const std::string& needle : needles) {
      EXPECT_NE(what.find(needle), std::string::npos)
          << "error message missing '" << needle << "': " << what;
    }
  }
}

const char* kMinimal =
    "cts.scenario.v1\n"
    "[source s]\n"
    "model = white\n"
    "[hop m]\n"
    "input = s\n"
    "capacity = 600\n"
    "buffer = 100\n";

TEST(ScenarioSpec, MinimalSpecParsesWithDefaults) {
  const sim::Scenario sc = sim::parse_scenario(kMinimal);
  EXPECT_EQ(sc.name, "scenario");
  EXPECT_EQ(sc.frames, 20000u);
  EXPECT_EQ(sc.warmup, 1000u);
  EXPECT_EQ(sc.replications, 4u);
  EXPECT_EQ(sc.seed, 0x5EEDC0DEULL);
  EXPECT_DOUBLE_EQ(sc.Ts, 0.04);
  EXPECT_EQ(sc.occupancy_buckets, 16u);
  EXPECT_EQ(sc.hop_trace_every, 0u);
  ASSERT_EQ(sc.sources.size(), 1u);
  EXPECT_EQ(sc.sources[0].count, 1u);
  EXPECT_FALSE(sc.sources[0].low_priority);
  ASSERT_EQ(sc.hops.size(), 1u);
  EXPECT_FALSE(sc.hops[0].priority());
  ASSERT_EQ(sc.hop_order.size(), 1u);
  EXPECT_EQ(sc.text, kMinimal);
}

TEST(ScenarioSpec, TandemTopologyResolvesUpstreamFirst) {
  const sim::Scenario sc = sim::parse_scenario(
      "cts.scenario.v1\n"
      "[source a]\n"
      "model = white\n"
      "[source b]\n"
      "model = white\n"
      "[hop core]\n"        // declared downstream-first on purpose
      "input = edge, b\n"
      "capacity = 1200\n"
      "buffer = 200\n"
      "[hop edge]\n"
      "input = a\n"
      "capacity = 600\n"
      "buffer = 100\n");
  ASSERT_EQ(sc.hops.size(), 2u);
  ASSERT_EQ(sc.hop_order.size(), 2u);
  // hops[0] = core, hops[1] = edge; edge must be processed first.
  EXPECT_EQ(sc.hops[sc.hop_order[0]].name, "edge");
  EXPECT_EQ(sc.hops[sc.hop_order[1]].name, "core");
  EXPECT_EQ(sc.hops[0].hop_inputs, std::vector<std::size_t>{1});
  EXPECT_EQ(sc.hops[0].source_inputs, std::vector<std::size_t>{1});
}

// Regression: an inline-model source consumed alongside an upstream hop
// in a later hop's input list used to die with std::bad_alloc -- the
// "source already consumed" error string was built eagerly, indexing
// hops[size_t(-1)] on the SUCCESS path.  The spec is valid and must
// parse.
TEST(ScenarioSpec, InlineSourceFeedingSecondTandemHopParses) {
  const sim::Scenario sc = sim::parse_scenario(
      "cts.scenario.v1\n"
      "[scenario]\n"
      "name = smoke_tandem\n"
      "frames = 2000\n"
      "warmup = 200\n"
      "replications = 4\n"
      "[source video]\n"
      "model = white\n"
      "count = 20\n"
      "[source bg]\n"
      "kind = geometric\n"
      "mean = 400\n"
      "variance = 4000\n"
      "a = 0.7\n"
      "count = 5\n"
      "[hop edge]\n"
      "input = video\n"
      "capacity = 11000\n"
      "buffer = 1200\n"
      "[hop core]\n"
      "input = edge, bg\n"
      "capacity = 13000\n"
      "buffer = 2000\n");
  ASSERT_EQ(sc.hop_order.size(), 2u);
  EXPECT_EQ(sc.hops[sc.hop_order[0]].name, "edge");
  EXPECT_EQ(sc.sources[1].model.kind, "geometric");
}

TEST(ScenarioSpec, LinkMbpsResolvesCapacityViaTs) {
  const sim::Scenario sc = sim::parse_scenario(
      "cts.scenario.v1\n"
      "[source s]\n"
      "model = white\n"
      "[hop m]\n"
      "input = s\n"
      "link_mbps = 155.52\n"
      "buffer = 100\n");
  // 155.52 Mb/s over a 40 ms frame, 424 bits/cell.
  EXPECT_NEAR(sc.hops[0].capacity_cells, 155.52e6 * 0.04 / 424.0, 1e-6);
}

TEST(ScenarioSpec, MissingSchemaLineRejected) {
  expect_rejected("[source s]\nmodel = white\n",
                  {"line 1", "cts.scenario.v1"});
}

TEST(ScenarioSpec, UnknownKeyNamesLineKeyAndSuggestion) {
  expect_rejected(
      "cts.scenario.v1\n"
      "[source s]\n"
      "model = white\n"
      "[hop m]\n"
      "input = s\n"
      "capacity = 600\n"
      "bufer = 100\n",
      {"line 7", "[hop m]", "'bufer'", "did you mean 'buffer'"});
}

TEST(ScenarioSpec, BadTypeNamesLineAndKey) {
  expect_rejected("cts.scenario.v1\n"
                  "[scenario]\n"
                  "frames = soon\n",
                  {"line 3", "'frames'", "'soon'"});
  expect_rejected("cts.scenario.v1\n"
                  "[scenario]\n"
                  "seed = -1\n",
                  {"line 3", "'seed'", "'-1'"});
  expect_rejected("cts.scenario.v1\n"
                  "[source s]\n"
                  "kind = geometric\n"
                  "mean = abc\n",
                  {"line 4", "'mean'", "'abc'"});
  expect_rejected("cts.scenario.v1\n"
                  "[source s]\n"
                  "model = white\n"
                  "aal5 = maybe\n",
                  {"line 4", "'aal5'", "'maybe'"});
}

TEST(ScenarioSpec, RejectsNonFiniteNumbers) {
  // strtod reads inf and nan, which pass every range check (inf > 0), so
  // each number key must reject them by name.
  struct Case {
    const char* section;  ///< section body before the bad key
    const char* key;
  };
  const Case cases[] = {
      {"[scenario]\n", "Ts"},
      {"[source s]\nkind = geometric\na = 0.5\n", "mean"},
      {"[source s]\nkind = geometric\na = 0.5\n", "variance"},
      {"[source s]\nkind = geometric\n", "a"},
      {"[source s]\nkind = lrd\nweight = 0.5\n", "hurst"},
      {"[source s]\nkind = lrd\nhurst = 0.9\n", "weight"},
      {"[source s]\nmodel = white\n", "police_scr"},
      {"[source s]\nmodel = white\npolice_scr = 100\n", "police_bt"},
      {"[source s]\nmodel = white\npolice_scr = 100\n", "police_pcr"},
      {"[source s]\nmodel = white\npolice_scr = 100\n", "police_cdvt"},
      {"[hop m]\ninput = s\n", "capacity"},
      {"[hop m]\ninput = s\n", "link_mbps"},
      {"[hop m]\ninput = s\ncapacity = 600\n", "buffer"},
      {"[hop m]\ninput = s\ncapacity = 600\nbuffer = 100\n", "threshold"},
  };
  for (const Case& c : cases) {
    std::string head = std::string("cts.scenario.v1\n") + c.section;
    const int line =
        static_cast<int>(std::count(head.begin(), head.end(), '\n')) + 1;
    for (const char* bad : {"inf", "-inf", "nan", "infinity"}) {
      SCOPED_TRACE(std::string(c.key) + " = " + bad);
      expect_rejected(head + c.key + " = " + bad + "\n",
                      {"line " + std::to_string(line),
                       "'" + std::string(c.key) + "'", "finite"});
    }
  }
}

TEST(ScenarioSpec, DuplicateKeyNamesBothLines) {
  expect_rejected(
      "cts.scenario.v1\n"
      "[source s]\n"
      "model = white\n"
      "count = 2\n"
      "count = 3\n",
      {"line 5", "duplicate key 'count'", "line 4"});
}

TEST(ScenarioSpec, DuplicateHopNameRejected) {
  expect_rejected(
      "cts.scenario.v1\n"
      "[source s]\n"
      "model = white\n"
      "[hop m]\n"
      "input = s\n"
      "capacity = 600\n"
      "buffer = 100\n"
      "[hop m]\n"
      "input = s\n"
      "capacity = 600\n"
      "buffer = 100\n",
      {"line 8", "duplicate name 'm'"});
}

TEST(ScenarioSpec, SourceHopNamespaceIsShared) {
  expect_rejected(
      "cts.scenario.v1\n"
      "[source m]\n"
      "model = white\n"
      "[hop m]\n"
      "input = m\n"
      "capacity = 600\n"
      "buffer = 100\n",
      {"line 4", "duplicate name 'm'"});
}

TEST(ScenarioSpec, UnknownInputNameRejected) {
  expect_rejected(
      "cts.scenario.v1\n"
      "[source s]\n"
      "model = white\n"
      "[hop m]\n"
      "input = s, ghost\n"
      "capacity = 600\n"
      "buffer = 100\n",
      {"line 4", "[hop m]", "'input'", "'ghost'"});
}

TEST(ScenarioSpec, UnconsumedSourceNamesItsSection) {
  expect_rejected(
      "cts.scenario.v1\n"
      "[source s]\n"
      "model = white\n"
      "[source orphan]\n"
      "model = white\n"
      "[hop m]\n"
      "input = s\n"
      "capacity = 600\n"
      "buffer = 100\n",
      {"line 4", "[source orphan]", "not consumed"});
}

TEST(ScenarioSpec, DoublyConsumedSourceNamesFirstConsumer) {
  // Also a regression companion to InlineSourceFeedingSecondTandemHopParses:
  // this is the path whose message indexes the prior consumer.
  expect_rejected(
      "cts.scenario.v1\n"
      "[source s]\n"
      "model = white\n"
      "[source t]\n"
      "model = white\n"
      "[hop first]\n"
      "input = s\n"
      "capacity = 600\n"
      "buffer = 100\n"
      "[hop second]\n"
      "input = s, t\n"
      "capacity = 600\n"
      "buffer = 100\n",
      {"line 10", "[hop second]", "source 's'", "already feeds hop 'first'"});
}

TEST(ScenarioSpec, DoublyConsumedHopNamesFirstConsumer) {
  expect_rejected(
      "cts.scenario.v1\n"
      "[source s]\n"
      "model = white\n"
      "[source t]\n"
      "model = white\n"
      "[source u]\n"
      "model = white\n"
      "[hop up]\n"
      "input = s\n"
      "capacity = 600\n"
      "buffer = 100\n"
      "[hop down1]\n"
      "input = up, t\n"
      "capacity = 600\n"
      "buffer = 100\n"
      "[hop down2]\n"
      "input = up, u\n"
      "capacity = 600\n"
      "buffer = 100\n",
      {"line 16", "[hop down2]", "hop 'up'", "already feeds hop 'down1'"});
}

TEST(ScenarioSpec, SelfLoopRejected) {
  expect_rejected(
      "cts.scenario.v1\n"
      "[source s]\n"
      "model = white\n"
      "[hop m]\n"
      "input = s, m\n"
      "capacity = 600\n"
      "buffer = 100\n",
      {"line 4", "[hop m]", "feeds itself"});
}

TEST(ScenarioSpec, TopologyCycleRejected) {
  expect_rejected(
      "cts.scenario.v1\n"
      "[source s]\n"
      "model = white\n"
      "[hop a]\n"
      "input = s, b\n"
      "capacity = 600\n"
      "buffer = 100\n"
      "[hop b]\n"
      "input = a\n"
      "capacity = 600\n"
      "buffer = 100\n",
      {"cycle", "'input'"});
}

TEST(ScenarioSpec, ModelAndInlineKindAreExclusive) {
  expect_rejected(
      "cts.scenario.v1\n"
      "[source s]\n"
      "model = white\n"
      "kind = geometric\n"
      "mean = 500\n"
      "variance = 5000\n"
      "a = 0.8\n"
      "[hop m]\n"
      "input = s\n"
      "capacity = 600\n"
      "buffer = 100\n",
      {"line 2", "[source s]", "'model'"});
}

TEST(ScenarioSpec, InlineKindConstraintChecks) {
  // geometric requires a; lrd rejects a; lrd requires hurst+weight.
  expect_rejected("cts.scenario.v1\n"
                  "[source s]\n"
                  "kind = geometric\n"
                  "mean = 500\n"
                  "variance = 5000\n"
                  "[hop m]\ninput = s\ncapacity = 600\nbuffer = 100\n",
                  {"[source s]", "'a'"});
  expect_rejected("cts.scenario.v1\n"
                  "[source s]\n"
                  "kind = lrd\n"
                  "mean = 500\n"
                  "variance = 5000\n"
                  "a = 0.5\n"
                  "hurst = 0.9\n"
                  "weight = 0.5\n"
                  "[hop m]\ninput = s\ncapacity = 600\nbuffer = 100\n",
                  {"[source s]", "'a'", "geometric"});
  expect_rejected("cts.scenario.v1\n"
                  "[source s]\n"
                  "kind = lrd\n"
                  "mean = 500\n"
                  "variance = 5000\n"
                  "[hop m]\ninput = s\ncapacity = 600\nbuffer = 100\n",
                  {"[source s]", "'hurst'", "'weight'"});
}

TEST(ScenarioSpec, CapacityAndLinkMbpsAreExclusive) {
  expect_rejected(
      "cts.scenario.v1\n"
      "[source s]\n"
      "model = white\n"
      "[hop m]\n"
      "input = s\n"
      "capacity = 600\n"
      "link_mbps = 155\n"
      "buffer = 100\n",
      {"line 4", "[hop m]", "'capacity'", "'link_mbps'"});
}

TEST(ScenarioSpec, ThresholdMustFitBuffer) {
  expect_rejected(
      "cts.scenario.v1\n"
      "[source s]\n"
      "model = white\n"
      "[hop m]\n"
      "input = s\n"
      "capacity = 600\n"
      "buffer = 100\n"
      "threshold = 200\n",
      {"line 4", "[hop m]", "'threshold'"});
}

TEST(ScenarioSpec, PolicingKeysRequireScr) {
  expect_rejected(
      "cts.scenario.v1\n"
      "[source s]\n"
      "model = white\n"
      "police_bt = 0.1\n"
      "[hop m]\ninput = s\ncapacity = 600\nbuffer = 100\n",
      {"[source s]", "'police_scr'"});
  expect_rejected(
      "cts.scenario.v1\n"
      "[source s]\n"
      "model = white\n"
      "police_scr = 10000\n"
      "police_pcr = 5000\n"
      "[hop m]\ninput = s\ncapacity = 600\nbuffer = 100\n",
      {"[source s]", "'police_pcr'"});
}

TEST(ScenarioSpec, UnknownSectionSuggestsNearMiss) {
  expect_rejected("cts.scenario.v1\n[sorce s]\nmodel = white\n",
                  {"line 2", "[sorce]", "did you mean [source]"});
}

TEST(ScenarioSpec, KeyBeforeAnySectionRejected) {
  expect_rejected("cts.scenario.v1\nframes = 100\n",
                  {"line 2", "'frames'", "before any section"});
}

TEST(ScenarioSpec, MissingSourcesOrHopsRejected) {
  expect_rejected("cts.scenario.v1\n[scenario]\nname = x\n",
                  {"no [source NAME]"});
  expect_rejected("cts.scenario.v1\n[source s]\nmodel = white\n",
                  {"no [hop NAME]"});
}

TEST(ScenarioSpec, HopRequiresInputAndBuffer) {
  expect_rejected("cts.scenario.v1\n"
                  "[source s]\nmodel = white\n"
                  "[hop m]\ncapacity = 600\nbuffer = 100\n",
                  {"line 4", "[hop m]", "'input'"});
  expect_rejected("cts.scenario.v1\n"
                  "[source s]\nmodel = white\n"
                  "[hop m]\ninput = s\ncapacity = 600\n",
                  {"line 4", "[hop m]", "'buffer'"});
}

}  // namespace
