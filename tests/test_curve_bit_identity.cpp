// Curve-level bit-identity for the warm-started, SIMD-dispatched analytic
// path: for every zoo model and fig operating point, the AnalyticCurve
// computed with warm-started scans under the best dispatch kind must be
// byte-identical to (a) per-point cold scans and (b) the forced-scalar
// path.  Plus a threads x shards matrix proving the batched Davies-Harte
// generation preserves the replication layout invariance.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cts/core/br_asymptotic.hpp"
#include "cts/core/large_n.hpp"
#include "cts/core/rate_function.hpp"
#include "cts/core/simd.hpp"
#include "cts/fit/model_zoo.hpp"
#include "cts/sim/curves.hpp"

namespace cc = cts::core;
namespace cf = cts::fit;
namespace cm = cts::sim;
namespace cs = cts::core::simd;

namespace {

struct ForceGuard {
  ~ForceGuard() { cs::clear_force(); }
};

const std::vector<std::string>& zoo_ids() {
  static const std::vector<std::string> ids = {
      "za:0.9",  "vv:1",       "l",          "white",
      "ar1:0.975", "dar:0.9:2", "farima:0.3", "mginf:1.4"};
  return ids;
}

std::vector<cm::MuxGeometry> fig_operating_points() {
  cm::MuxGeometry fig2;  // N = 30, c = 538 (Fig. 2/5 point)
  fig2.n_sources = 30;
  fig2.bandwidth_per_source = 538.0;
  cm::MuxGeometry fig9;  // N = 100, c = 526 (Fig. 9 point)
  fig9.n_sources = 100;
  fig9.bandwidth_per_source = 526.0;
  return {fig2, fig9};
}

/// Full-precision JSON serialization: byte-equal strings iff every field
/// of the two curves is bit-identical.
std::string curve_json(const cm::AnalyticCurve& curve) {
  std::string out = "{\"model\":\"" + curve.model + "\",\"points\":[";
  char buf[128];
  for (std::size_t i = 0; i < curve.buffer_ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s[%.17g,%.17g,%zu]", i ? "," : "",
                  curve.buffer_ms[i], curve.log10_bop[i],
                  curve.critical_m[i]);
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace

TEST(CurveBitIdentity, WarmStartMatchesColdScanEverywhere) {
  const std::vector<double> grid = cm::buffer_grid_ms(0.5, 100.0, 30);
  for (const cm::MuxGeometry& g : fig_operating_points()) {
    for (const std::string& id : zoo_ids()) {
      const cf::ModelSpec model = cf::model_from_id(id);
      const cm::AnalyticCurve br = cm::br_curve(model, g, grid);
      const cm::AnalyticCurve ln = cm::large_n_curve(model, g, grid);
      // Cold reference: a fresh rate function evaluated per point with no
      // hint threading.
      cc::RateFunction rate(model.acf, model.mean, model.variance,
                            g.bandwidth_per_source);
      for (std::size_t i = 0; i < grid.size(); ++i) {
        const double b = g.buffer_ms_to_cells(grid[i]) /
                         static_cast<double>(g.n_sources);
        const cc::RateResult cold = rate.evaluate(b);
        const cc::BopPoint br_ref = cc::br_log10_bop(cold, b, g.n_sources);
        const cc::BopPoint ln_ref =
            cc::large_n_log10_bop(cold, b, g.n_sources);
        EXPECT_EQ(br.critical_m[i], cold.critical_m)
            << id << " N=" << g.n_sources << " i=" << i;
        EXPECT_EQ(br.log10_bop[i], br_ref.log10_bop)
            << id << " N=" << g.n_sources << " i=" << i;
        EXPECT_EQ(ln.critical_m[i], cold.critical_m)
            << id << " N=" << g.n_sources << " i=" << i;
        EXPECT_EQ(ln.log10_bop[i], ln_ref.log10_bop)
            << id << " N=" << g.n_sources << " i=" << i;
      }
    }
  }
}

TEST(CurveBitIdentity, DispatchedCurveJsonMatchesForcedScalar) {
  ForceGuard guard;
  const std::vector<double> grid = cm::buffer_grid_ms(0.5, 100.0, 30);
  for (const cm::MuxGeometry& g : fig_operating_points()) {
    for (const std::string& id : zoo_ids()) {
      const cf::ModelSpec model = cf::model_from_id(id);
      cs::force(cs::best_supported());
      const std::string br_simd = curve_json(cm::br_curve(model, g, grid));
      const std::string ln_simd =
          curve_json(cm::large_n_curve(model, g, grid));
      const std::string cts_simd = curve_json(cm::cts_curve(model, g, grid));
      cs::force(cs::Kind::kScalar);
      EXPECT_EQ(curve_json(cm::br_curve(model, g, grid)), br_simd)
          << id << " N=" << g.n_sources;
      EXPECT_EQ(curve_json(cm::large_n_curve(model, g, grid)), ln_simd)
          << id << " N=" << g.n_sources;
      EXPECT_EQ(curve_json(cm::cts_curve(model, g, grid)), cts_simd)
          << id << " N=" << g.n_sources;
      cs::clear_force();
    }
  }
}

namespace {

/// Every tally of every replication sample, bit for bit.
void expect_same_samples(const cm::ReplicationResult& got,
                         const cm::ReplicationResult& want,
                         const std::string& what) {
  ASSERT_EQ(got.samples.size(), want.samples.size()) << what;
  for (std::size_t s = 0; s < got.samples.size(); ++s) {
    const cm::FluidRunResult& a = got.samples[s].run;
    const cm::FluidRunResult& b = want.samples[s].run;
    EXPECT_EQ(got.samples[s].rep, want.samples[s].rep) << what;
    EXPECT_EQ(a.frames, b.frames) << what;
    EXPECT_EQ(std::memcmp(&a.arrived_cells, &b.arrived_cells, sizeof(double)),
              0)
        << what << " rep " << s;
    EXPECT_EQ(std::memcmp(&a.peak_workload_cells, &b.peak_workload_cells,
                          sizeof(double)),
              0)
        << what << " rep " << s;
    ASSERT_EQ(a.clr.size(), b.clr.size()) << what;
    for (std::size_t i = 0; i < a.clr.size(); ++i) {
      EXPECT_EQ(std::memcmp(&a.clr[i].lost_cells, &b.clr[i].lost_cells,
                            sizeof(double)),
                0)
          << what << " rep " << s << " buffer " << i;
      EXPECT_EQ(a.clr[i].loss_frames, b.clr[i].loss_frames) << what;
    }
    ASSERT_EQ(a.bop.size(), b.bop.size()) << what;
    for (std::size_t i = 0; i < a.bop.size(); ++i) {
      EXPECT_EQ(a.bop[i].exceed_frames, b.bop[i].exceed_frames) << what;
    }
  }
}

/// One run of `config` on `threads` threads.
cm::ReplicationResult run_on(const cf::ModelSpec& model,
                             cm::ReplicationConfig config, unsigned threads) {
  config.threads = threads;
  return cm::run_replicated(model, config);
}

}  // namespace

TEST(CurveBitIdentity, ThreadsAndShardsMatrixIsInvariant) {
  // The batched Davies-Harte refill sits on the per-replication hot path;
  // seeds key off the global replication index, so any threads x shards
  // layout must merge byte-identically.
  const cf::ModelSpec model = cf::model_from_id("farima:0.3");
  cm::MuxGeometry g;
  g.n_sources = 5;
  g.bandwidth_per_source = 520.0;
  cm::ReplicationConfig scale;
  scale.replications = 4;
  scale.frames_per_replication = 2000;
  scale.warmup_frames = 100;
  scale.progress = false;
  const std::vector<double> grid = {0.5, 5.0};
  const cm::ReplicationConfig config =
      cm::replication_config_for_grid(model, g, grid, scale);

  cm::ReplicationConfig single = config;
  single.threads = 1;
  const cm::ReplicationResult reference = cm::run_replicated(model, single);

  for (const unsigned threads : {2u, 4u}) {
    cm::ReplicationConfig multi = config;
    multi.threads = threads;
    const cm::ReplicationResult got = cm::run_replicated(model, multi);
    ASSERT_EQ(got.clr.size(), reference.clr.size());
    for (std::size_t i = 0; i < got.clr.size(); ++i) {
      EXPECT_EQ(got.clr[i].pooled_clr, reference.clr[i].pooled_clr)
          << "threads=" << threads << " i=" << i;
      EXPECT_EQ(got.clr[i].clr.low(), reference.clr[i].clr.low());
      EXPECT_EQ(got.clr[i].clr.high(), reference.clr[i].clr.high());
    }
    EXPECT_EQ(got.total_frames, reference.total_frames);
  }

  for (const std::size_t shards : {2u, 3u}) {
    std::vector<cm::ReplicationSample> samples;
    for (std::size_t s = 0; s < shards; ++s) {
      cm::ReplicationConfig shard = config;
      shard.threads = 2;
      shard.shard_index = s;
      shard.shard_count = shards;
      const cm::ReplicationResult part = cm::run_replicated(model, shard);
      samples.insert(samples.end(), part.samples.begin(),
                     part.samples.end());
    }
    const cm::ReplicationResult merged = cm::aggregate_replications(
        config.buffer_sizes_cells, config.bop_thresholds_cells,
        std::move(samples));
    ASSERT_EQ(merged.clr.size(), reference.clr.size());
    for (std::size_t i = 0; i < merged.clr.size(); ++i) {
      EXPECT_EQ(merged.clr[i].pooled_clr, reference.clr[i].pooled_clr)
          << "shards=" << shards << " i=" << i;
    }
    EXPECT_EQ(merged.total_frames, reference.total_frames);
  }

  // Sources are shared across the pool in 256-frame chunks, so a pool
  // larger than the slice (1 replication on 4 threads, 2 on 5), a run one
  // frame shorter or longer than a chunk, and a warm-up that ends inside a
  // chunk must all leave every tally unchanged.
  cm::MuxGeometry small;
  small.n_sources = 6;
  small.bandwidth_per_source = 515.0;
  const std::vector<double> chunk_grid = {0.2, 2.0, 20.0};
  struct Case {
    const char* model;
    std::size_t replications;
    std::uint64_t frames;
    std::uint64_t warmup;
  };
  const Case cases[] = {
      {"l", 1, 1, 0},           {"l", 2, 255, 0},
      {"dar:0.9:2", 1, 256, 0}, {"dar:0.9:2", 2, 257, 0},
      {"l", 2, 600, 100},       {"farima:0.3", 3, 300, 211},
  };
  for (const Case& c : cases) {
    const cf::ModelSpec case_model = cf::model_from_id(c.model);
    cm::ReplicationConfig case_scale;
    case_scale.replications = c.replications;
    case_scale.frames_per_replication = c.frames;
    case_scale.warmup_frames = c.warmup;
    case_scale.progress = false;
    case_scale.bop_thresholds_cells = {0.0, 100.0};
    const cm::ReplicationConfig case_config =
        cm::replication_config_for_grid(case_model, small, chunk_grid,
                                        case_scale);
    const std::string what = std::string(c.model) + " reps " +
                             std::to_string(c.replications) + " frames " +
                             std::to_string(c.frames) + "+" +
                             std::to_string(c.warmup);
    const cm::ReplicationResult case_reference =
        run_on(case_model, case_config, 1);
    for (const unsigned threads : {2u, 4u, 5u}) {
      expect_same_samples(run_on(case_model, case_config, threads),
                          case_reference,
                          what + " threads " + std::to_string(threads));
    }
    if (c.replications < 2) continue;
    std::vector<cm::ReplicationSample> parts;
    for (std::size_t s = 0; s < 2; ++s) {
      cm::ReplicationConfig shard = case_config;
      shard.threads = 3;
      shard.shard_index = s;
      shard.shard_count = 2;
      const cm::ReplicationResult part = cm::run_replicated(case_model, shard);
      parts.insert(parts.end(), part.samples.begin(), part.samples.end());
    }
    expect_same_samples(
        cm::aggregate_replications(case_config.buffer_sizes_cells,
                                   case_config.bop_thresholds_cells,
                                   std::move(parts)),
        case_reference, what + " 2 shards");
  }
}
