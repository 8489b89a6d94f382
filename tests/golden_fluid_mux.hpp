// Fluid-mux tallies pinned by tests/golden/fluid_mux_tallies.csv.
//
// Shared by the golden test (test_golden_fluid_mux) and its regeneration
// tool (gen_golden_fluid_mux).  The arrivals are the committed FBNDP golden
// frames replayed verbatim: each (model, seed) stream of fbndp_frames.csv
// becomes one TraceSource, so the eight sources sum to about 3520 cells per
// frame and no libm call sits between the recording and `FluidMux::run`.
// The cases put the server under, near and over that load and cover a zero
// buffer, lossy and lossless buffers, and duplicate BOP thresholds.

#pragma once

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cts/proc/trace.hpp"
#include "cts/sim/fluid_mux.hpp"
#include "golden_fbndp.hpp"

namespace cts::golden {

struct FluidGoldenCase {
  const char* name;
  double capacity_cells;
  std::vector<double> buffers;
  std::vector<double> thresholds;
};

inline const std::vector<FluidGoldenCase>& fluid_golden_cases() {
  static const std::vector<FluidGoldenCase> cases{
      {"near", 3600.0, {0.0, 100.0, 400.0, 2000.0, 1e6},
       {0.0, 150.0, 150.0, 600.0, 5000.0}},
      {"over", 3400.0, {0.0, 0.0, 1000.0, 1e6}, {0.0, 2000.0, 2000.0, 1e6}},
      {"under", 4000.0, {0.0, 50.0}, {0.0, 0.0, 100.0}},
  };
  return cases;
}

constexpr std::uint64_t kFluidGoldenWarmup = 50;
constexpr std::uint64_t kFluidGoldenFrames = 450;

/// The (model, seed) streams of fbndp_frames.csv, in file order (the
/// recording writes each stream's frames consecutively).
inline std::vector<std::vector<double>> golden_frame_streams(
    const std::string& fbndp_csv_path) {
  std::ifstream in(fbndp_csv_path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  std::vector<GoldenFrame> rows;
  if (!parse_golden_csv(text.str(), &rows)) return {};
  std::vector<std::vector<double>> streams;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i == 0 || rows[i].model != rows[i - 1].model ||
        rows[i].seed != rows[i - 1].seed) {
      streams.emplace_back();
    }
    streams.back().push_back(rows[i].cells);
  }
  return streams;
}

/// Runs every case over the replayed streams and formats the tallies as
/// CSV (17 significant digits, so every double round-trips).  Empty when
/// the recording cannot be read.
inline std::string fluid_golden_csv(const std::string& fbndp_csv_path) {
  const std::vector<std::vector<double>> streams =
      golden_frame_streams(fbndp_csv_path);
  if (streams.empty()) return {};
  std::string out = "case,tally,index,param_cells,cells,frames\n";
  char line[160];
  const auto emit = [&](const char* name, const char* tally, std::size_t i,
                        double param, double cells, std::uint64_t frames) {
    std::snprintf(line, sizeof line, "%s,%s,%zu,%.17g,%.17g,%llu\n", name,
                  tally, i, param, cells,
                  static_cast<unsigned long long>(frames));
    out += line;
  };
  for (const FluidGoldenCase& c : fluid_golden_cases()) {
    std::vector<std::unique_ptr<proc::FrameSource>> sources;
    for (const std::vector<double>& stream : streams) {
      sources.push_back(std::make_unique<proc::TraceSource>(
          stream, 0, /*randomize_phase=*/false));
    }
    sim::FluidRunConfig config;
    config.warmup_frames = kFluidGoldenWarmup;
    config.frames = kFluidGoldenFrames;
    config.capacity_cells = c.capacity_cells;
    config.buffer_sizes_cells = c.buffers;
    config.bop_thresholds_cells = c.thresholds;
    const sim::FluidRunResult r = sim::FluidMux::run(sources, config);
    emit(c.name, "arrived", 0, c.capacity_cells, r.arrived_cells, r.frames);
    emit(c.name, "peak", 0, c.capacity_cells, r.peak_workload_cells,
         r.frames);
    for (std::size_t i = 0; i < r.clr.size(); ++i) {
      emit(c.name, "clr", i, r.clr[i].buffer_cells, r.clr[i].lost_cells,
           r.clr[i].loss_frames);
    }
    for (std::size_t i = 0; i < r.bop.size(); ++i) {
      emit(c.name, "bop", i, r.bop[i].threshold_cells, 0.0,
           r.bop[i].exceed_frames);
    }
  }
  return out;
}

}  // namespace cts::golden
