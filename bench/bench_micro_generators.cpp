// Micro-benchmarks (google-benchmark): throughput of the traffic
// generators.  These quantify the cost structure behind the simulation
// experiments -- FBNDP pays for ON/OFF bookkeeping + Poisson sampling,
// DAR/AR1 are branch-cheap, FGN depends on the generation algorithm: the
// generic exact-Gaussian sources at the unit-weight exact-LRD ACF, whose
// inner loops are the SIMD Hosking and Davies-Harte kernels.

#include <array>
#include <cstdint>
#include <memory>

#include <benchmark/benchmark.h>

#include "cts/fit/model_zoo.hpp"
#include "cts/proc/ar1.hpp"
#include "cts/proc/dar.hpp"
#include "cts/proc/fbndp.hpp"
#include "cts/core/acf_model.hpp"
#include "cts/proc/gaussian_acf_source.hpp"
#include "cts/fit/fbndp_calibration.hpp"
#include "cts/util/rng.hpp"

namespace {

void BM_Xoshiro(benchmark::State& state) {
  cts::util::Xoshiro256pp rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng());
}
BENCHMARK(BM_Xoshiro);

void BM_NormalSampler(benchmark::State& state) {
  cts::util::Xoshiro256pp rng(1);
  cts::util::NormalSampler normal;
  for (auto _ : state) benchmark::DoNotOptimize(normal(rng));
}
BENCHMARK(BM_NormalSampler);

void BM_PoissonSample(benchmark::State& state) {
  cts::util::Xoshiro256pp rng(1);
  const double mean = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cts::util::poisson_sample(rng, mean));
  }
}
BENCHMARK(BM_PoissonSample)->Arg(5)->Arg(50)->Arg(250);

/// Times one 256-frame fill, the block FluidMux reads from each source;
/// items/s is frames/s.
void time_row_fills(benchmark::State& state, cts::proc::FrameSource& source) {
  std::array<double, 256> row{};
  for (auto _ : state) {
    source.fill(row.data(), row.size());
    benchmark::DoNotOptimize(row.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(row.size()));
}

void BM_Ar1Frame(benchmark::State& state) {
  cts::proc::Ar1Params p;
  p.phi = 0.8;
  cts::proc::Ar1Source source(p, 1);
  time_row_fills(state, source);
}
BENCHMARK(BM_Ar1Frame);

void BM_DarFrame(benchmark::State& state) {
  cts::proc::DarParams p;
  p.rho = 0.9;
  p.lag_probs.assign(static_cast<std::size_t>(state.range(0)), 0.0);
  for (auto& a : p.lag_probs) a = 1.0 / static_cast<double>(p.lag_probs.size());
  cts::proc::DarSource source(p, 1);
  time_row_fills(state, source);
}
BENCHMARK(BM_DarFrame)->Arg(1)->Arg(2)->Arg(3);

void BM_FbndpFrame(benchmark::State& state) {
  cts::fit::FbndpTarget target;
  target.mean = 250.0;
  target.variance = 2500.0;
  target.alpha = 0.8;
  target.M = static_cast<std::uint32_t>(state.range(0));
  cts::proc::FbndpSource source(cts::fit::calibrate_fbndp(target), 1);
  for (auto _ : state) benchmark::DoNotOptimize(source.next_frame());
}
BENCHMARK(BM_FbndpFrame)->Arg(15)->Arg(30);

void BM_ZaFrame(benchmark::State& state) {
  const cts::fit::ModelSpec spec = cts::fit::make_za(0.975);
  auto source = spec.make_source(1);
  for (auto _ : state) benchmark::DoNotOptimize(source->next_frame());
}
BENCHMARK(BM_ZaFrame);

/// FGN at H = 0.8, mean 500 and variance 5000 cells/frame.
std::shared_ptr<const cts::core::AcfModel> fgn_acf() {
  return std::make_shared<cts::core::ExactLrdAcf>(0.8, 1.0);
}

void BM_FgnDaviesHarteFrame(benchmark::State& state) {
  cts::proc::GaussianAcfDaviesHarte source(fgn_acf(), 500.0, 5000.0, 1 << 12,
                                           1);
  for (auto _ : state) benchmark::DoNotOptimize(source.next_frame());
}
BENCHMARK(BM_FgnDaviesHarteFrame);

void BM_FgnHoskingFrame(benchmark::State& state) {
  cts::proc::GaussianAcfHosking source(fgn_acf(), 500.0, 5000.0, 1);
  // Hosking cost grows with history; measure a bounded window.
  for (auto _ : state) benchmark::DoNotOptimize(source.next_frame());
}
BENCHMARK(BM_FgnHoskingFrame)->Iterations(4096);

}  // namespace

BENCHMARK_MAIN();
