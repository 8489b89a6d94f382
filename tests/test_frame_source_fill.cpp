// FrameSource::fill(out, n) writes exactly the frames of n next_frame()
// calls, bit for bit, for every zoo model and every source class in
// cts/proc.  The fluid multiplexer reads its sources only through fill, a
// block at a time and on any pool thread, so this equality is what keeps
// every simulated tally byte-identical.

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cts/core/acf_model.hpp"
#include "cts/fit/model_zoo.hpp"
#include "cts/proc/ar1.hpp"
#include "cts/proc/dar.hpp"
#include "cts/proc/fbndp.hpp"
#include "cts/proc/gaussian_acf_source.hpp"
#include "cts/proc/gaussian_quantizer.hpp"
#include "cts/proc/gop.hpp"
#include "cts/proc/mginf.hpp"
#include "cts/proc/superposition.hpp"
#include "cts/proc/trace.hpp"

namespace cc = cts::core;
namespace cf = cts::fit;
namespace cp = cts::proc;

namespace {

using Factory = std::function<std::unique_ptr<cp::FrameSource>(std::uint64_t)>;

/// Block lengths around the multiplexer's 256-frame chunk.
const std::vector<std::size_t> kBlocks = {1, 255, 256, 257, 3, 1000};

/// Draws the same frames from two equally seeded sources, one through
/// fill and one through next_frame, interleaving single next_frame calls
/// on both so each path resumes where the other left off.
void expect_fill_matches_next_frame(
    const Factory& make, const std::string& what,
    const std::vector<std::size_t>& blocks = kBlocks) {
  SCOPED_TRACE(what);
  for (const std::uint64_t seed : {1ULL, 0x5EEDC0DEULL}) {
    const auto blocked = make(seed);
    const auto single = make(seed);
    for (const std::size_t n : blocks) {
      std::vector<double> got(n);
      std::vector<double> want(n);
      blocked->fill(got.data(), n);
      for (double& x : want) x = single->next_frame();
      EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(double)), 0)
          << "block of " << n << ", seed " << seed;
      const double a = blocked->next_frame();
      const double b = single->next_frame();
      EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << "after " << n;
    }
  }
}

}  // namespace

TEST(FrameSourceFill, EveryZooModelFillsWhatNextFrameReturns) {
  for (const char* id :
       {"za:0.9", "za:0.975", "vv:1", "vv:1.5", "dar:0.9:1", "dar:0.975:3",
        "l", "white", "ar1:0.8", "farima:0.3", "mginf:1.4"}) {
    const cf::ModelSpec model = cf::model_from_id(id);
    expect_fill_matches_next_frame(
        [&](std::uint64_t seed) { return model.make_source(seed); }, id);
  }
}

TEST(FrameSourceFill, EveryProcSourceFillsWhatNextFrameReturns) {
  const auto geometric = std::make_shared<cc::GeometricAcf>(0.9);
  const std::vector<std::pair<std::string, Factory>> sources = {
      {"Ar1Source",
       [](std::uint64_t s) {
         return std::make_unique<cp::Ar1Source>(cp::Ar1Params{}, s);
       }},
      {"DarSource",
       [](std::uint64_t s) {
         cp::DarParams params;
         params.lag_probs = {0.5, 0.3, 0.2};
         return std::make_unique<cp::DarSource>(params, s);
       }},
      {"FbndpSource",
       [](std::uint64_t s) {
         cp::FbndpParams params;
         params.R = 2000.0;
         return std::make_unique<cp::FbndpSource>(params, s);
       }},
      {"GaussianAcfHosking",
       [&](std::uint64_t s) {
         return std::make_unique<cp::GaussianAcfHosking>(geometric, 500.0,
                                                         5000.0, s, 64);
       }},
      {"GaussianAcfDaviesHarte",
       [&](std::uint64_t s) {
         return std::make_unique<cp::GaussianAcfDaviesHarte>(
             geometric, 500.0, 5000.0, 300, s);
       }},
      {"GaussianQuantizer",
       [](std::uint64_t s) {
         return std::make_unique<cp::GaussianQuantizer>(
             std::make_unique<cp::Ar1Source>(cp::Ar1Params{}, s));
       }},
      {"GopModulatedSource",
       [](std::uint64_t s) {
         return std::make_unique<cp::GopModulatedSource>(
             std::make_unique<cp::Ar1Source>(cp::Ar1Params{}, s),
             cp::GopPattern::ibbpbb12(), 5);
       }},
      {"MgInfSource",
       [](std::uint64_t s) {
         return std::make_unique<cp::MgInfSource>(cp::MgInfParams{}, s);
       }},
      {"SuperposedSource",
       [](std::uint64_t s) {
         std::vector<std::unique_ptr<cp::FrameSource>> parts;
         parts.push_back(std::make_unique<cp::Ar1Source>(cp::Ar1Params{}, s));
         parts.push_back(
             std::make_unique<cp::MgInfSource>(cp::MgInfParams{}, s + 1));
         return std::make_unique<cp::SuperposedSource>(std::move(parts));
       }},
      {"TraceSource",
       [](std::uint64_t s) {
         std::vector<double> trace(97);
         for (std::size_t i = 0; i < trace.size(); ++i) {
           trace[i] = 100.0 + static_cast<double>((i * 37) % 23);
         }
         return std::make_unique<cp::TraceSource>(std::move(trace), s);
       }},
  };
  for (const auto& [name, make] : sources) {
    expect_fill_matches_next_frame(make, name);
  }
}

TEST(FrameSourceFill, DarFillsInterleaveWithNextFrameForEveryOrder) {
  // DarSource::fill reads its first p frames from the ring and the rest
  // from the row, then rebuilds the ring; blocks shorter than p never
  // leave the ring, so every hand-over is covered for p = 1..5.
  for (std::size_t p = 1; p <= 5; ++p) {
    cp::DarParams params;
    params.rho = 0.9;
    params.lag_probs.assign(p, 1.0 / static_cast<double>(p));
    std::vector<std::size_t> blocks = {1, p + 1, 256, 2, 257};
    if (p > 1) blocks.insert(blocks.begin() + 1, {p - 1, p});
    expect_fill_matches_next_frame(
        [&](std::uint64_t s) {
          return std::make_unique<cp::DarSource>(params, s);
        },
        "DAR(" + std::to_string(p) + ")", blocks);
  }
}
