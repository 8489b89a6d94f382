// Golden check of FluidMux::run's tallies.
//
// The committed tests/golden/fluid_mux_tallies.csv pins the per-buffer
// loss tallies, the BOP exceedance counts, the arrived cells and the peak
// workload of three capacity cases over the replayed FBNDP golden frames.
// The fluid recursion is exact arithmetic on the replayed arrivals, so the
// check has no slack: the CSV must be equal byte for byte, on every SIMD
// tier the host supports (the finite buffers run through the dispatched
// fifo_step kernel).  Regenerate with gen_golden_fluid_mux (see
// tests/golden/README.md).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "cts/core/simd.hpp"
#include "golden_fluid_mux.hpp"

namespace cg = cts::golden;
namespace cs = cts::core::simd;

namespace {

/// Restores auto dispatch when the test exits.
struct ForceGuard {
  ~ForceGuard() { cs::clear_force(); }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

TEST(GoldenFluidMux, TalliesMatchCommittedRecording) {
  ForceGuard guard;
  const std::string dir = CTS_GOLDEN_DIR;
  const std::string golden = read_file(dir + "/fluid_mux_tallies.csv");
  ASSERT_FALSE(golden.empty()) << "tests/golden/fluid_mux_tallies.csv missing";
  for (int k = 0; k <= static_cast<int>(cs::best_supported()); ++k) {
    const auto kind = static_cast<cs::Kind>(k);
    cs::force(kind);
    const std::string now = cg::fluid_golden_csv(dir + "/fbndp_frames.csv");
    ASSERT_FALSE(now.empty()) << "tests/golden/fbndp_frames.csv unreadable";
    EXPECT_EQ(now, golden) << "on the " << cs::kind_name(kind) << " tier";
  }
}

TEST(GoldenFluidMux, ReplaysEveryFbndpStream) {
  const auto streams = cg::golden_frame_streams(std::string(CTS_GOLDEN_DIR) +
                                                "/fbndp_frames.csv");
  ASSERT_EQ(streams.size(),
            cg::fbndp_golden_models().size() * std::size(cg::kGoldenSeeds));
  for (const auto& stream : streams) {
    EXPECT_EQ(stream.size(), cg::kGoldenFramesPerStream);
  }
  EXPECT_EQ(cg::kFluidGoldenWarmup + cg::kFluidGoldenFrames,
            cg::kGoldenFramesPerStream);
}
