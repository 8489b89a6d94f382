// Golden check of the seeded FBNDP frame streams (V^1.5, V^1, Z^0.975, L).
//
// The committed tests/golden/fbndp_frames.csv pins what the simulator's
// sources emit for fixed seeds.  The ON/OFF sojourn kernel may differ from
// the recording at the ulp level, which can flip a Poisson frame count by
// one cell in rare frames, so the check is: the same rows in the same
// order, at least 99.9% of frames exactly equal, and none off by more than
// one cell.  Regenerate with gen_golden_fbndp (see tests/golden/README.md).

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

#include "golden_fbndp.hpp"

namespace cg = cts::golden;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

TEST(GoldenFbndp, FramesMatchCommittedRecording) {
  std::vector<cg::GoldenFrame> golden;
  ASSERT_TRUE(cg::parse_golden_csv(
      read_file(std::string(CTS_GOLDEN_DIR) + "/fbndp_frames.csv"), &golden))
      << "tests/golden/fbndp_frames.csv missing or malformed";
  const std::vector<cg::GoldenFrame> now = cg::generate_fbndp_golden();
  ASSERT_EQ(now.size(), golden.size());

  std::size_t equal = 0;
  double worst = 0.0;
  for (std::size_t i = 0; i < now.size(); ++i) {
    ASSERT_EQ(now[i].model, golden[i].model) << "row " << i;
    ASSERT_EQ(now[i].seed, golden[i].seed) << "row " << i;
    ASSERT_EQ(now[i].index, golden[i].index) << "row " << i;
    const double diff = std::abs(now[i].cells - golden[i].cells);
    if (diff == 0.0) ++equal;
    worst = std::max(worst, diff);
    EXPECT_LE(diff, 1.0) << now[i].model << " seed " << now[i].seed
                         << " frame " << now[i].index << ": "
                         << now[i].cells << " vs golden " << golden[i].cells;
  }
  const double match = static_cast<double>(equal) /
                       static_cast<double>(now.size());
  EXPECT_GE(match, 0.999) << equal << " of " << now.size()
                          << " frames equal; worst diff " << worst;
}

TEST(GoldenFbndp, CsvRoundTripsExactly) {
  const std::vector<cg::GoldenFrame> rows = {{"vv:1.5", 1, 0, 512.0},
                                             {"l", 2, 3, 0.1 + 0.2},
                                             {"za:0.975", 3, 4, -0.0}};
  std::vector<cg::GoldenFrame> parsed;
  ASSERT_TRUE(cg::parse_golden_csv(cg::format_golden_csv(rows), &parsed));
  ASSERT_EQ(parsed.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(parsed[i].model, rows[i].model);
    EXPECT_EQ(parsed[i].seed, rows[i].seed);
    EXPECT_EQ(parsed[i].index, rows[i].index);
    EXPECT_EQ(parsed[i].cells, rows[i].cells);
  }
  std::vector<cg::GoldenFrame> junk;
  EXPECT_FALSE(
      cg::parse_golden_csv("model,seed,frame,cells\nl,1,x,2\n", &junk));
  EXPECT_FALSE(cg::parse_golden_csv("wrong header\n", &junk));
}
