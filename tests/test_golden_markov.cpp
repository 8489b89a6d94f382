// Golden check of the seeded Markov frame streams (DAR(1), DAR(2), DAR(3),
// AR(1) and DAR(1) with a negative-binomial marginal).
//
// The committed tests/golden/markov_frames.csv pins what these sources emit
// for fixed seeds, read through mixed fill() blocks and next_frame() calls.
// DAR repeats earlier values and draws Gaussian innovations through libm's
// log and sqrt only, so the check has no slack: the CSV must be equal byte
// for byte.  Regenerate with gen_golden_markov (see tests/golden/README.md).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "golden_markov.hpp"

namespace cg = cts::golden;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

TEST(GoldenMarkov, FramesMatchCommittedRecordingByteForByte) {
  const std::string golden =
      read_file(std::string(CTS_GOLDEN_DIR) + "/markov_frames.csv");
  ASSERT_FALSE(golden.empty()) << "tests/golden/markov_frames.csv missing";
  const std::string now =
      cg::format_golden_csv(cg::generate_markov_golden());
  if (now == golden) return;
  // Name the first differing row rather than dumping two large strings.
  std::istringstream a(now);
  std::istringstream b(golden);
  std::string line_now, line_golden;
  for (std::size_t line = 1;; ++line) {
    const bool more_now = static_cast<bool>(std::getline(a, line_now));
    const bool more_golden = static_cast<bool>(std::getline(b, line_golden));
    if (!more_now && !more_golden) break;
    if (line_now != line_golden || more_now != more_golden) {
      FAIL() << "line " << line << ": now '" << line_now << "', golden '"
             << line_golden << "'";
    }
  }
  FAIL() << "the CSVs differ only in their line endings";
}

TEST(GoldenMarkov, EveryStreamHoldsEveryBlock) {
  std::vector<cg::GoldenFrame> rows;
  ASSERT_TRUE(cg::parse_golden_csv(
      read_file(std::string(CTS_GOLDEN_DIR) + "/markov_frames.csv"), &rows));
  const auto models = cg::markov_golden_models();
  std::size_t expected = 0;
  for (const auto& model : models) {
    // Blocks 1, p - 1, p, 256 and 257, each followed by one next_frame().
    expected += (1 + (model.order - 1) + model.order + 256 + 257 + 5) *
                std::size(cg::kGoldenSeeds);
  }
  EXPECT_EQ(rows.size(), expected);
}
