// Unit tests for table rendering, CSV output and flag parsing.

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cts/util/csv.hpp"
#include "cts/util/error.hpp"
#include "cts/util/flags.hpp"
#include "cts/util/table.hpp"

namespace cu = cts::util;

TEST(TextTable, RendersAlignedColumns) {
  cu::TextTable table({"model", "clr"});
  table.add_row({"Z^0.7", "1.2e-06"});
  table.add_row({"DAR(1)", "3.4e-06"});
  const std::string out = table.render();
  EXPECT_NE(out.find("model"), std::string::npos);
  EXPECT_NE(out.find("Z^0.7"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TextTable, RejectsMismatchedRow) {
  cu::TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), cu::InvalidArgument);
}

TEST(TextTable, RejectsEmptyHeader) {
  EXPECT_THROW(cu::TextTable({}), cu::InvalidArgument);
}

TEST(Formatting, FixedSciInt) {
  EXPECT_EQ(cu::format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(cu::format_sci(0.00123, 2), "1.23e-03");
  EXPECT_EQ(cu::format_int(-42), "-42");
}

TEST(CsvWriter, RendersAndEscapes) {
  cu::CsvWriter csv({"name", "value"});
  csv.add_row({"plain", "1"});
  csv.add_row({"has,comma", "2"});
  csv.add_row({"has\"quote", "3"});
  const std::string out = csv.render();
  EXPECT_NE(out.find("name,value\n"), std::string::npos);
  EXPECT_NE(out.find("\"has,comma\",2"), std::string::npos);
  EXPECT_NE(out.find("\"has\"\"quote\",3"), std::string::npos);
}

TEST(CsvWriter, WritesFile) {
  cu::CsvWriter csv({"x"});
  csv.add_row({"1"});
  const std::string path = ::testing::TempDir() + "/cts_test.csv";
  EXPECT_TRUE(csv.write(path));
}

TEST(Flags, ParsesKeyEqualsValue) {
  const char* argv[] = {"prog", "--frames=500", "--model=Z"};
  cu::Flags flags(3, argv);
  EXPECT_EQ(flags.get_int("frames", 0), 500);
  EXPECT_EQ(flags.get_string("model", ""), "Z");
  EXPECT_TRUE(flags.positionals().empty());

  // "--k=v" never consumes the next token: a positional after it stays one.
  const char* files[] = {"prog", "a.json", "--k=v", "b.json"};
  const cu::Flags with_files(4, files);
  EXPECT_EQ(with_files.get_string("k", ""), "v");
  EXPECT_EQ(with_files.positionals(),
            (std::vector<std::string>{"a.json", "b.json"}));
}

TEST(Flags, ParsesKeySpaceValueAndBooleans) {
  const char* argv[] = {"prog", "--reps", "60", "--verbose", "--x=1.5"};
  cu::Flags flags(5, argv);
  EXPECT_EQ(flags.get_int("reps", 0), 60);
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(flags.get_double("x", 0.0), 1.5);
  EXPECT_TRUE(flags.positionals().empty());  // "--reps 60" consumed 60

  // "--a --b x": --a is boolean, x is --b's value; the rest, in order,
  // are positionals.
  const char* mixed[] = {"prog", "run", "--a", "--b", "x", "fig9", "--c"};
  const cu::Flags parsed(7, mixed);
  EXPECT_TRUE(parsed.get_bool("a", false));
  EXPECT_EQ(parsed.get_string("b", ""), "x");
  EXPECT_TRUE(parsed.get_bool("c", false));
  EXPECT_EQ(parsed.positionals(), (std::vector<std::string>{"run", "fig9"}));
}

TEST(Flags, FallbacksForMissingKeys) {
  const char* argv[] = {"prog"};
  cu::Flags flags(1, argv);
  EXPECT_EQ(flags.get_int("frames", 123), 123);
  EXPECT_FALSE(flags.has("frames"));
}

TEST(Flags, RejectsMalformedValues) {
  const char* argv[] = {"prog", "--frames=abc"};
  cu::Flags flags(2, argv);
  EXPECT_THROW(flags.get_int("frames", 0), cu::InvalidArgument);
}

TEST(Flags, RejectsNonFiniteNumbers) {
  for (const char* text : {"inf", "-inf", "nan", "infinity", "NaN", "-INF"}) {
    const std::string arg = std::string("--buffer-ms=") + text;
    const char* argv[] = {"prog", arg.c_str()};
    const cu::Flags flags(2, argv);
    try {
      flags.get_double("buffer-ms", 1.0);
      ADD_FAILURE() << text << " was accepted";
    } catch (const cu::InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--buffer-ms expects a number"), std::string::npos)
          << what;
      EXPECT_NE(what.find(text), std::string::npos) << what;
    }
  }
}

TEST(Flags, UnknownKeysReportsTyposOnly) {
  const char* argv[] = {"prog", "--frmes=500000", "--csv=out.csv", "--quiet"};
  cu::Flags flags(4, argv);
  const std::vector<std::string> unknown =
      flags.unknown_keys({"frames", "csv", "quiet"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "frmes");
}

TEST(Flags, WarnUnknownPrintsWarningAndKnownList) {
  const char* argv[] = {"prog", "--frmes=500000"};
  cu::Flags flags(2, argv);
  std::ostringstream os;
  EXPECT_EQ(flags.warn_unknown(os, {"frames", "csv"}), 1u);
  EXPECT_NE(os.str().find("unknown flag --frmes"), std::string::npos);
  EXPECT_NE(os.str().find("--frames"), std::string::npos);
}

TEST(Flags, SuggestNamesTheNearestKnownFlag) {
  const std::vector<std::string> known = {"csv", "trace", "metrics", "quiet"};
  EXPECT_EQ(cu::Flags::suggest("metrcs", known), "metrics");
  EXPECT_EQ(cu::Flags::suggest("trase", known), "trace");
  EXPECT_EQ(cu::Flags::suggest("qt", known), "");       // too far from anything
  EXPECT_EQ(cu::Flags::suggest("bananas", known), "");  // nothing plausible
  EXPECT_EQ(cu::Flags::suggest("metrics", {}), "");
}

TEST(Flags, WarnUnknownSuggestsDidYouMean) {
  const char* argv[] = {"prog", "--metrcs=out.json"};
  cu::Flags flags(2, argv);
  std::ostringstream os;
  EXPECT_EQ(flags.warn_unknown(os, {"csv", "trace", "metrics", "quiet"}), 1u);
  EXPECT_NE(os.str().find("unknown flag --metrcs"), std::string::npos);
  EXPECT_NE(os.str().find("did you mean --metrics?"), std::string::npos);
}

TEST(Flags, WarnUnknownSilentWhenAllKnown) {
  const char* argv[] = {"prog", "--csv=out.csv"};
  cu::Flags flags(2, argv);
  std::ostringstream os;
  EXPECT_EQ(flags.warn_unknown(os, {"csv"}), 0u);
  EXPECT_TRUE(os.str().empty());
}

TEST(EnvFlag, ParsesTruthyValues) {
  ::setenv("CTS_TEST_ENV_FLAG", "1", 1);
  EXPECT_TRUE(cu::env_flag("CTS_TEST_ENV_FLAG"));
  ::setenv("CTS_TEST_ENV_FLAG", "yes", 1);
  EXPECT_TRUE(cu::env_flag("CTS_TEST_ENV_FLAG"));
  ::setenv("CTS_TEST_ENV_FLAG", "0", 1);
  EXPECT_FALSE(cu::env_flag("CTS_TEST_ENV_FLAG"));
  ::unsetenv("CTS_TEST_ENV_FLAG");
  EXPECT_FALSE(cu::env_flag("CTS_TEST_ENV_FLAG"));
}

TEST(EnvInt, ParsesWithFallback) {
  ::setenv("CTS_TEST_ENV_INT", "77", 1);
  EXPECT_EQ(cu::env_int("CTS_TEST_ENV_INT", 5), 77);
  ::setenv("CTS_TEST_ENV_INT", "-3", 1);
  EXPECT_EQ(cu::env_int("CTS_TEST_ENV_INT", 5), -3);
  ::unsetenv("CTS_TEST_ENV_INT");
  EXPECT_EQ(cu::env_int("CTS_TEST_ENV_INT", 5), 5);
}

TEST(EnvInt, RejectsMalformedValues) {
  // A typo'd override must never silently run at the fallback scale.
  ::setenv("CTS_TEST_ENV_INT", "junk", 1);
  EXPECT_THROW(cu::env_int("CTS_TEST_ENV_INT", 5), cu::InvalidArgument);
  ::setenv("CTS_TEST_ENV_INT", "12abc", 1);  // partial parse
  EXPECT_THROW(cu::env_int("CTS_TEST_ENV_INT", 5), cu::InvalidArgument);
  ::setenv("CTS_TEST_ENV_INT", "", 1);
  EXPECT_THROW(cu::env_int("CTS_TEST_ENV_INT", 5), cu::InvalidArgument);
  ::setenv("CTS_TEST_ENV_INT", "99999999999999999999999", 1);  // overflow
  EXPECT_THROW(cu::env_int("CTS_TEST_ENV_INT", 5), cu::InvalidArgument);
  ::unsetenv("CTS_TEST_ENV_INT");
}

TEST(Flags, GetDoubleRejectsMalformedValues) {
  // std::stod would silently accept "1.5abc" as 1.5; a typo'd threshold
  // would then gate on the wrong number.  Strict full-string parsing
  // rejects trailing junk, empty values, and overflow.
  const char* argv[] = {"prog", "--x=1.5abc", "--empty=", "--big=1e999999"};
  cu::Flags flags(4, argv);
  EXPECT_THROW(flags.get_double("x", 0.0), cu::InvalidArgument);
  EXPECT_THROW(flags.get_double("empty", 0.0), cu::InvalidArgument);
  EXPECT_THROW(flags.get_double("big", 0.0), cu::InvalidArgument);
}

TEST(Flags, GetDoubleErrorNamesFlagAndValue) {
  const char* argv[] = {"prog", "--threshold=1.5abc"};
  cu::Flags flags(2, argv);
  try {
    flags.get_double("threshold", 0.0);
    FAIL() << "expected InvalidArgument";
  } catch (const cu::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--threshold"), std::string::npos);
    EXPECT_NE(what.find("1.5abc"), std::string::npos);
  }
}

TEST(Flags, GetDoubleAcceptsScientificAndUnderflow) {
  const char* argv[] = {"prog", "--x=1.5e3", "--tiny=1e-320", "--neg=-2.5"};
  cu::Flags flags(4, argv);
  EXPECT_DOUBLE_EQ(flags.get_double("x", 0.0), 1500.0);
  // Underflow to zero/denormal is an acceptable representation of a tiny
  // input, unlike overflow.
  EXPECT_NO_THROW(flags.get_double("tiny", 0.0));
  EXPECT_DOUBLE_EQ(flags.get_double("neg", 0.0), -2.5);
  EXPECT_DOUBLE_EQ(flags.get_double("absent", 3.5), 3.5);
}

TEST(Flags, GetIntRejectsMalformedValues) {
  const char* argv[] = {"prog", "--reps=12abc", "--empty=",
                        "--big=99999999999999999999999"};
  cu::Flags flags(4, argv);
  EXPECT_THROW(flags.get_int("reps", 0), cu::InvalidArgument);
  EXPECT_THROW(flags.get_int("empty", 0), cu::InvalidArgument);
  EXPECT_THROW(flags.get_int("big", 0), cu::InvalidArgument);
  try {
    flags.get_int("reps", 0);
    FAIL() << "expected InvalidArgument";
  } catch (const cu::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--reps"), std::string::npos);
    EXPECT_NE(what.find("12abc"), std::string::npos);
  }
}

TEST(TryParseDouble, StrictFullString) {
  double value = 0.0;
  EXPECT_TRUE(cu::try_parse_double("1.5", &value));
  EXPECT_DOUBLE_EQ(value, 1.5);
  EXPECT_TRUE(cu::try_parse_double("-2e3", &value));
  EXPECT_DOUBLE_EQ(value, -2000.0);
  EXPECT_FALSE(cu::try_parse_double("", &value));
  EXPECT_FALSE(cu::try_parse_double("1.5abc", &value));
  EXPECT_FALSE(cu::try_parse_double("abc", &value));
  EXPECT_FALSE(cu::try_parse_double("1e999", &value));   // overflow
  EXPECT_FALSE(cu::try_parse_double("inf", &value));     // non-finite
  EXPECT_FALSE(cu::try_parse_double("nan", &value));
  EXPECT_TRUE(cu::try_parse_double("1e-999", &value));   // underflow is fine
  EXPECT_TRUE(cu::try_parse_double("250", nullptr));     // probe-only call
}

TEST(TryParseInt, StrictFullString) {
  std::int64_t value = 0;
  EXPECT_TRUE(cu::try_parse_int("42", &value));
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(cu::try_parse_int("-7", &value));
  EXPECT_EQ(value, -7);
  EXPECT_FALSE(cu::try_parse_int("", &value));
  EXPECT_FALSE(cu::try_parse_int("12abc", &value));
  EXPECT_FALSE(cu::try_parse_int("1.5", &value));
  EXPECT_FALSE(cu::try_parse_int("99999999999999999999999", &value));
}

TEST(TryParseU64, DigitsOnlyAndWithinSixtyFourBits) {
  std::uint64_t value = 0;
  EXPECT_TRUE(cu::try_parse_u64("0", &value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(cu::try_parse_u64("18446744073709551615", &value));
  EXPECT_EQ(value, 18446744073709551615ULL);
  for (const char* bad : {"", "18446744073709551616",
                          "99999999999999999999999", "-1", "+1", " 1", "1 ",
                          "1x", "0x10", "1.0", "1e3"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(cu::try_parse_u64(bad, &value));
  }
  EXPECT_TRUE(cu::try_parse_u64("7", nullptr));
}

TEST(EnvInt, ErrorNamesVariableAndValue) {
  ::setenv("CTS_TEST_ENV_INT", "12abc", 1);
  try {
    cu::env_int("CTS_TEST_ENV_INT", 5);
    FAIL() << "expected InvalidArgument";
  } catch (const cu::InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("CTS_TEST_ENV_INT"), std::string::npos);
    EXPECT_NE(what.find("12abc"), std::string::npos);
  }
  ::unsetenv("CTS_TEST_ENV_INT");
}
