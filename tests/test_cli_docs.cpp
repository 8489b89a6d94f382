// Docs-drift guard: docs/cli.md documents the CLI registry
// (cts/util/cli_registry.hpp), which is also what every tool's --help and
// warn_unknown use.  A flag added to the registry without a docs/cli.md
// mention fails here, and so does a section for a tool that is no longer
// registered, so the reference cannot rot silently.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "cts/util/cli_registry.hpp"

namespace cli = cts::util::cli;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string cli_doc() {
  return read_file(std::string(CTS_DOCS_DIR) + "/cli.md");
}

TEST(CliDocs, DocExistsAndNamesEveryTool) {
  const std::string doc = cli_doc();
  ASSERT_FALSE(doc.empty()) << "docs/cli.md missing or unreadable";
  for (const cli::ToolDoc& tool : cli::kTools) {
    EXPECT_NE(doc.find(std::string("## ") + tool.tool), std::string::npos)
        << "docs/cli.md does not have a section heading for '" << tool.tool
        << "'";
  }
  // And the reverse: a section for a tool that is gone from the registry
  // (a deleted binary) is stale.
  for (std::size_t at = doc.find("\n## "); at != std::string::npos;
       at = doc.find("\n## ", at + 1)) {
    const std::size_t start = at + 4;
    const std::string heading =
        doc.substr(start, doc.find('\n', start) - start);
    if (heading == "Environment variables") continue;
    bool registered = false;
    for (const cli::ToolDoc& tool : cli::kTools) {
      registered = registered || heading == tool.tool;
    }
    EXPECT_TRUE(registered) << "docs/cli.md has a section '" << heading
                            << "' for a tool missing from cli_registry.hpp";
  }
}

TEST(CliDocs, EveryRegisteredFlagIsDocumented) {
  const std::string doc = cli_doc();
  ASSERT_FALSE(doc.empty());
  for (const cli::ToolDoc& tool : cli::kTools) {
    // Flags must be documented inside their tool's section, not just
    // anywhere: shared names like --quiet appear under several tools.
    const std::size_t section = doc.find(std::string("## ") + tool.tool);
    ASSERT_NE(section, std::string::npos) << tool.tool;
    std::size_t section_end = doc.find("\n## ", section);
    if (section_end == std::string::npos) section_end = doc.size();
    const std::string body = doc.substr(section, section_end - section);
    for (std::size_t i = 0; i < tool.count; ++i) {
      const std::string needle = std::string("--") + tool.flags[i].name;
      EXPECT_NE(body.find(needle), std::string::npos)
          << "docs/cli.md section '" << tool.tool << "' is missing " << needle
          << " — update the doc to match cli_registry.hpp";
    }
  }
}

// And the reverse: a flag-table row for a flag the tool no longer has
// (a removed option) is stale.
TEST(CliDocs, EveryDocumentedFlagIsRegistered) {
  const std::string doc = cli_doc();
  ASSERT_FALSE(doc.empty());
  for (const cli::ToolDoc& tool : cli::kTools) {
    const std::size_t section = doc.find(std::string("## ") + tool.tool);
    ASSERT_NE(section, std::string::npos) << tool.tool;
    std::size_t section_end = doc.find("\n## ", section);
    if (section_end == std::string::npos) section_end = doc.size();
    const std::string row = "\n| `--";
    for (std::size_t at = doc.find(row, section);
         at != std::string::npos && at < section_end;
         at = doc.find(row, at + 1)) {
      const std::size_t start = at + row.size();
      const std::string name =
          doc.substr(start, doc.find_first_of("=` ", start) - start);
      bool registered = false;
      for (std::size_t i = 0; i < tool.count; ++i) {
        registered = registered || name == tool.flags[i].name;
      }
      EXPECT_TRUE(registered) << "docs/cli.md section '" << tool.tool
                              << "' documents --" << name
                              << ", which cli_registry.hpp does not list";
    }
  }
}

TEST(CliDocs, EveryEnvironmentVariableIsDocumented) {
  const std::string doc = cli_doc();
  ASSERT_FALSE(doc.empty());
  for (const cli::EnvDoc& env : cli::kEnvVars) {
    EXPECT_NE(doc.find(env.name), std::string::npos)
        << "docs/cli.md is missing environment variable " << env.name;
  }
}

}  // namespace
