// Small filesystem helpers shared by the tools.
//
// Every tool used to slurp files with an ifstream + rdbuf idiom that
// returns an empty string for a missing or unreadable path, so a typo'd
// argument surfaced later as a cryptic "json parse error at offset 0"
// instead of the actual problem.  read_text_file and write_text_file fail
// loudly, naming the path and the errno text.  make_dirs is mkdir -p: `cts_simd
// run --out-dir=a/b` must either create the whole chain or fail up front
// naming the path, not let a later open() produce a confusing error.

#pragma once

#include <string>

namespace cts::util {

/// Reads the whole of `path` as text.  Throws InvalidArgument naming the
/// path and the errno text when the file cannot be opened or read; an
/// existing empty file returns "".
std::string read_text_file(const std::string& path);

/// Non-throwing variant: returns false and stores the same message in
/// `*error` (when non-null) instead of throwing.
bool read_text_file(const std::string& path, std::string* out,
                    std::string* error);

/// Writes `text` to `path`, replacing any previous contents.  Throws
/// InvalidArgument naming the path and the errno text when the file cannot
/// be opened or fully written.
void write_text_file(const std::string& path, const std::string& text);

/// Creates `path` and any missing parent directories (mkdir -p).  Throws
/// InvalidArgument naming the first component that could not be created;
/// an existing directory is not an error.
void make_dirs(const std::string& path);

}  // namespace cts::util
