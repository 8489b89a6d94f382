#include "cts/util/file.hpp"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "cts/util/error.hpp"

namespace cts::util {

namespace {

std::string errno_text() {
  return std::strerror(errno);
}

}  // namespace

std::string read_text_file(const std::string& path) {
  std::string out;
  std::string error;
  if (!read_text_file(path, &out, &error)) throw InvalidArgument(error);
  return out;
}

bool read_text_file(const std::string& path, std::string* out,
                    std::string* error) {
  errno = 0;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot read " + path + ": " + errno_text();
    }
    return false;
  }
  std::string text;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    if (error != nullptr) {
      *error = "cannot read " + path + ": " + errno_text();
    }
    return false;
  }
  if (out != nullptr) *out = std::move(text);
  return true;
}

void write_text_file(const std::string& path, const std::string& text) {
  errno = 0;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw InvalidArgument("cannot write " + path + ": " + errno_text());
  }
  const bool written = std::fwrite(text.data(), 1, text.size(), f) ==
                       text.size();
  // fclose flushes, so a full disk may only show here.
  if (std::fclose(f) != 0 || !written) {
    throw InvalidArgument("cannot write " + path + ": " + errno_text());
  }
}

void make_dirs(const std::string& path) {
  require(!path.empty(), "make_dirs: empty path");
  std::string prefix;
  prefix.reserve(path.size());
  std::size_t pos = 0;
  while (pos <= path.size()) {
    const std::size_t slash = path.find('/', pos);
    const std::size_t end = slash == std::string::npos ? path.size() : slash;
    prefix.assign(path, 0, end);
    pos = end + 1;
    if (prefix.empty() || prefix == ".") continue;  // leading "/" or "./"
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      throw InvalidArgument("cannot create directory " + prefix + ": " +
                            errno_text());
    }
    if (slash == std::string::npos) break;
  }
  // An existing non-directory (or EEXIST on a file) must still fail.
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    throw InvalidArgument("cannot create directory " + path +
                          ": not a directory");
  }
}

}  // namespace cts::util
