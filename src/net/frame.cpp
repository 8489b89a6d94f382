#include "cts/net/frame.hpp"

#include <cstdint>

#include "cts/util/error.hpp"

namespace cts::net {

std::string encode_frame(const std::string& payload) {
  util::require(payload.size() <= kMaxFrameBytes,
                "frame payload of " + std::to_string(payload.size()) +
                    " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
                    "-byte frame limit");
  const auto n = static_cast<std::uint32_t>(payload.size());
  std::string out;
  out.reserve(4 + payload.size());
  out.push_back(static_cast<char>((n >> 24) & 0xff));
  out.push_back(static_cast<char>((n >> 16) & 0xff));
  out.push_back(static_cast<char>((n >> 8) & 0xff));
  out.push_back(static_cast<char>(n & 0xff));
  out += payload;
  return out;
}

void FrameDecoder::feed(const char* data, std::size_t n) {
  buf_.append(data, n);
}

bool FrameDecoder::next(std::string* payload) {
  if (buf_.size() < 4) return false;
  const auto b = [&](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(buf_[i]));
  };
  const std::uint32_t n = (b(0) << 24) | (b(1) << 16) | (b(2) << 8) | b(3);
  util::require(n <= kMaxFrameBytes,
                "frame header announces " + std::to_string(n) +
                    " bytes, above the " + std::to_string(kMaxFrameBytes) +
                    "-byte frame limit (protocol corruption?)");
  if (buf_.size() < 4 + static_cast<std::size_t>(n)) return false;
  payload->assign(buf_, 4, n);
  buf_.erase(0, 4 + static_cast<std::size_t>(n));
  return true;
}

}  // namespace cts::net
