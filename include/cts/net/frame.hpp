// Length-prefixed message framing for the shard-job protocol.
//
// Every message on a cts_shardd connection is one frame: a 4-byte
// big-endian payload length followed by that many bytes of UTF-8 JSON.
// The encoder and the incremental decoder are pure byte-string
// transformations — no sockets — so the framing layer is unit-testable
// byte by byte (partial feeds, concatenated frames, oversized headers).

#pragma once

#include <cstddef>
#include <string>

namespace cts::net {

/// Upper bound on one frame's payload (64 MiB).  A header announcing more
/// is treated as protocol corruption, not an allocation request.
inline constexpr std::size_t kMaxFrameBytes = 64u * 1024 * 1024;

/// Prepends the 4-byte big-endian length header.  Throws InvalidArgument
/// when `payload` exceeds kMaxFrameBytes.
std::string encode_frame(const std::string& payload);

/// Incremental frame decoder: feed() arbitrary byte chunks, next() yields
/// complete payloads in order.
class FrameDecoder {
 public:
  /// Appends `n` bytes to the internal buffer.
  void feed(const char* data, std::size_t n);

  /// Extracts the next complete payload into `*payload`; false when the
  /// buffered bytes do not yet hold a full frame.  Throws InvalidArgument
  /// when a header announces a payload above kMaxFrameBytes.
  bool next(std::string* payload);

  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered() const { return buf_.size(); }

 private:
  std::string buf_;
};

}  // namespace cts::net
