// The one monotonic clock behind every deadline, uptime and wall timer in
// the library and tools.

#pragma once

#include <chrono>

namespace cts::util {

/// Seconds on the monotonic clock.  The epoch is arbitrary: use it for
/// intervals and deadlines only.
inline double monotonic_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace cts::util
