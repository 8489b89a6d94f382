// ATM cell geometry (UNI format).
//
// A 53-byte ATM cell is a 5-byte header plus a 48-byte payload.  The
// library counts cells, never bytes on the wire: these constants turn a
// link rate into cells per second and an AAL5 PDU into whole cells.

#pragma once

#include <cstddef>

namespace cts::atm {

inline constexpr std::size_t kCellBytes = 53;
inline constexpr std::size_t kPayloadBytes = 48;

}  // namespace cts::atm
