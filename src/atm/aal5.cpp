#include "cts/atm/aal5.hpp"

#include <algorithm>
#include <cmath>

#include "cts/obs/metrics.hpp"

namespace cts::atm {

namespace {

constexpr std::size_t kTrailerBytes = 8;

}  // namespace

std::uint64_t aal5_cells_for_payload(std::uint64_t payload_bytes) {
  const std::uint64_t total = payload_bytes + kTrailerBytes;
  return (total + kPayloadBytes - 1) / kPayloadBytes;
}

double Aal5Framer::add(double frame_cells) {
  const std::uint64_t payload_cells = static_cast<std::uint64_t>(
      std::llround(std::max(frame_cells, 0.0)));
  if (payload_cells == 0) return 0.0;  // an empty frame sends no PDU
  const std::uint64_t wire_cells =
      aal5_cells_for_payload(payload_cells * kPayloadBytes);
  ++pdus_;
  payload_cells_ += payload_cells;
  wire_cells_ += wire_cells;
  return static_cast<double>(wire_cells);
}

void Aal5Framer::flush(obs::MetricsShard& shard) {
  if (pdus_ == 0) return;
  shard.add("atm.aal5.pdus", pdus_);
  shard.add("atm.aal5.payload_cells", payload_cells_);
  shard.add("atm.aal5.cells", wire_cells_);
  pdus_ = 0;
  payload_cells_ = 0;
  wire_cells_ = 0;
}

}  // namespace cts::atm
