// The cts.statsreq.v1 / cts.stats.v1 wire schema: a live status query a
// running cts_shardd answers on its job port, over the same length-prefixed
// framing as the job protocol.
//
// Request (client -> cts_shardd):
//
//   {"schema":"cts.statsreq.v1"}
//
// An optional "format" must be "json", the only reply encoding.  A server
// answers a request with any other format in JSON all the same (and logs
// stats.bad_format), so a monitor's own parser surfaces the mismatch.
//
// Reply (cts_shardd -> client):
//
//   {"schema":"cts.stats.v1",
//    "worker":"cts_shardd:9001","pid":4242,"uptime_s":12.5,
//    "jobs":{"in_flight":1,"ok":5,"failed":0,"retried":1},
//    "stats_served":3,
//    "metrics":{...},     // lossless snapshot, write_metrics_snapshot form
//    "spans":[{"name":"shardd.exec","count":5,"total_us":...,
//              "self_us":...,"min_us":...,"max_us":...},...]}
//
// The metrics section reuses the lossless snapshot format (Kahan terms,
// gauge modes, histogram moments), so a scraped snapshot merges exactly
// like an in-process registry.  Stats queries are answered concurrently
// with job execution and do not count against --max-jobs — a monitor
// polling a worker must never eat its job budget.  Parsing is strict and
// pure (no sockets) except query_stats, the one-call client convenience.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cts/net/socket.hpp"
#include "cts/obs/metrics.hpp"
#include "cts/obs/span_stats.hpp"

namespace cts::net {

inline constexpr char kStatsRequestSchema[] = "cts.statsreq.v1";
inline constexpr char kStatsSchema[] = "cts.stats.v1";

/// One worker's live status snapshot.
struct WorkerStats {
  std::string worker;               ///< identity, e.g. "cts_shardd:9001"
  std::int64_t pid = 0;
  double uptime_s = 0;
  std::uint64_t jobs_in_flight = 0;  ///< accepted, reply not yet sent
  std::uint64_t jobs_ok = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t jobs_retried = 0;    ///< jobs that arrived with attempt > 1
  std::uint64_t stats_served = 0;    ///< stats queries answered (incl. this)
  obs::MetricsShard metrics;         ///< lossless registry snapshot
  std::vector<obs::SpanAgg> spans;   ///< span self-time table
};

std::string write_stats_request_json();

/// Validates a cts.statsreq.v1 document; throws InvalidArgument on a wrong
/// schema tag or a format other than "json".
void parse_stats_request(const std::string& text);

std::string write_stats_json(const WorkerStats& stats);

/// Parses a cts.stats.v1 document; throws InvalidArgument on schema
/// violations.
WorkerStats parse_stats(const std::string& text);

/// One-call client: connects to `ep`, sends a stats request, receives and
/// parses the reply.  Throws NetError / NetTimeout / InvalidArgument.
WorkerStats query_stats(const Endpoint& ep, double timeout_s);

/// Same, but also returns the raw reply text via *raw_reply when non-null
/// (for tools that re-emit the schema-valid document verbatim).
WorkerStats query_stats(const Endpoint& ep, double timeout_s,
                        std::string* raw_reply);

}  // namespace cts::net
