// The cts.job.v1 / cts.jobresult.v1 wire schema: one shard-execution
// request and its reply, as framed JSON (see frame.hpp).
//
// Request (client -> cts_shardd):
//
//   {"schema":"cts.job.v1",
//    "bench":"fig9_sim_markov",            // bench REGISTRY id, not a path
//    "shard":{"index":0,"count":4},
//    "env":{"REPRO_REPS":"3", ...},        // allowlisted REPRO_* only
//    "timeout_s":300}
//
// Reply (cts_shardd -> client):
//
//   {"schema":"cts.jobresult.v1","ok":true,"elapsed_s":1.2,
//    "shard":"<the worker's verbatim cts.shard.v1 file text>"}
//   {"schema":"cts.jobresult.v1","ok":false,"error":"..."}
//
// `attempt` (request) is the dispatcher's 1-based attempt counter for the
// shard, so a worker can count retried jobs; absent means 0 (unknown), so
// old clients interoperate.  A reply carries only its shard: the worker's
// own observability (job metrics, spans) stays readable where it is
// produced, through its cts.stats.v1 endpoint and its --perf report.
// Unknown reply members are ignored, so the `obs` section older workers
// still send parses as if it were absent.
//
// The shard payload travels as a JSON *string* (escaped), not a spliced
// object, so the client writes back byte-for-byte what the worker's bench
// process wrote — the %.17g round-trip precision that makes the merge
// bit-identical is never re-serialized in flight.  The bench id is an
// allowlist: the daemon resolves it through its own bench registry and
// refuses anything else, so a client can never make a worker exec an
// arbitrary path.  Parsing is strict and pure (no sockets), hence fully
// unit-testable.

#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace cts::net {

inline constexpr char kJobSchema[] = "cts.job.v1";
inline constexpr char kJobResultSchema[] = "cts.jobresult.v1";

/// Environment variables a job may set on the worker (the simulation-scale
/// overrides; anything else is rejected at parse time).
const std::vector<std::string>& job_env_allowlist();

/// One shard-execution request.
struct JobRequest {
  std::string bench_id;        ///< registry id (e.g. "fig9_sim_markov")
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::vector<std::pair<std::string, std::string>> env;  ///< allowlisted
  double timeout_s = 0;        ///< 0: worker default
  int attempt = 0;             ///< dispatcher attempt number, 0 = unknown
};

std::string write_job_json(const JobRequest& job);

/// Parses and validates a cts.job.v1 document; throws InvalidArgument on a
/// wrong schema tag, malformed shard spec, or non-allowlisted env key.
JobRequest parse_job(const std::string& text);

/// One shard-execution reply.
struct JobResult {
  bool ok = false;
  std::string error;       ///< when !ok
  std::string shard_json;  ///< verbatim cts.shard.v1 text when ok
  double elapsed_s = 0;
};

std::string write_job_result_json(const JobResult& result);

/// Parses a cts.jobresult.v1 document; throws InvalidArgument on schema
/// violations (an ok reply must carry a shard, an error reply a message).
JobResult parse_job_result(const std::string& text);

}  // namespace cts::net
