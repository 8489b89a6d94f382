// cts-cacd: admission-control daemon — the paper's CAC rules as a service.
//
//   cts_cacd [serve] [--port=N] [--port-file=PATH] [--max-requests=N]
//            [--deadline=SECS] [--log=PATH] [--log-level=LEVEL] [--quiet]
//            [--perf=PATH]
//   cts_cacd query --port=N [--host=H] [--model=ID] [--capacity=C]
//            [--buffer=B] [--clr=L] [--kind=K,K,...] [--n=N] [--interp]
//            [--deadline=SECS] [--timeout=SECS] [--request-file=PATH]
//   cts_cacd eval [--model=ID] [--capacity=C] [--buffer=B] [--clr=L]
//            [--kind=K,K,...] [--n=N]
//
// serve (the default) runs on the shared daemon runtime
// (cts/net/server.hpp): it listens on a TCP port (0 = ephemeral; printed
// and, with --port-file, written to a file a launcher can poll) and
// answers two request schemas on the same port:
//
//   * cts.cac.v1 — a batch of admission/BOP queries against one source
//     model (zoo id or inline spec; see include/cts/net/cac.hpp).  Every
//     decision goes through a daemon-lifetime atm::CacCache: each model's
//     V(m) table is built once and shared by every later scan,
//     rate-function scans are memoized per (model, c, b), cache misses
//     warm-start their CTS scan from the nearest cached buffer point, and
//     opt-in "bop" probes may interpolate between cached grid points.
//     Admit answers are bit-identical to direct
//     admissible_connections_br/_eb calls.
//   * cts.statsreq.v1 — answered by the runtime with a cts.stats.v1
//     snapshot (requests in flight / ok / failed, the metrics registry
//     including the cacd.query_wall_ms log-histogram, the runtime's
//     cacd.recv_ms / handle_ms / send_ms stage histograms and cacd.threads
//     gauge, the cacd.cache_* gauges, span self-times).
//
// Each connection carries one request and is served by the pool thread
// that accepted it; at most 64 are live, and one more gets a
// {"ok":false} "busy" reply.  Once --max-requests replies are out,
// connections still waiting for a request are cut and every running batch
// is finished before the exit.
//
// Operational events (request served/rejected, connection errors,
// shutdown) are cts.events.v1 JSONL to --log, else stderr unless --quiet.
// A malformed request gets a named {"ok":false} reply — never a crash.
// The request deadline (request deadline_s, else --deadline, default 30s)
// bounds batch processing: queries past the deadline answer with a named
// per-query error instead of stalling the connection.
//
// query is the matching one-shot client (used by the loopback e2e test
// and the CI smoke): it builds one cts.cac.v1 batch from flags — one
// query per --kind entry — or sends --request-file verbatim, prints the
// raw cts.cacresult.v1 reply on stdout, and exits 0 on an ok reply, 1 on
// a request-level error reply, 2 on usage/network errors.  eval answers
// the same flags locally through direct library calls (no daemon, no
// cache) and prints the same document shape with "elapsed_s":0 — the
// golden the CI smoke diffs the daemon's answers against, byte-equal
// from run to run.
//
// Exit codes: serve 0 on clean shutdown (--max-requests), 2 on
// usage/setup errors; query/eval as above.

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "cts/atm/cac.hpp"
#include "cts/atm/cac_cache.hpp"
#include "cts/net/cac.hpp"
#include "cts/net/server.hpp"
#include "cts/net/socket.hpp"
#include "cts/obs/event_log.hpp"
#include "cts/obs/metrics.hpp"
#include "cts/obs/trace.hpp"
#include "cts/util/cli_registry.hpp"
#include "cts/util/clock.hpp"
#include "cts/util/error.hpp"
#include "cts/util/file.hpp"
#include "cts/util/flags.hpp"

namespace atm = cts::atm;
namespace fit = cts::fit;
namespace net = cts::net;
namespace obs = cts::obs;
namespace cu = cts::util;

namespace {

constexpr double kDefaultDeadlineS = 30.0;

void usage() {
  std::printf(
      "usage: cts_cacd [serve] [--port=N] [--port-file=PATH]\n"
      "                [--max-requests=N] [--deadline=SECS] [--log=PATH]\n"
      "                [--log-level=debug|info|warn|error] [--quiet]\n"
      "                [--perf=PATH]\n"
      "       cts_cacd query --port=N [--host=H] [--model=ID]\n"
      "                [--capacity=C] [--buffer=B] [--clr=L]\n"
      "                [--kind=admit_br,admit_eb,bop] [--n=N] [--interp]\n"
      "                [--deadline=SECS] [--timeout=SECS]\n"
      "                [--request-file=PATH]\n"
      "       cts_cacd eval  [--model=ID] [--capacity=C] [--buffer=B]\n"
      "                [--clr=L] [--kind=...] [--n=N]\n\n"
      "Admission-control service for the paper's CAC rules: serve answers\n"
      "cts.cac.v1 query batches (admit_br / admit_eb / bop) against a\n"
      "memoized analytic cache, plus cts.statsreq.v1 live stats on the\n"
      "same port.  query is the one-shot client (prints the raw\n"
      "cts.cacresult.v1 reply); eval computes the same answers locally\n"
      "through direct library calls — the golden for CI smokes.  Models\n"
      "are zoo ids (za:0.9, dar:0.9:2, l, white, ar1:0.8, farima:0.3,\n"
      "mginf:1.4, vv:1.5).  Exit codes: serve 0 clean shutdown, 2 setup\n"
      "error; query/eval 0 ok reply, 1 error reply, 2 usage/network.\n");
}

/// Answers one query through the shared cache.  Analytic failures (LRD
/// effective bandwidth, invalid problems) become per-query errors.
net::CacAnswer answer_query(const fit::ModelSpec& model,
                            const net::CacQuery& query,
                            atm::CacCache& cache) {
  net::CacAnswer answer;
  try {
    atm::CacProblem problem;
    problem.capacity_cells_per_frame = query.capacity;
    problem.buffer_cells = query.buffer;
    problem.log10_target_clr = query.log10_clr;
    switch (query.kind) {
      case net::CacQueryKind::kAdmitBr: {
        const atm::CacResult r = cache.admissible_br(model, problem);
        answer.admissible = r.admissible;
        answer.log10_bop = r.log10_bop_at_max;
        break;
      }
      case net::CacQueryKind::kAdmitEb: {
        const atm::CacResult r = cache.admissible_eb(model, problem);
        answer.admissible = r.admissible;
        answer.log10_bop = r.log10_bop_at_max;
        break;
      }
      case net::CacQueryKind::kBop: {
        problem.validate();
        if (query.interpolate) {
          const atm::CacCache::Stats before = cache.stats();
          answer.log10_bop =
              cache.log10_bop_interpolated(model, problem, query.n);
          answer.interpolated =
              cache.stats().interpolations > before.interpolations;
        } else {
          answer.log10_bop = cache.log10_bop(model, problem, query.n);
        }
        answer.admissible = 0;
        break;
      }
    }
    answer.ok = true;
  } catch (const cu::Error& e) {
    answer.ok = false;
    answer.error = e.what();
  }
  return answer;
}

/// Runs one request batch; fills in a cts.cacresult.v1 reply.
net::CacResponse run_request(const std::string& request_text,
                             double default_deadline_s, atm::CacCache& cache,
                             obs::MetricsRegistry& metrics) {
  obs::ScopedSpan request_span("cacd.request");
  net::CacResponse response;
  const double start = cu::monotonic_s();
  net::CacRequest request;
  fit::ModelSpec model;
  try {
    request = net::parse_cac_request(request_text);
    model = net::resolve_cac_model(request.model);
  } catch (const cu::Error& e) {
    response.ok = false;
    response.error = e.what();
    return response;
  }
  response.ok = true;
  response.model_name = model.name;
  const double deadline_s =
      request.deadline_s > 0 ? request.deadline_s : default_deadline_s;
  obs::MetricsShard batch_metrics;
  for (const net::CacQuery& query : request.queries) {
    if (cu::monotonic_s() - start > deadline_s) {
      net::CacAnswer late;
      late.ok = false;
      late.error = "cacd: deadline of " + std::to_string(deadline_s) +
                   "s exceeded before this query";
      response.answers.push_back(late);
      batch_metrics.add("cacd.queries_deadline");
      continue;
    }
    const double query_start = cu::monotonic_s();
    net::CacAnswer answer;
    {
      obs::ScopedSpan query_span("cacd.query");
      answer = answer_query(model, query, cache);
    }
    const double wall_ms = (cu::monotonic_s() - query_start) * 1e3;
    batch_metrics.add(answer.ok ? "cacd.queries_ok" : "cacd.queries_failed");
    batch_metrics.observe_log("cacd.query_wall_ms", wall_ms);
    response.answers.push_back(answer);
  }
  metrics.merge(batch_metrics);
  response.elapsed_s = cu::monotonic_s() - start;
  return response;
}

std::string error_reply(const std::string& error) {
  net::CacResponse response;
  response.ok = false;
  response.error = error;
  return net::write_cac_response_json(response);
}

int serve(const cu::Flags& flags) {
  net::Server server(net::parse_server_options(flags, "max-requests"));
  const double deadline_s = flags.get_double("deadline", kDefaultDeadlineS);
  cu::require(deadline_s > 0, "--deadline must be > 0");
  atm::CacCache cache;  // daemon-lifetime memo, internally synchronized

  net::Service service;
  service.name = "cts_cacd";
  service.metric_prefix = "cacd";
  service.unit = "request";
  service.handle = [&](const std::string& request) {
    const net::CacResponse response =
        run_request(request, deadline_s, cache, server.metrics());
    if (response.ok) {
      obs::log_info(
          "request.done",
          {{"model", response.model_name},
           {"queries", static_cast<std::int64_t>(response.answers.size())},
           {"wall_ms", response.elapsed_s * 1e3}});
    } else {
      obs::log_warn("request.reject", {{"error", response.error}});
    }
    return net::Reply{net::write_cac_response_json(response), response.ok,
                      false};
  };
  service.encode_error = error_reply;
  // Cache effectiveness travels as gauges so a monitor sees hit ratios
  // without a custom schema.
  service.add_gauges = [&cache](obs::MetricsShard* metrics) {
    const atm::CacCache::Stats stats = cache.stats();
    metrics->gauge("cacd.cache_rate_hits",
                   static_cast<double>(stats.rate_hits));
    metrics->gauge("cacd.cache_rate_misses",
                   static_cast<double>(stats.rate_misses));
    metrics->gauge("cacd.cache_warm_starts",
                   static_cast<double>(stats.warm_starts));
    metrics->gauge("cacd.cache_interpolations",
                   static_cast<double>(stats.interpolations));
    metrics->gauge("cacd.cache_entries",
                   static_cast<double>(stats.rate_entries));
    metrics->gauge("cacd.cache_table_lags",
                   static_cast<double>(stats.table_lags));
    metrics->gauge("cacd.cache_table_extensions",
                   static_cast<double>(stats.table_extensions));
  };
  return server.run(service);
}

/// Builds the cts.cac.v1 batch the query/eval modes share: one query per
/// --kind entry, all against the same link configuration.
net::CacRequest request_from_flags(const cu::Flags& flags) {
  net::CacRequest request;
  request.model.zoo_id = flags.get_string("model", "za:0.9");
  request.deadline_s = flags.get_double("deadline", 0.0);
  const std::string kinds = flags.get_string("kind", "admit_br");
  std::size_t start = 0;
  while (start <= kinds.size()) {
    const std::size_t comma = kinds.find(',', start);
    const std::string kind =
        kinds.substr(start, comma == std::string::npos ? std::string::npos
                                                       : comma - start);
    cu::require(!kind.empty(), "cts_cacd: empty entry in --kind list");
    net::CacQuery query;
    if (kind == "admit_br") {
      query.kind = net::CacQueryKind::kAdmitBr;
    } else if (kind == "admit_eb") {
      query.kind = net::CacQueryKind::kAdmitEb;
    } else if (kind == "bop") {
      query.kind = net::CacQueryKind::kBop;
      const std::int64_t n = flags.get_int("n", 1);
      cu::require(n >= 1, "cts_cacd: --n must be >= 1");
      query.n = static_cast<std::size_t>(n);
      query.interpolate = flags.get_bool("interp", false);
    } else {
      throw cu::InvalidArgument("cts_cacd: unknown --kind entry '" + kind +
                                "' (known: admit_br, admit_eb, bop)");
    }
    query.capacity = flags.get_double("capacity", 16140.0);
    query.buffer = flags.get_double("buffer", 4035.0);
    query.log10_clr = flags.get_double("clr", -6.0);
    request.queries.push_back(query);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return request;
}

int run_query(const cu::Flags& flags) {
  const std::int64_t port = flags.get_int("port", 0);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "cts_cacd: query needs --port in [1, 65535]\n");
    return 2;
  }
  net::Endpoint ep;
  ep.host = flags.get_string("host", "127.0.0.1");
  ep.port = static_cast<std::uint16_t>(port);
  const double timeout_s = flags.get_double("timeout", 30.0);

  std::string request_text;
  const std::string request_file = flags.get_string("request-file", "");
  if (!request_file.empty()) {
    request_text = cu::read_text_file(request_file);
  } else {
    request_text = net::write_cac_request_json(request_from_flags(flags));
  }

  net::Socket conn = net::connect_to(ep, timeout_s);
  net::send_frame(conn, request_text, timeout_s);
  const std::string reply = net::recv_frame(conn, timeout_s);
  const net::CacResponse response = net::parse_cac_response(reply);
  std::printf("%s\n", reply.c_str());
  return response.ok ? 0 : 1;
}

int run_eval(const cu::Flags& flags) {
  const net::CacRequest request = request_from_flags(flags);
  const fit::ModelSpec model = net::resolve_cac_model(request.model);
  net::CacResponse response;
  response.ok = true;
  response.model_name = model.name;
  for (const net::CacQuery& query : request.queries) {
    net::CacAnswer answer;
    try {
      atm::CacProblem problem;
      problem.capacity_cells_per_frame = query.capacity;
      problem.buffer_cells = query.buffer;
      problem.log10_target_clr = query.log10_clr;
      // Direct library calls, no shared cache: the golden the daemon's
      // answers are diffed against.
      switch (query.kind) {
        case net::CacQueryKind::kAdmitBr: {
          const atm::CacResult r =
              atm::admissible_connections_br(model, problem);
          answer.admissible = r.admissible;
          answer.log10_bop = r.log10_bop_at_max;
          break;
        }
        case net::CacQueryKind::kAdmitEb: {
          const atm::CacResult r =
              atm::admissible_connections_eb(model, problem);
          answer.admissible = r.admissible;
          answer.log10_bop = r.log10_bop_at_max;
          break;
        }
        case net::CacQueryKind::kBop: {
          problem.validate();
          atm::CacCache local;
          answer.log10_bop = local.log10_bop(model, problem, query.n);
          break;
        }
      }
      answer.ok = true;
    } catch (const cu::Error& e) {
      answer.ok = false;
      answer.error = e.what();
    }
    response.answers.push_back(answer);
  }
  // elapsed_s stays 0: a golden must not carry the wall clock, so two
  // evals of one query are byte-equal.
  std::printf("%s\n", net::write_cac_response_json(response).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const cu::Flags flags(argc, argv);
    if (flags.get_bool("help", false)) {
      usage();
      return 0;
    }
    cu::cli::check_flags(flags, cu::cli::flag_names(cu::cli::kCacdFlags),
                         std::cerr);

    std::string mode = "serve";
    if (argc > 1 && argv[1][0] != '-') mode = argv[1];
    if (mode == "query") return run_query(flags);
    if (mode == "eval") return run_eval(flags);
    if (mode != "serve") {
      std::fprintf(stderr,
                   "cts_cacd: unknown mode '%s' (serve, query, eval)\n",
                   mode.c_str());
      return 2;
    }

    return serve(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cts_cacd: %s\n", e.what());
    return 2;
  }
}
