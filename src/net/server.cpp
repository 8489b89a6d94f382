#include "cts/net/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <utility>

#include "cts/net/socket.hpp"
#include "cts/net/stats.hpp"
#include "cts/obs/expfmt.hpp"
#include "cts/obs/json.hpp"
#include "cts/obs/profiler.hpp"
#include "cts/obs/span_stats.hpp"
#include "cts/obs/trace.hpp"
#include "cts/util/clock.hpp"
#include "cts/util/error.hpp"

namespace cts::net {

namespace {

constexpr double kRequestReadTimeoutS = 30.0;
constexpr double kReplyWriteTimeoutS = 60.0;
/// Accept poll interval: short enough that the budget stop is prompt.
constexpr double kAcceptTimeoutS = 0.25;
/// How long the accept thread spends on a connection over the cap.
constexpr double kBusyTimeoutS = 0.25;

/// The request's schema tag, or "" when it is not a JSON object with one.
std::string schema_of(const std::string& request) {
  try {
    const obs::JsonValue doc = obs::json_parse(request);
    const obs::JsonValue* tag = doc.find("schema");
    if (tag != nullptr && tag->is_string()) return tag->as_string();
  } catch (const util::Error&) {
    // Not JSON at all: the service's strict parser names the problem.
  }
  return "";
}

/// Answers a connection over the cap with `reply`.  The write side is shut
/// after the reply and the peer's request read and dropped before the
/// close: closing with unread bytes sends an RST, which can destroy the
/// reply before the client reads it.
void reply_busy(const Socket& sock, const std::string& reply) {
  try {
    send_frame(sock, reply, kBusyTimeoutS);
    ::shutdown(sock.fd(), SHUT_WR);
    (void)recv_frame(sock, kBusyTimeoutS);
  } catch (const util::Error&) {
    // The peer left or sent nothing in time; it has had its answer.
  }
}

}  // namespace

struct Server::Conn {
  Socket sock;
  std::thread thread;
  bool reading = true;  ///< no request delivered yet (guarded by mu_)
  bool done = false;    ///< thread body finished (guarded by mu_)
};

ServerOptions parse_server_options(const util::Flags& flags,
                                   const std::string& budget_flag) {
  ServerOptions opt;
  const std::int64_t port = flags.get_int("port", 0);
  util::require(port >= 0 && port <= 65535, "--port must be in [0, 65535]");
  opt.port = static_cast<std::uint16_t>(port);
  opt.port_file = flags.get_string("port-file", "");
  opt.budget_flag = budget_flag;
  opt.max_served = flags.get_int(budget_flag, 0);
  util::require(opt.max_served >= 0,
                "--" + budget_flag + " must be >= 0 (0 serves forever)");
  opt.quiet = flags.get_bool("quiet", false);
  opt.log_path = flags.get_string("log", "");
  opt.log_level = obs::parse_log_level(flags.get_string("log-level", "info"));
  opt.profile_path = flags.get_string("profile", "");
  opt.profile_folded = flags.get_string("profile-folded", "");
  const std::int64_t hz = flags.get_int("profile-hz", 97);
  util::require(hz >= 1 && hz <= 10000, "--profile-hz must be in [1, 10000]");
  opt.profile_hz = static_cast<int>(hz);
  opt.profile_backend = flags.get_string("profile-backend", "thread");
  return opt;
}

Server::Server(ServerOptions options) : opt_(std::move(options)) {}

Server::~Server() = default;

long long Server::served() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return served_;
}

int Server::run(const Service& service) {
  start_s_ = util::monotonic_s();
  // Event sink: --log beats stderr; --quiet silences the default stderr
  // sink but an explicit --log file still receives events.
  obs::EventLog& log = obs::EventLog::global();
  if (!opt_.log_path.empty()) {
    log.open(opt_.log_path);
  } else if (!opt_.quiet) {
    log.to_stream(&std::cerr);
  }
  log.set_min_level(opt_.log_level);
  // Spans feed the stats endpoint's span table (and shard jobs' obs
  // captures), so the recorder is always on in a daemon.
  obs::TraceRecorder::global().enable();

  Socket listener = listen_on(opt_.port, &port_);
  std::printf("%s: listening on port %u\n", service.name.c_str(),
              static_cast<unsigned>(port_));
  std::fflush(stdout);
  if (!opt_.port_file.empty()) {
    std::ofstream pf(opt_.port_file);
    pf << port_ << "\n";
    if (!pf) {
      std::fprintf(stderr, "%s: cannot write port file %s\n",
                   service.name.c_str(), opt_.port_file.c_str());
      return 2;
    }
  }
  const bool profiling =
      !opt_.profile_path.empty() || !opt_.profile_folded.empty();
  obs::Profiler& prof = obs::Profiler::global();
  if (profiling) {
    obs::Profiler::Options popts;
    popts.hz = opt_.profile_hz;
    popts.backend = opt_.profile_backend;
    prof.start(popts);
  }
  obs::log_info("daemon.start", {{"port", static_cast<std::int64_t>(port_)}});

  try {
    for (;;) {
      Socket sock = accept_connection(listener, kAcceptTimeoutS);
      reap_finished();
      if (sock.valid() && conns_.size() >= kMaxConnections) {
        obs::log_warn("conn.busy",
                      {{"live", static_cast<std::int64_t>(conns_.size())}});
        reply_busy(sock, service.encode_error(
                             service.name + ": busy: " +
                             std::to_string(kMaxConnections) +
                             " connections open, retry later"));
      } else if (sock.valid()) {
        Conn& conn = conns_.emplace_back();
        conn.sock = std::move(sock);
        conn.thread = std::thread(
            [this, &conn, &service] { serve_connection(conn, service); });
      }
      if (opt_.max_served > 0 && served() >= opt_.max_served) break;
    }
  } catch (...) {
    stop_connections();
    throw;
  }
  stop_connections();

  if (profiling) {
    prof.stop();
    if (!opt_.profile_path.empty() && !prof.write(opt_.profile_path)) {
      std::fprintf(stderr, "%s: cannot write profile %s\n",
                   service.name.c_str(), opt_.profile_path.c_str());
    }
    if (!opt_.profile_folded.empty() &&
        !prof.write_folded_file(opt_.profile_folded)) {
      std::fprintf(stderr, "%s: cannot write folded profile %s\n",
                   service.name.c_str(), opt_.profile_folded.c_str());
    }
    obs::log_info("profile.write",
                  {{"samples", static_cast<std::int64_t>(prof.sample_count())},
                   {"path", opt_.profile_path.empty() ? opt_.profile_folded
                                                      : opt_.profile_path}});
  }
  obs::log_info("daemon.exit", {{"served", static_cast<std::int64_t>(served_)},
                                {"reason", opt_.budget_flag}});
  if (!opt_.quiet) {
    std::fprintf(stderr, "[served %lld %s(s); exiting (--%s)]\n", served_,
                 service.unit.c_str(), opt_.budget_flag.c_str());
  }
  return 0;
}

/// One connection on its own thread: read the request, answer stats
/// queries here and everything else through the service, reply.  Every
/// failure path restores the shared counters.
void Server::serve_connection(Conn& conn, const Service& service) {
  bool counted_in_flight = false;
  try {
    const std::string request = recv_frame(conn.sock, kRequestReadTimeoutS);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      conn.reading = false;
    }
    if (schema_of(request) == kStatsRequestSchema) {
      send_frame(conn.sock, stats_reply(request, service),
                 kReplyWriteTimeoutS);
      obs::log_debug("stats.query", {});
    } else {
      {
        const std::lock_guard<std::mutex> lock(mu_);
        ++in_flight_;
        counted_in_flight = true;
      }
      const Reply reply = service.handle(request);
      send_frame(conn.sock, reply.text, kReplyWriteTimeoutS);
      const std::lock_guard<std::mutex> lock(mu_);
      ++served_;
      --in_flight_;
      counted_in_flight = false;
      ++(reply.ok ? ok_ : failed_);
      if (reply.retried) ++retried_;
    }
  } catch (const std::exception& e) {
    // A broken connection (or a failed handler) affects only that client;
    // keep serving.
    obs::log_warn("conn.error", {{"error", e.what()}});
    if (counted_in_flight) {
      const std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      // The reply never went out, but the budget was spent: count the
      // request as served so the budget and fault drills stay
      // deterministic.
      ++served_;
      ++failed_;
    }
  }
  const std::lock_guard<std::mutex> lock(mu_);
  conn.sock.close();
  conn.done = true;
}

std::string Server::stats_reply(const std::string& request,
                                const Service& service) {
  StatsFormat format = StatsFormat::kJson;
  try {
    format = parse_stats_request(request);
  } catch (const util::Error& e) {
    // Unknown format: answer in JSON rather than dropping the scrape; the
    // monitor's own parser will surface the mismatch.
    obs::log_warn("stats.bad_format", {{"error", e.what()}});
  }
  WorkerStats stats;
  stats.worker = service.name + ":" + std::to_string(port_);
  stats.pid = static_cast<std::int64_t>(::getpid());
  stats.uptime_s = util::monotonic_s() - start_s_;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_served_;  // this query counts itself
    stats.jobs_in_flight = in_flight_;
    stats.jobs_ok = ok_;
    stats.jobs_failed = failed_;
    stats.jobs_retried = retried_;
    stats.stats_served = stats_served_;
  }
  stats.metrics = metrics_.snapshot();
  if (service.add_gauges) service.add_gauges(&stats.metrics);
  stats.spans = obs::aggregate_spans(obs::TraceRecorder::global().events());
  if (format == StatsFormat::kJson) return write_stats_json(stats);

  // Exposition view: the lossless snapshot plus the liveness fields that
  // live outside the registry, labelled with the worker id.
  obs::MetricsShard shard = stats.metrics;
  const std::string& prefix = service.metric_prefix;
  shard.gauge(prefix + ".uptime_s", stats.uptime_s);
  shard.gauge(prefix + "." + service.unit + "s_in_flight",
              static_cast<double>(stats.jobs_in_flight));
  shard.add(prefix + ".stats_served", stats.stats_served);
  obs::OpenMetricsOptions om;
  om.labels = {{"worker", stats.worker}};
  std::ostringstream os;
  obs::write_openmetrics(os, shard, om);
  return os.str();
}

void Server::reap_finished() {
  // A done thread has left its last critical section, so joining it under
  // the lock cannot deadlock.
  const std::lock_guard<std::mutex> lock(mu_);
  conns_.remove_if([](Conn& conn) {
    if (conn.done) conn.thread.join();
    return conn.done;
  });
}

void Server::stop_connections() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (Conn& conn : conns_) {
      if (conn.reading && conn.sock.valid()) {
        ::shutdown(conn.sock.fd(), SHUT_RD);
      }
    }
  }
  for (Conn& conn : conns_) {
    if (conn.thread.joinable()) conn.thread.join();
  }
  conns_.clear();
}

}  // namespace cts::net
