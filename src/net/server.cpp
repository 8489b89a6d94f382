#include "cts/net/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <thread>
#include <utility>

#include "cts/net/socket.hpp"
#include "cts/net/stats.hpp"
#include "cts/obs/json.hpp"
#include "cts/obs/perf.hpp"
#include "cts/obs/span_stats.hpp"
#include "cts/util/clock.hpp"
#include "cts/util/error.hpp"

namespace cts::net {

namespace {

constexpr double kRequestReadTimeoutS = 30.0;
constexpr double kReplyWriteTimeoutS = 60.0;
/// How long an acceptor spends on a connection over the cap.
constexpr double kBusyTimeoutS = 0.25;
/// A reply this small fits a fresh connection's send buffer, so sending
/// it cannot block: its thread counts as back on the way to accept from
/// before the send.  Counted after it, the client's next connection can
/// reach the spare acceptor first and start a needless thread.
constexpr std::size_t kPromptReplyBytes = 1024;

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

struct Server::Acceptor {
  std::thread thread;   ///< not joinable for run()'s own thread
  int reading_fd = -1;  ///< its connection, until the request is in (mu_)
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
  opt.perf_path = flags.get_string("perf", "");
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
  const obs::ResourceProbe probe;
  // Event sink: --log beats stderr; --quiet silences the default stderr
  // sink but an explicit --log file still receives events.
  obs::EventLog& log = obs::EventLog::global();
  if (!opt_.log_path.empty()) {
    log.open(opt_.log_path);
  } else if (!opt_.quiet) {
    log.to_stream(&std::cerr);
  }
  log.set_min_level(opt_.log_level);

  listener_ = listen_on(opt_.port, &port_);
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
  obs::log_info("daemon.start", {{"port", static_cast<std::int64_t>(port_)}});

  // run()'s thread is the first acceptor.  Once it leaves the loop,
  // shutdown has begun and the pool no longer grows.
  Acceptor& first = acceptors_.emplace_back();
  idle_ = 1;
  accept_loop(first, service);
  for (Acceptor& acceptor : acceptors_) {
    if (acceptor.thread.joinable()) acceptor.thread.join();
  }
  acceptors_.clear();
  listener_.close();
  if (error_) std::rethrow_exception(error_);

  if (!opt_.perf_path.empty() &&
      !obs::write_perf_report(opt_.perf_path, probe,
                              {{"run_id", service.name}})) {
    std::fprintf(stderr, "%s: cannot write perf report %s\n",
                 service.name.c_str(), opt_.perf_path.c_str());
  }
  obs::log_info("daemon.exit", {{"served", static_cast<std::int64_t>(served_)},
                                {"reason", opt_.budget_flag}});
  if (!opt_.quiet) {
    std::fprintf(stderr, "[served %lld %s(s); exiting (--%s)]\n", served_,
                 service.unit.c_str(), opt_.budget_flag.c_str());
  }
  return 0;
}

/// One acceptor thread: take a connection, serve it here, go back to
/// accept.  Entered counted in idle_; returns once shutdown has begun.  An
/// exception stops the server and is kept for run() to rethrow.
void Server::accept_loop(Acceptor& self, const Service& service) {
  try {
    for (bool accepting = true; accepting;) {
      Socket sock = accept_blocking(listener_);
      bool busy = false;
      {
        const std::lock_guard<std::mutex> lock(mu_);
        --idle_;
        if (!sock.valid()) stop_locked();  // the listener was shut down
        if (stopping_) return;
        busy = live_ >= kMaxConnections;
        if (!busy) {
          ++live_;
          self.reading_fd = sock.fd();
        }
        if (idle_ == 0 && acceptors_.size() <= kMaxConnections) {
          start_acceptor_locked(service);
        }
      }
      if (busy) {
        obs::log_warn("conn.busy",
                      {{"live", static_cast<std::int64_t>(kMaxConnections)}});
        reply_busy(sock, service.encode_error(
                             service.name + ": busy: " +
                             std::to_string(kMaxConnections) +
                             " connections open, retry later"));
        const std::lock_guard<std::mutex> lock(mu_);
        accepting = !stopping_;
        if (accepting) ++idle_;
      } else {
        accepting = serve_connection(self, sock, service);
      }
    }
  } catch (...) {
    const std::lock_guard<std::mutex> lock(mu_);
    self.reading_fd = -1;  // unwinding has closed the connection
    if (!error_) error_ = std::current_exception();
    stop_locked();
  }
}

/// One connection on the acceptor that took it: read the request, answer
/// stats queries here and everything else through the service, reply.
/// Every path restores the shared counters.  Returns whether the thread
/// goes back to accept: false once shutdown has begun.
bool Server::serve_connection(Acceptor& self, Socket& sock,
                              const Service& service) {
  // What the shared counters hold for this request.  The answer is
  // counted before its send, so a client that has its reply finds it in
  // its next stats scrape; a send that fails moves it to failed_.
  enum class Counted { kNone, kInFlight, kAnswered, kReplied };
  Counted counted = Counted::kNone;  // kNone: reading, or a stats query
  bool idle = false;  // counted in idle_ ahead of a prompt reply
  Reply reply;
  double t0 = 0.0, t1 = 0.0, t2 = 0.0;
  try {
    t0 = util::monotonic_s();
    const std::string request = recv_frame(sock, kRequestReadTimeoutS);
    t1 = util::monotonic_s();
    const bool stats = schema_of(request) == kStatsRequestSchema;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      self.reading_fd = -1;
      if (!stats) {
        ++in_flight_;
        counted = Counted::kInFlight;
      }
    }
    if (stats) {
      reply.text = stats_reply(request, service);
      obs::log_debug("stats.query", {});
    } else {
      reply = service.handle(request);
      t2 = util::monotonic_s();
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (counted == Counted::kInFlight) {
        --in_flight_;
        ++(reply.ok ? ok_ : failed_);
        if (reply.retried) ++retried_;
        counted = Counted::kAnswered;
      }
      idle = reply.text.size() <= kPromptReplyBytes;
      if (idle) ++idle_;
    }
    send_frame(sock, reply.text, kReplyWriteTimeoutS);
    if (counted == Counted::kAnswered) counted = Counted::kReplied;
  } catch (const std::exception& e) {
    // A broken connection (or a failed handler) affects only that client;
    // keep serving.
    obs::log_warn("conn.error", {{"error", e.what()}});
  }
  bool accepting = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    self.reading_fd = -1;
    if (counted == Counted::kInFlight) {  // the handler threw
      --in_flight_;
      ++failed_;
    } else if (counted == Counted::kAnswered) {  // the send failed
      if (reply.ok) {
        --ok_;
        ++failed_;
      }
      if (reply.retried) --retried_;
    }
    if (counted != Counted::kNone) {
      // A reply that never went out still spent the budget: count the
      // request as served so the budget and fault drills stay
      // deterministic.
      ++served_;
      if (opt_.max_served > 0 && served_ >= opt_.max_served) stop_locked();
    }
    --live_;
    if (idle) --idle_;
    accepting = !stopping_;
    if (accepting) ++idle_;
  }
  sock.close();
  if (counted == Counted::kReplied) {
    const std::string& prefix = service.metric_prefix;
    obs::MetricsShard stages;
    stages.observe_log(prefix + ".recv_ms", (t1 - t0) * 1e3);
    stages.observe_log(prefix + ".handle_ms", (t2 - t1) * 1e3);
    stages.observe_log(prefix + ".send_ms", (util::monotonic_s() - t2) * 1e3);
    metrics_.merge(stages);
  }
  return accepting;
}

std::string Server::stats_reply(const std::string& request,
                                const Service& service) {
  try {
    parse_stats_request(request);
  } catch (const util::Error& e) {
    // Unknown format: answer in JSON, the only encoding, rather than
    // dropping the query; the monitor's own parser surfaces the mismatch.
    obs::log_warn("stats.bad_format", {{"error", e.what()}});
  }
  WorkerStats stats;
  std::size_t threads = 0;
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
    threads = acceptors_.size();
  }
  stats.metrics = metrics_.snapshot();
  stats.metrics.gauge(service.metric_prefix + ".threads",
                      static_cast<double>(threads));
  if (service.add_gauges) service.add_gauges(&stats.metrics);
  stats.spans = obs::spans_by_name(obs::SpanTable::global().paths());
  return write_stats_json(stats);
}

void Server::start_acceptor_locked(const Service& service) {
  Acceptor& acceptor = acceptors_.emplace_back();
  acceptor.thread = std::thread(
      [this, &acceptor, &service] { accept_loop(acceptor, service); });
  ++idle_;
}

void Server::stop_locked() {
  if (stopping_) return;
  stopping_ = true;
  // Wakes every acceptor blocked in accept(2); accept fails from now on.
  ::shutdown(listener_.fd(), SHUT_RD);
  for (const Acceptor& acceptor : acceptors_) {
    if (acceptor.reading_fd >= 0) ::shutdown(acceptor.reading_fd, SHUT_RD);
  }
}

}  // namespace cts::net
