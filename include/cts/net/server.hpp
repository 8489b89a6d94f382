// The one daemon runtime behind the cts TCP services (cts_cacd, cts_shardd).
//
// A Server owns everything those daemons have in common: the listener (the port
// print and the --port-file write), the event sink, the cts.perf.v2 report
// written on exit, the daemon.start / daemon.exit events, the shared counters
// (served, ok, failed, retried, stats served, in flight), the metrics
// registry, the whole cts.statsreq.v1 branch (the cts.stats.v1 JSON reply)
// and the served-budget stop.  A daemon passes in only what differs, as a Service: its
// name and metric prefix, a handler that turns one request into a Reply, an
// encoder for an {"ok":false} reply in its own schema, and optionally extra
// gauges for the stats snapshot.
//
// Connections: a pool of acceptor threads, each of which blocks in
// accept(2), serves the connection it takes on its own thread (read one
// framed request, answer it, close) and goes back to accept.  A
// connection is never handed to another thread.  run()'s thread is the
// first acceptor; a thread that takes a connection while no other thread
// waits in accept first starts one more, so a stats scrape during a long
// handler always finds an acceptor.  At most kMaxConnections are live and
// at most kMaxConnections + 1 threads exist; they persist until shutdown.
// A thread that accepts over the cap answers with the service's "busy"
// error reply and closes.  Once the budget is spent, shutdown stops
// accepting, cuts the reads of connections that have not delivered a
// request yet, then joins every thread.  A handler still running (a shard
// job, a slow batch) is waited for, however long it takes: nothing an
// acceptor touches can go out of scope under it.

#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <list>
#include <mutex>
#include <string>

#include "cts/net/socket.hpp"
#include "cts/obs/event_log.hpp"
#include "cts/obs/metrics.hpp"
#include "cts/util/flags.hpp"

namespace cts::net {

/// Live connections one Server serves at a time.  The heaviest known
/// traffic is one closed-loop caller plus a stats scrape, or one job per
/// dispatcher worker, so the cap is far above need; it exists to turn a
/// connection flood into busy replies instead of a thread-creation crash.
/// The acceptor pool holds at most kMaxConnections + 1 threads: one per
/// live connection and one to answer the next with the busy reply.
inline constexpr std::size_t kMaxConnections = 64;

/// The serve flags every daemon shares.
struct ServerOptions {
  std::uint16_t port = 0;   ///< 0: ephemeral
  std::string port_file;    ///< written with the bound port when non-empty
  std::string budget_flag;  ///< "max-requests" / "max-jobs"
  long long max_served = 0; ///< replies before a clean exit; 0: forever
  bool quiet = false;
  std::string log_path;     ///< cts.events.v1 sink; else stderr unless quiet
  obs::LogLevel log_level = obs::LogLevel::kInfo;
  std::string perf_path;    ///< cts.perf.v2 report on clean exit
};

/// Parses --port, --port-file, --<budget_flag>, --quiet, --log,
/// --log-level and --perf.  Throws InvalidArgument on an out-of-range value:
/// a port outside [0, 65535], a negative budget or an unknown log level.
ServerOptions parse_server_options(const util::Flags& flags,
                                   const std::string& budget_flag);

/// A handler's answer to one request.
struct Reply {
  std::string text;      ///< the reply frame, in the daemon's own schema
  bool ok = false;       ///< counts as ok, else failed
  bool retried = false;  ///< the request was a client retry
};

/// What one daemon plugs into the runtime.
struct Service {
  std::string name;           ///< "cts_cacd": worker id, banner, messages
  std::string metric_prefix;  ///< "cacd": "cacd.threads", "cacd.recv_ms"
  std::string unit;           ///< "request": "[served 3 request(s); ...]"
  /// Answers one request that is not a stats query.  Runs on the
  /// acceptor thread that took the connection, concurrently with other
  /// connections.  If it throws, the connection closes without a reply,
  /// counted as failed.
  std::function<Reply(const std::string& request)> handle;
  /// Encodes an {"ok":false} reply carrying `error`: the busy reply.
  std::function<std::string(const std::string& error)> encode_error;
  /// Adds daemon-specific gauges to a stats snapshot; may be empty.
  std::function<void(obs::MetricsShard*)> add_gauges;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Daemon-lifetime registry; handlers merge their per-request shards
  /// into it and the stats endpoint snapshots it.
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Replies counted against the budget so far.
  long long served() const;

  /// Listens and serves until the budget is spent; returns the exit code
  /// (0 clean shutdown, 2 when the port file cannot be written).  Every
  /// acceptor thread has been joined when it returns or throws; an
  /// acceptor's exception is rethrown here.
  int run(const Service& service);

 private:
  struct Acceptor;

  void accept_loop(Acceptor& self, const Service& service);
  bool serve_connection(Acceptor& self, Socket& sock, const Service& service);
  std::string stats_reply(const std::string& request, const Service& service);
  void start_acceptor_locked(const Service& service);
  void stop_locked();

  ServerOptions opt_;
  std::uint16_t port_ = 0;
  double start_s_ = 0;
  obs::MetricsRegistry metrics_;

  Socket listener_;
  mutable std::mutex mu_;  ///< guards everything below
  long long served_ = 0;
  std::uint64_t ok_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t retried_ = 0;
  std::uint64_t stats_served_ = 0;
  std::uint64_t in_flight_ = 0;  ///< request read, handler not yet done
  std::size_t idle_ = 0;  ///< acceptors in accept, or back on their way
  std::size_t live_ = 0;  ///< connections taken and under the cap
  bool stopping_ = false;
  std::exception_ptr error_;  ///< the first exception an acceptor threw

  /// Every acceptor, run()'s own first.  Grows under mu_ until stopping_;
  /// declared last: the threads use all of the above.
  std::list<Acceptor> acceptors_;
};

}  // namespace cts::net
