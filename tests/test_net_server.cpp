// Unit tests for cts::net::Server, the daemon runtime behind cts_cacd and
// cts_shardd, driven in-process with a fake handler over loopback:
//
//   * a client that connects and never sends does not hold up shutdown,
//     and run() returns only after every running handler has finished;
//   * a flood past kMaxConnections gets a parseable busy reply (not a
//     crash, not an RST), and the server serves normally once it drains;
//   * a client that disconnects before its reply counts as served+failed;
//   * the stats endpoint's counters match the requests sent;
//   * the shared serve flags are parsed strictly;
//   * request spans fold into the stats span table, with no raw span log;
//   * a server built with a perf path writes its cts.perf.v2 report on a
//     clean exit;
//   * the acceptor pool: sequential clients reuse the same two threads,
//     and a flood past the cap never grows the process by more than the
//     pool's kMaxConnections + 1 threads.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cts/net/cac.hpp"
#include "cts/net/server.hpp"
#include "cts/net/socket.hpp"
#include "cts/net/stats.hpp"
#include "cts/obs/json.hpp"
#include "cts/obs/span_stats.hpp"
#include "cts/obs/trace.hpp"
#include "cts/util/clock.hpp"
#include "cts/util/error.hpp"
#include "cts/util/file.hpp"
#include "cts/util/flags.hpp"

namespace net = cts::net;
namespace cu = cts::util;

namespace {

constexpr double kIoTimeoutS = 5.0;

/// Replies in the cts.cacresult.v1 schema, so the existing response
/// parser checks every reply the fake service sends.
std::string cac_reply(bool ok, const std::string& error) {
  net::CacResponse response;
  response.ok = ok;
  response.error = error;
  return net::write_cac_response_json(response);
}

using Handler = std::function<net::Reply(const std::string&, net::Server&)>;

/// A Server running on its own thread with the fake service.  `handle`
/// stands in for a daemon's request handler.
class RunningServer {
 public:
  RunningServer(const std::string& name, long long budget, Handler handle,
                std::string perf_path = "")
      : port_file_(::testing::TempDir() + "/" + name + ".port") {
    std::remove(port_file_.c_str());
    net::ServerOptions opt;
    opt.port_file = port_file_;
    opt.perf_path = std::move(perf_path);
    opt.budget_flag = "max-requests";
    opt.max_served = budget;
    opt.quiet = true;
    server_ = std::make_unique<net::Server>(opt);
    service_.name = name;
    service_.metric_prefix = "srv";
    service_.unit = "request";
    service_.handle = [this, handle](const std::string& request) {
      return handle(request, *server_);
    };
    service_.encode_error = [](const std::string& error) {
      return cac_reply(false, error);
    };
    service_.add_gauges = [](cts::obs::MetricsShard* metrics) {
      metrics->gauge("srv.extra", 7.0);
    };
    thread_ = std::thread([this] {
      rc_ = server_->run(service_);
      returned_at_ = cu::monotonic_s();
    });
  }

  ~RunningServer() {
    if (thread_.joinable()) thread_.join();
  }

  /// The bound port, once the server has written its port file.
  net::Endpoint endpoint() {
    for (int i = 0; i < 500; ++i) {
      std::string text;
      if (cu::read_text_file(port_file_, &text, nullptr) &&
          text.find('\n') != std::string::npos) {
        return {"127.0.0.1", static_cast<std::uint16_t>(std::stoi(text))};
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "server never wrote " << port_file_;
    return {};
  }

  /// Waits for run() to return; its exit code.
  int join() {
    thread_.join();
    return rc_;
  }

  net::Server& server() { return *server_; }
  double returned_at() const { return returned_at_; }

 private:
  std::string port_file_;
  std::unique_ptr<net::Server> server_;
  net::Service service_;
  std::thread thread_;
  int rc_ = -1;
  double returned_at_ = 0;
};

/// One request/reply round trip on a fresh connection.
std::string round_trip(const net::Endpoint& ep, const std::string& request) {
  const net::Socket sock = net::connect_to(ep, kIoTimeoutS);
  net::send_frame(sock, request, kIoTimeoutS);
  return net::recv_frame(sock, kIoTimeoutS);
}

net::Reply ok_reply() { return {cac_reply(true, ""), true, false}; }

/// Threads in this process right now.
std::size_t process_threads() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(
      std::distance(std::filesystem::begin(tasks), std::filesystem::end(tasks)));
}

TEST(NetServer, StalledClientDoesNotHoldUpShutdown) {
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  std::promise<void> slow_running;
  RunningServer rs("stall", 1, [&](const std::string& request, net::Server&) {
    ++started;
    if (request == "slow") {
      slow_running.set_value();
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
    ++finished;
    return ok_reply();
  });
  const net::Endpoint ep = rs.endpoint();

  // Connects and never sends: without the read cut, its thread would sit
  // in recv for the full 30 s request timeout.
  const net::Socket stalled = net::connect_to(ep, kIoTimeoutS);
  // A slow request still running when the budget is spent.
  const net::Socket slow = net::connect_to(ep, kIoTimeoutS);
  net::send_frame(slow, "slow", kIoTimeoutS);
  slow_running.get_future().wait();

  ASSERT_TRUE(net::parse_cac_response(round_trip(ep, "fast")).ok);
  const double budget_spent_at = cu::monotonic_s();
  EXPECT_EQ(rs.join(), 0);
  EXPECT_LT(rs.returned_at() - budget_spent_at, 1.0);
  // run() waited for the slow handler, and its reply still went out.
  EXPECT_EQ(started.load(), 2);
  EXPECT_EQ(finished.load(), 2);
  EXPECT_TRUE(net::parse_cac_response(net::recv_frame(slow, kIoTimeoutS)).ok);
  // The stalled client was cut, not left hanging.
  EXPECT_THROW((void)net::recv_frame(stalled, kIoTimeoutS), net::NetError);
}

TEST(NetServer, FloodPastTheCapGetsABusyReplyThenServesAgain) {
  RunningServer rs("flood", 1, [](const std::string&, net::Server&) {
    return ok_reply();
  });
  const net::Endpoint ep = rs.endpoint();

  // Paced so the listen backlog never overflows: the server accepts the
  // idle connections in order, each on its own reading thread.
  std::vector<net::Socket> idle;
  for (std::size_t i = 0; i < net::kMaxConnections; ++i) {
    idle.push_back(net::connect_to(ep, kIoTimeoutS));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // One over the cap.  The request is on the wire before the busy reply
  // and the reply is read only after the server has closed: had the
  // server closed with the request unread, its RST would destroy the
  // reply.
  {
    const net::Socket extra = net::connect_to(ep, kIoTimeoutS);
    net::send_frame(extra, "request", kIoTimeoutS);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const net::CacResponse busy =
        net::parse_cac_response(net::recv_frame(extra, kIoTimeoutS));
    EXPECT_FALSE(busy.ok);
    EXPECT_NE(busy.error.find("busy"), std::string::npos) << busy.error;
  }

  idle.clear();
  bool served = false;
  const double deadline = cu::monotonic_s() + 10.0;
  while (!served && cu::monotonic_s() < deadline) {
    served = net::parse_cac_response(round_trip(ep, "request")).ok;
    if (!served) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(served);
  EXPECT_EQ(rs.join(), 0);
}

TEST(NetServer, DroppedClientCountsAsServedAndFailed) {
  std::promise<void> entered;
  std::promise<void> client_gone;
  const std::future<void> gone = client_gone.get_future();
  RunningServer rs("drop", 2, [&](const std::string& request, net::Server&) {
    if (request == "drop") {
      entered.set_value();
      gone.wait();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return ok_reply();
  });
  const net::Endpoint ep = rs.endpoint();

  {
    const net::Socket sock = net::connect_to(ep, kIoTimeoutS);
    net::send_frame(sock, "drop", kIoTimeoutS);
    entered.get_future().wait();
    // Abortive close: the reset reaches the server before its reply does.
    const linger abort_close{1, 0};
    ASSERT_EQ(::setsockopt(sock.fd(), SOL_SOCKET, SO_LINGER, &abort_close,
                           sizeof(abort_close)),
              0);
  }
  client_gone.set_value();

  const double deadline = cu::monotonic_s() + 10.0;
  while (rs.server().served() < 1 && cu::monotonic_s() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const net::WorkerStats stats = net::query_stats(ep, kIoTimeoutS);
  EXPECT_EQ(rs.server().served(), 1);
  EXPECT_EQ(stats.jobs_ok, 0u);
  EXPECT_EQ(stats.jobs_failed, 1u);
  EXPECT_EQ(stats.jobs_in_flight, 0u);

  EXPECT_TRUE(net::parse_cac_response(round_trip(ep, "request")).ok);
  EXPECT_EQ(rs.join(), 0);
}

TEST(NetServer, StatsCountersMatchTheRequestsSent) {
  RunningServer rs("stats", 4, [](const std::string& request,
                                  net::Server& server) {
    cts::obs::MetricsShard shard;
    shard.add("srv.handled");
    server.metrics().merge(shard);
    return net::Reply{cac_reply(request != "bad", ""), request != "bad",
                      request == "retry"};
  });
  const net::Endpoint ep = rs.endpoint();

  for (const char* request : {"good", "bad", "retry"}) {
    (void)round_trip(ep, request);
  }
  const net::WorkerStats stats = net::query_stats(ep, kIoTimeoutS);
  EXPECT_EQ(stats.worker, "stats:" + std::to_string(ep.port));
  EXPECT_EQ(stats.jobs_ok, 2u);
  EXPECT_EQ(stats.jobs_failed, 1u);
  EXPECT_EQ(stats.jobs_retried, 1u);
  EXPECT_EQ(stats.jobs_in_flight, 0u);
  EXPECT_EQ(stats.stats_served, 1u);
  EXPECT_EQ(stats.metrics.counters().at("srv.handled"), 3u);
  EXPECT_EQ(stats.metrics.gauges().at("srv.extra").value, 7.0);

  // JSON is the only encoding: a request for another format still gets
  // the cts.stats.v1 document, and counts as a served stats query.
  const net::WorkerStats other = net::parse_stats(round_trip(
      ep, R"({"schema":"cts.statsreq.v1","format":"openmetrics"})"));
  EXPECT_EQ(other.stats_served, 2u);
  EXPECT_EQ(other.jobs_ok, 2u);
  EXPECT_EQ(other.metrics.gauges().at("srv.extra").value, 7.0);

  // Stats queries never spend the budget: the fourth request ends run().
  (void)round_trip(ep, "good");
  EXPECT_EQ(rs.join(), 0);
  EXPECT_EQ(rs.server().served(), 4);
}

TEST(NetServer, ServeFlagsAreParsedStrictly) {
  auto parse = [](std::vector<const char*> argv) {
    argv.insert(argv.begin(), "daemon");
    const cu::Flags flags(static_cast<int>(argv.size()), argv.data());
    return net::parse_server_options(flags, "max-requests");
  };
  const net::ServerOptions defaults = parse({});
  EXPECT_EQ(defaults.max_served, 0);
  EXPECT_EQ(parse({"--max-requests=3"}).max_served, 3);
  EXPECT_EQ(defaults.perf_path, "");
  EXPECT_EQ(parse({"--perf=p.json"}).perf_path, "p.json");

  EXPECT_THROW(parse({"--max-requests=-1"}), cu::InvalidArgument);
  EXPECT_THROW(parse({"--port=65536"}), cu::InvalidArgument);
  EXPECT_THROW(parse({"--log-level=loud"}), cu::InvalidArgument);
}

// A daemon keeps no raw span log: spans fold into the bounded table, which
// the stats endpoint reports per name.
TEST(NetServer, SpansFoldIntoTheStatsTableWithoutARawLog) {
  cts::obs::SpanTable::global().reset();
  cts::obs::TraceRecorder::global().reset();
  constexpr int kRequests = 2000;
  RunningServer rs("spans", kRequests + 1, [](const std::string& request,
                                              net::Server&) {
    if (request == "span") {
      cts::obs::ScopedSpan parent("srv.request");
      cts::obs::ScopedSpan child("srv.query");
    }
    return ok_reply();
  });
  const net::Endpoint ep = rs.endpoint();
  for (int i = 0; i < kRequests; ++i) (void)round_trip(ep, "span");

  const net::WorkerStats stats = net::query_stats(ep, kIoTimeoutS);
  EXPECT_EQ(cts::obs::TraceRecorder::global().event_count(), 0u);
  for (const char* name : {"srv.request", "srv.query"}) {
    const auto it = std::find_if(
        stats.spans.begin(), stats.spans.end(),
        [name](const cts::obs::SpanAgg& s) { return s.name == name; });
    ASSERT_NE(it, stats.spans.end()) << name;
    EXPECT_EQ(it->count, static_cast<std::uint64_t>(kRequests)) << name;
  }
  (void)round_trip(ep, "last");
  EXPECT_EQ(rs.join(), 0);
  EXPECT_EQ(cts::obs::TraceRecorder::global().event_count(), 0u);
}

// --perf: the report appears only once run() returns from a clean exit, with
// the rusage since run() began and the request spans under their path.
TEST(NetServer, PerfPathWritesTheReportOnCleanExit) {
  cts::obs::SpanTable::global().reset();
  const std::string perf = ::testing::TempDir() + "/server_perf.json";
  std::remove(perf.c_str());
  RunningServer rs(
      "perf", 2,
      [](const std::string&, net::Server&) {
        cts::obs::ScopedSpan span("srv.request");
        return ok_reply();
      },
      perf);
  const net::Endpoint ep = rs.endpoint();
  (void)round_trip(ep, "first");
  EXPECT_FALSE(std::filesystem::exists(perf));
  (void)round_trip(ep, "last");
  EXPECT_EQ(rs.join(), 0);

  const cts::obs::JsonValue doc =
      cts::obs::json_parse(cu::read_text_file(perf));
  EXPECT_EQ(doc.at("schema").as_string(), "cts.perf.v2");
  EXPECT_EQ(doc.at("info").at("run_id").as_string(), "perf");
  EXPECT_GT(doc.at("resources").at("wall_s").as_number(), 0.0);
  bool request_path = false;
  for (const cts::obs::JsonValue& entry : doc.at("paths").items) {
    if (entry.at("path").as_string() != "srv.request") continue;
    request_path = true;
    EXPECT_EQ(entry.int_at("count"), 2);
    EXPECT_GE(entry.int_at("cpu_self_us"), 0);
  }
  EXPECT_TRUE(request_path) << cu::read_text_file(perf);
  cts::obs::SpanTable::global().reset();
}

TEST(NetServer, SequentialRoundTripsAreServedByAtMostTwoThreads) {
  std::mutex mu;
  std::set<pid_t> tids;
  RunningServer rs("reuse", 100, [&](const std::string&, net::Server&) {
    const std::lock_guard<std::mutex> lock(mu);
    tids.insert(::gettid());
    return ok_reply();
  });
  const net::Endpoint ep = rs.endpoint();

  // The thread that accepts a connection serves it and goes back to
  // accept: one closed-loop caller needs that thread plus the spare it
  // started, never a thread per request.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(net::parse_cac_response(round_trip(ep, "request")).ok);
  }
  EXPECT_EQ(rs.join(), 0);
  EXPECT_GE(tids.size(), 1u);
  EXPECT_LE(tids.size(), 2u);
}

TEST(NetServer, ThreadCountStaysBoundedPastTheCap) {
  std::atomic<bool> sampling{true};
  std::atomic<std::size_t> peak{0};
  std::thread sampler([&] {
    while (sampling.load()) {
      const std::size_t now = process_threads();
      if (now > peak.load()) peak.store(now);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const std::size_t before = process_threads();
  RunningServer rs("bound", 1, [](const std::string&, net::Server&) {
    return ok_reply();
  });
  const net::Endpoint ep = rs.endpoint();

  // kMaxConnections idle connections, each holding an acceptor in recv.
  // Their acceptors plus the spare that answers the next connection are
  // the pool's kMaxConnections + 1 threads.
  std::vector<net::Socket> held;
  for (std::size_t i = 0; i < net::kMaxConnections; ++i) {
    held.push_back(net::connect_to(ep, kIoTimeoutS));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const double deadline = cu::monotonic_s() + 10.0;
  while (process_threads() < before + net::kMaxConnections + 1 &&
         cu::monotonic_s() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Eight more, all held open at once: each gets the busy reply.
  for (int i = 0; i < 8; ++i) {
    net::Socket extra = net::connect_to(ep, kIoTimeoutS);
    net::send_frame(extra, "request", kIoTimeoutS);
    const net::CacResponse busy =
        net::parse_cac_response(net::recv_frame(extra, kIoTimeoutS));
    EXPECT_FALSE(busy.ok);
    EXPECT_NE(busy.error.find("busy"), std::string::npos) << busy.error;
    held.push_back(std::move(extra));
  }
  EXPECT_EQ(held.size(), net::kMaxConnections + 8);

  held.clear();
  bool served = false;
  const double serve_deadline = cu::monotonic_s() + 10.0;
  while (!served && cu::monotonic_s() < serve_deadline) {
    served = net::parse_cac_response(round_trip(ep, "request")).ok;
    if (!served) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(served);
  EXPECT_EQ(rs.join(), 0);
  sampling.store(false);
  sampler.join();
  EXPECT_LE(peak.load(), before + net::kMaxConnections + 2);
}

}  // namespace
