// Unit tests for the cts::net layer behind cts_shardd / `cts_simd run
// --workers=`: length-prefixed framing (pure byte-string decoder), the
// retry/backoff schedule, the cts.job.v1 / cts.jobresult.v1 wire schema,
// worker-list parsing, and a loopback socket round trip with deadlines.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "cts/net/frame.hpp"
#include "cts/net/job.hpp"
#include "cts/net/retry.hpp"
#include "cts/net/socket.hpp"
#include "cts/obs/json.hpp"
#include "cts/util/error.hpp"

namespace net = cts::net;
namespace obs = cts::obs;
namespace cu = cts::util;

namespace {

// ---------------------------------------------------------------- framing

TEST(Frame, RoundTripsThroughTheDecoder) {
  net::FrameDecoder decoder;
  const std::string frame = net::encode_frame("hello");
  decoder.feed(frame.data(), frame.size());
  std::string payload;
  ASSERT_TRUE(decoder.next(&payload));
  EXPECT_EQ(payload, "hello");
  EXPECT_FALSE(decoder.next(&payload));
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Frame, DecodesBytewisePartialFeeds) {
  const std::string wire = net::encode_frame("ab") + net::encode_frame("");
  net::FrameDecoder decoder;
  std::vector<std::string> payloads;
  for (const char c : wire) {
    decoder.feed(&c, 1);
    std::string payload;
    while (decoder.next(&payload)) payloads.push_back(payload);
  }
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], "ab");
  EXPECT_EQ(payloads[1], "");
}

TEST(Frame, DecodesConcatenatedFramesInOrder) {
  net::FrameDecoder decoder;
  const std::string frames =
      net::encode_frame("one") + net::encode_frame("two");
  decoder.feed(frames.data(), frames.size());
  std::string payload;
  ASSERT_TRUE(decoder.next(&payload));
  EXPECT_EQ(payload, "one");
  ASSERT_TRUE(decoder.next(&payload));
  EXPECT_EQ(payload, "two");
}

TEST(Frame, OversizedHeaderIsProtocolCorruptionNotAnAllocation) {
  net::FrameDecoder decoder;
  const char header[4] = {'\x7f', '\x00', '\x00', '\x00'};  // ~2 GiB
  decoder.feed(header, sizeof(header));
  std::string payload;
  EXPECT_THROW(decoder.next(&payload), cu::InvalidArgument);
}

TEST(Frame, EncodeRejectsOversizedPayloads) {
  std::string big;
  big.resize(net::kMaxFrameBytes + 1);
  EXPECT_THROW(net::encode_frame(big), cu::InvalidArgument);
}

// ------------------------------------------------------------------ retry

TEST(RetryPolicy, ExponentialScheduleWithClamp) {
  net::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_delay_s = 0.2;
  policy.multiplier = 2.0;
  policy.max_delay_s = 0.5;
  EXPECT_DOUBLE_EQ(policy.delay_s(1), 0.0);  // first try is immediate
  EXPECT_DOUBLE_EQ(policy.delay_s(2), 0.2);
  EXPECT_DOUBLE_EQ(policy.delay_s(3), 0.4);
  EXPECT_DOUBLE_EQ(policy.delay_s(4), 0.5);  // clamped
  EXPECT_DOUBLE_EQ(policy.delay_s(5), 0.5);
}

TEST(RetryPolicy, BoundsAttempts) {
  net::RetryPolicy policy;
  policy.max_attempts = 3;
  EXPECT_TRUE(policy.should_retry(0));
  EXPECT_TRUE(policy.should_retry(2));
  EXPECT_FALSE(policy.should_retry(3));
}

// -------------------------------------------------------------- job schema

TEST(JobSchema, RequestRoundTrips) {
  net::JobRequest job;
  job.bench_id = "fig9_sim_markov";
  job.shard_index = 2;
  job.shard_count = 4;
  job.env = {{"REPRO_REPS", "3"}, {"REPRO_FRAMES", "500"}};
  job.timeout_s = 120;
  const net::JobRequest parsed = net::parse_job(net::write_job_json(job));
  EXPECT_EQ(parsed.bench_id, job.bench_id);
  EXPECT_EQ(parsed.shard_index, 2u);
  EXPECT_EQ(parsed.shard_count, 4u);
  EXPECT_EQ(parsed.env, job.env);
  EXPECT_DOUBLE_EQ(parsed.timeout_s, 120);
}

TEST(JobSchema, RejectsWrongSchemaTag) {
  EXPECT_THROW(net::parse_job(R"({"schema":"cts.job.v2","bench":"x",)"
                              R"("shard":{"index":0,"count":1},"env":{},)"
                              R"("timeout_s":1})"),
               cu::InvalidArgument);
}

TEST(JobSchema, RejectsNonAllowlistedEnv) {
  net::JobRequest job;
  job.bench_id = "table1";
  job.env = {{"LD_PRELOAD", "/tmp/evil.so"}};
  EXPECT_THROW(net::parse_job(net::write_job_json(job)),
               cu::InvalidArgument);
}

TEST(JobSchema, RejectsShardIndexOutOfRange) {
  EXPECT_THROW(net::parse_job(R"({"schema":"cts.job.v1","bench":"x",)"
                              R"("shard":{"index":3,"count":2},"env":{},)"
                              R"("timeout_s":1})"),
               cu::InvalidArgument);
}

// Integer fields off the wire are integers in range, or the job is
// refused: never truncated, never cast out of range.
TEST(JobSchema, RejectsNonIntegralNegativeAndHugeIntegers) {
  const auto job = [](const std::string& shard, const std::string& attempt) {
    return R"({"schema":"cts.job.v1","bench":"x","shard":)" + shard +
           R"(,"env":{},"timeout_s":1,"attempt":)" + attempt + "}";
  };
  EXPECT_NO_THROW(net::parse_job(job(R"({"index":0,"count":1})", "2")));
  for (const char* shard :
       {R"({"index":0.5,"count":1})", R"({"index":0,"count":1.5})",
        R"({"index":-1,"count":1})", R"({"index":0,"count":-1})",
        R"({"index":0,"count":9223372036854775808})",
        R"({"index":0,"count":1e300})"}) {
    EXPECT_THROW(net::parse_job(job(shard, "1")), cu::InvalidArgument)
        << shard;
  }
  for (const char* attempt : {"2.5", "-1", "2147483648", "1e300"}) {
    EXPECT_THROW(net::parse_job(job(R"({"index":0,"count":1})", attempt)),
                 cu::InvalidArgument)
        << attempt;
  }
}

TEST(JobSchema, ResultRoundTripsShardTextVerbatim) {
  net::JobResult result;
  result.ok = true;
  // The shard payload must survive as exact bytes — quotes, newlines and
  // %.17g doubles included — because the client writes it back untouched.
  result.shard_json =
      "{\"schema\":\"cts.shard.v1\",\n \"x\":0.10000000000000001}\n";
  result.elapsed_s = 1.5;
  const net::JobResult parsed =
      net::parse_job_result(net::write_job_result_json(result));
  EXPECT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.shard_json, result.shard_json);
  EXPECT_DOUBLE_EQ(parsed.elapsed_s, 1.5);
}

TEST(JobSchema, ResultErrorRoundTrips) {
  net::JobResult result;
  result.ok = false;
  result.error = "bench binary missing";
  const net::JobResult parsed =
      net::parse_job_result(net::write_job_result_json(result));
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(parsed.error, "bench binary missing");
}

TEST(JobSchema, OkResultWithoutShardIsInvalid) {
  EXPECT_THROW(net::parse_job_result(
                   R"({"schema":"cts.jobresult.v1","ok":true,)"
                   R"("elapsed_s":0,"shard":""})"),
               cu::InvalidArgument);
}

TEST(JobSchema, AttemptRoundTripsAndDefaultsToZero) {
  net::JobRequest job;
  job.bench_id = "fig9_sim_markov";
  job.shard_count = 2;
  job.attempt = 3;
  EXPECT_EQ(net::parse_job(net::write_job_json(job)).attempt, 3);

  // A request from an older client has no attempt member at all.
  const net::JobRequest parsed = net::parse_job(
      R"({"schema":"cts.job.v1","bench":"x",)"
      R"("shard":{"index":0,"count":1},"env":{},"timeout_s":1})");
  EXPECT_EQ(parsed.attempt, 0);
  EXPECT_THROW(net::parse_job(
                   R"({"schema":"cts.job.v1","bench":"x",)"
                   R"("shard":{"index":0,"count":1},"env":{},)"
                   R"("timeout_s":1,"attempt":-1})"),
               cu::InvalidArgument);
}

// Workers that predate the shard-only reply attach an "obs" section
// (job metrics, spans, clock marks).  It is ignored whatever it holds, so
// such a reply parses to the same ok / shard / elapsed_s as one without.
TEST(JobSchema, ResultIgnoresALegacyObsSection) {
  const std::string head =
      R"({"schema":"cts.jobresult.v1","ok":true,"elapsed_s":0.8,)"
      R"("shard":"{\"schema\":\"cts.shard.v1\"}\n")";
  const net::JobResult plain = net::parse_job_result(head + "}");
  for (const std::string obs :
       {R"({"recv_us":1000000,"send_us":1800000,)"
        R"("metrics":{"counters":{"shardd.jobs_ok":1},"sums":{},)"
        R"("gauges":{},"log_histograms":{}},)"
        R"("spans":[{"name":"shardd.job","tid":0,"ts_us":1000100,)"
        R"("dur_us":799000}]})",
        R"({"recv_us":100,"send_us":50})", "[]", "null"}) {
    const net::JobResult parsed =
        net::parse_job_result(head + R"(,"obs":)" + obs + "}");
    EXPECT_TRUE(parsed.ok) << obs;
    EXPECT_EQ(parsed.shard_json, plain.shard_json) << obs;
    EXPECT_EQ(parsed.elapsed_s, plain.elapsed_s) << obs;
  }
  EXPECT_EQ(plain.shard_json, "{\"schema\":\"cts.shard.v1\"}\n");
  EXPECT_DOUBLE_EQ(plain.elapsed_s, 0.8);
}

// A reply carries its request's outcome and shard only: the writer emits
// no "obs" member, for an ok reply or an error one.
TEST(JobSchema, ResultWriterEmitsNoObsSection) {
  net::JobResult ok;
  ok.ok = true;
  ok.shard_json = "{\"schema\":\"cts.shard.v1\"}\n";
  ok.elapsed_s = 0.8;
  net::JobResult failed;
  failed.ok = false;
  failed.error = "no obs here";
  for (const net::JobResult& result : {ok, failed}) {
    const std::string text = net::write_job_result_json(result);
    EXPECT_EQ(obs::json_parse(text).find("obs"), nullptr) << text;
    const net::JobResult parsed = net::parse_job_result(text);
    EXPECT_EQ(parsed.ok, result.ok) << text;
    EXPECT_EQ(parsed.shard_json, result.shard_json) << text;
    EXPECT_EQ(parsed.error, result.error) << text;
  }
}

// ------------------------------------------------------------ worker list

TEST(WorkerList, ParsesHostsAndPorts) {
  const std::vector<net::Endpoint> workers =
      net::parse_worker_list("127.0.0.1:9000,node-b:1234");
  ASSERT_EQ(workers.size(), 2u);
  EXPECT_EQ(workers[0].host, "127.0.0.1");
  EXPECT_EQ(workers[0].port, 9000);
  EXPECT_EQ(workers[1].str(), "node-b:1234");
}

TEST(WorkerList, RejectsMalformedEntriesNamingThem) {
  EXPECT_THROW(net::parse_worker_list(""), cu::InvalidArgument);
  EXPECT_THROW(net::parse_worker_list("localhost"), cu::InvalidArgument);
  EXPECT_THROW(net::parse_worker_list("host:0"), cu::InvalidArgument);
  EXPECT_THROW(net::parse_worker_list("host:70000"), cu::InvalidArgument);
  EXPECT_THROW(net::parse_worker_list("host:12x"), cu::InvalidArgument);
}

// --------------------------------------------------------- loopback socket

TEST(SocketLoopback, FramedRequestReplyRoundTrip) {
  std::uint16_t port = 0;
  net::Socket listener = net::listen_on(0, &port);
  ASSERT_TRUE(listener.valid());
  ASSERT_GT(port, 0);

  std::thread server([&] {
    net::Socket conn = net::accept_blocking(listener);
    ASSERT_TRUE(conn.valid());
    const std::string request = net::recv_frame(conn, 10.0);
    net::send_frame(conn, "echo:" + request, 10.0);
  });

  net::Socket client = net::connect_to({"127.0.0.1", port}, 10.0);
  net::send_frame(client, "ping", 10.0);
  EXPECT_EQ(net::recv_frame(client, 10.0), "echo:ping");
  server.join();
}

TEST(SocketLoopback, RecvTimesOutWhenNothingArrives) {
  std::uint16_t port = 0;
  net::Socket listener = net::listen_on(0, &port);
  std::thread server([&] {
    net::Socket conn = net::accept_blocking(listener);
    // Hold the connection open without sending: the client must time out
    // rather than block forever.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
  });
  net::Socket client = net::connect_to({"127.0.0.1", port}, 10.0);
  EXPECT_THROW(net::recv_frame(client, 0.1), net::NetTimeout);
  server.join();
}

TEST(SocketLoopback, PeerClosingMidFrameIsANetError) {
  std::uint16_t port = 0;
  net::Socket listener = net::listen_on(0, &port);
  std::thread server([&] {
    net::Socket conn = net::accept_blocking(listener);
    // One good frame, then a hard close — a worker dying between replies.
    net::send_frame(conn, "", 10.0);
  });
  net::Socket client = net::connect_to({"127.0.0.1", port}, 10.0);
  EXPECT_EQ(net::recv_frame(client, 10.0), "");
  // Server closed after one frame: the next recv sees EOF, not a timeout.
  EXPECT_THROW(net::recv_frame(client, 2.0), net::NetError);
  server.join();
}

// A cts_shardd job child is fork+exec'd from a daemon thread: an fd it
// inherits would keep the daemon's port bound and its peers' connections
// open after the daemon dies.
TEST(SocketLoopback, EverySocketIsCloseOnExecAndConnectionsNonBlocking) {
  std::uint16_t port = 0;
  const net::Socket listener = net::listen_on(0, &port);
  const net::Socket client = net::connect_to({"127.0.0.1", port}, 10.0);
  const net::Socket conn = net::accept_blocking(listener);
  ASSERT_TRUE(conn.valid());
  for (const net::Socket* sock : {&listener, &conn, &client}) {
    const int fd_flags = ::fcntl(sock->fd(), F_GETFD);
    ASSERT_GE(fd_flags, 0);
    EXPECT_NE(fd_flags & FD_CLOEXEC, 0) << "fd " << sock->fd();
  }
  for (const net::Socket* sock : {&conn, &client}) {
    EXPECT_NE(::fcntl(sock->fd(), F_GETFL) & O_NONBLOCK, 0)
        << "fd " << sock->fd();
  }
}

TEST(SocketLoopback, BlockingAcceptWakesWhenTheListenerShutsDown) {
  std::uint16_t port = 0;
  const net::Socket listener = net::listen_on(0, &port);
  const net::Socket client = net::connect_to({"127.0.0.1", port}, 10.0);
  const net::Socket conn = net::accept_blocking(listener);
  ASSERT_TRUE(conn.valid());
  EXPECT_NE(::fcntl(conn.fd(), F_GETFD) & FD_CLOEXEC, 0);

  std::thread waiter([&] { EXPECT_FALSE(net::accept_blocking(listener).valid()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(::shutdown(listener.fd(), SHUT_RD), 0);
  waiter.join();
}

TEST(SocketLoopback, ConnectToClosedPortFails) {
  std::uint16_t port = 0;
  {
    net::Socket listener = net::listen_on(0, &port);
  }  // listener closed: the port is (briefly) known-dead
  EXPECT_THROW(net::connect_to({"127.0.0.1", port}, 2.0), net::NetError);
}

}  // namespace
