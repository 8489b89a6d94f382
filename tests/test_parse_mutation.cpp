// Seeded mutation test for the parsers that read what other processes
// or people wrote: cts.shard.v1 (parse_shard_file), the metrics snapshot
// inside it (metrics_snapshot_from_json), cts.scenarioresult.v1
// (parse_scenario_result), cts.scenario.v1 specs (parse_scenario),
// cts.bench.v1 baselines (json_parse through parse_baseline and the
// gate's build_trend), the wire documents the daemons and their clients
// exchange: cts.cac.v1 / cts.cacresult.v1 (parse_cac_request,
// parse_cac_response), cts.job.v1 / cts.jobresult.v1 (parse_job,
// parse_job_result) and cts.stats.v1 (parse_stats), and the length-prefixed
// frames that carry them (net::FrameDecoder).  Each seed comes from the
// real writers or the repository: a shard file recorded by run_replicated
// through the ShardRecorder, the committed result of
// examples/scenarios/policed_smoothed.scn, the five example specs, a
// committed BENCH_*.json, and the net write_*_json functions.  Every
// mutant must be accepted or rejected with a cts::util::Error, never
// crash, hang or escape with another exception type.  The run is
// deterministic (fixed seeds, fixed iteration counts), so a failure
// reproduces exactly; under the sanitizer build a cast out of range or an
// overflow in a parser fails it too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cts/fit/model_zoo.hpp"
#include "cts/net/cac.hpp"
#include "cts/net/frame.hpp"
#include "cts/net/job.hpp"
#include "cts/net/stats.hpp"
#include "cts/obs/bench_trend.hpp"
#include "cts/obs/json.hpp"
#include "cts/obs/metrics.hpp"
#include "cts/sim/replication.hpp"
#include "cts/sim/scenario.hpp"
#include "cts/sim/scenario_run.hpp"
#include "cts/sim/shard.hpp"
#include "cts/util/error.hpp"
#include "cts/util/file.hpp"

namespace net = cts::net;
namespace obs = cts::obs;
namespace sim = cts::sim;
namespace cu = cts::util;

namespace {

constexpr int kMutantsPerSeed = 20000;

/// Edits a document at random, favouring the tokens a parser must police:
/// numbers swapped for fractional, negative, huge or out-of-range values,
/// structural characters, truncation and duplicated spans.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string mutate(std::string text) {
    const std::size_t edits = 1 + below(3);
    for (std::size_t i = 0; i < edits && !text.empty(); ++i) edit(&text);
    return text;
  }

 private:
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(rng_() % n);
  }

  template <std::size_t N>
  const char* pick(const char* const (&items)[N]) {
    return items[below(N)];
  }

  void edit(std::string* text) {
    static const char* const kValues[] = {
        "1.9",  "0.5",   "-1",    "-0",   "0",     "1e300",  "-1e300",
        "1e19", "9.3e18", "2147483648",  "18446744073709551616", "4.5",
        "1e-320", "\"18446744073709551616\"", "\"-1\"", "\"\"", "\"x\"",
        "null", "true", "[]", "{}", "[1e300]", "{\"a\":1}"};
    static const char* const kBytes[] = {"\"", "{", "}", "[", "]", ",",
                                         ":",  "-", ".", "e", "9", "\\",
                                         " ",  "0", "\x01", "\xff"};
    const std::size_t at = below(text->size());
    switch (below(6)) {
      case 0:  // overwrite one byte
        (*text)[at] = pick(kBytes)[0];
        break;
      case 1:  // erase a short span
        text->erase(at, 1 + below(16));
        break;
      case 2:  // duplicate a span
        text->insert(at, text->substr(at, 1 + below(32)));
        break;
      case 3: {  // swap the number nearest `at` for an awkward value
        const std::size_t digit = text->find_first_of("0123456789", at);
        if (digit == std::string::npos) break;
        const std::size_t begin =
            text->find_last_not_of("-+.eE0123456789", digit) + 1;
        const std::size_t end =
            text->find_first_not_of("-+.eE0123456789", digit);
        text->replace(begin, end - begin, pick(kValues));
        break;
      }
      case 4:  // truncate
        text->resize(at);
        break;
      default:  // insert a value
        text->insert(at, pick(kValues));
        break;
    }
  }

  std::mt19937_64 rng_;
};

/// Feeds kMutantsPerSeed mutants of `seed` to `parse`; every one must be
/// accepted or rejected with a cu::Error.
void fuzz(const std::string& seed, std::uint64_t rng_seed,
                         const std::function<void(const std::string&)>& parse) {
  parse(seed);  // the unmutated seed is valid
  Mutator mutator(rng_seed);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < kMutantsPerSeed; ++i) {
    const std::string mutant = mutator.mutate(seed);
    try {
      parse(mutant);
      ++accepted;
    } catch (const cu::Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " escaped with a non-cts exception ("
                    << e.what() << "):\n"
                    << mutant;
    }
  }
  // Both outcomes occur: the mutants get past the JSON grammar into the
  // schema checks, and not everything is refused.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

/// A cts.shard.v1 file as a bench writes it with --shard-out, with a
/// metrics section holding every cell kind.
std::string recorded_shard_file(obs::MetricsRegistry* registry) {
  sim::ReplicationConfig config;
  config.replications = 4;
  config.frames_per_replication = 300;
  config.warmup_frames = 20;
  config.n_sources = 5;
  config.capacity_cells = 5 * 520.0;
  config.buffer_sizes_cells = {0.0, 200.0};
  config.bop_thresholds_cells = {100.0, 400.0};
  config.shard_index = 1;
  config.shard_count = 2;
  config.progress = false;
  config.progress_label = "fuzz_seed";

  registry->add("runs", 3);
  registry->add_sum("cells", 1234.5);
  registry->gauge("peak", 7.5, obs::GaugeMode::kMax);
  registry->observe_log("sim.replication.wall_ms", 2.5);
  registry->observe_log("latency_ms", 0.25);
  registry->observe_log("latency_ms", 40.0);

  const std::string path = ::testing::TempDir() + "/fuzz_seed_shard.json";
  sim::ShardRecorder& recorder = sim::ShardRecorder::global();
  recorder.enable(path);
  (void)sim::run_replicated(cts::fit::make_ar1(0.8), config);
  EXPECT_TRUE(recorder.write(*registry));
  recorder.disable();
  const std::string text = cu::read_text_file(path);
  std::remove(path.c_str());
  return text;
}

TEST(ParseMutation, ShardFileAcceptsOrRejectsWithCtsError) {
  obs::MetricsRegistry registry;
  fuzz(recorded_shard_file(&registry), 1,
       [](const std::string& text) { (void)sim::parse_shard_file(text); });
}

TEST(ParseMutation, MetricsSnapshotAcceptsOrRejectsWithCtsError) {
  obs::MetricsRegistry registry;
  (void)recorded_shard_file(&registry);
  std::ostringstream os;
  obs::JsonWriter w(os);
  obs::write_metrics_snapshot(w, registry.snapshot());
  fuzz(os.str(), 2, [](const std::string& text) {
    (void)obs::metrics_snapshot_from_json(obs::json_parse(text));
  });
}

TEST(ParseMutation, ScenarioResultAcceptsOrRejectsWithCtsError) {
  // The committed cts.scenarioresult.v1 of policed_smoothed.scn.
  const std::string seed = cu::read_text_file(
      std::string(CTS_GOLDEN_DIR) + "/scenario_policed_smoothed.json");
  fuzz(seed, 3, [](const std::string& text) {
    (void)sim::parse_scenario_result(text);
  });
}

TEST(ParseMutation, ScenarioSpecAcceptsOrRejectsWithCtsError) {
  std::uint64_t rng_seed = 20;
  for (const char* name : {"heterogeneous_mix", "paper_baseline",
                           "policed_smoothed", "priority_two_class",
                           "tandem_3hop"}) {
    SCOPED_TRACE(name);
    const std::string seed = cu::read_text_file(
        std::string(CTS_SOURCE_DIR) + "/examples/scenarios/" + name + ".scn");
    fuzz(seed, rng_seed++,
         [](const std::string& text) { (void)sim::parse_scenario(text); });
  }
}

TEST(ParseMutation, BenchBaselineAcceptsOrRejectsWithCtsError) {
  // A committed baseline, read as the gate reads it: strict JSON, the
  // cts.bench.v1 schema, then every bench's metric summaries in a
  // trajectory against the unmutated document.
  const std::string path =
      std::string(CTS_SOURCE_DIR) + "/BENCH_2026-10-21_sim.json";
  const std::string seed = cu::read_text_file(path);
  const obs::BaselineDoc base = obs::parse_baseline(path, seed);
  fuzz(seed, 10, [&](const std::string& text) {
    (void)obs::build_trend({base, obs::parse_baseline(path, text)});
  });
}

// ---------------------------------------------------------------------------
// Wire documents

/// A cts.cac.v1 batch with one query of each kind against `model`.
std::string cac_request_seed(const net::CacModel& model) {
  net::CacRequest request;
  request.model = model;
  request.deadline_s = 5;
  net::CacQuery br;
  br.kind = net::CacQueryKind::kAdmitBr;
  br.capacity = 16140;
  br.buffer = 4035;
  br.log10_clr = -6;
  net::CacQuery eb = br;
  eb.kind = net::CacQueryKind::kAdmitEb;
  net::CacQuery bop = br;
  bop.kind = net::CacQueryKind::kBop;
  bop.n = 50;
  bop.interpolate = true;
  request.queries = {br, eb, bop};
  return net::write_cac_request_json(request);
}

// One named parse function for both seeds, not two identical lambdas: GCC
// folds identical functions at -O2, and under ThreadSanitizer the folded
// copy drops a shadow-stack entry on every throw through it, so the
// runtime's memory grows without bound over the mutants.
void parse_cac_request_text(const std::string& text) {
  (void)net::parse_cac_request(text);
}

// A zoo model id and an inline lrd model take different model branches.
TEST(ParseMutation, CacRequestAcceptsOrRejectsWithCtsError) {
  net::CacModel zoo;
  zoo.zoo_id = "za:0.9";
  fuzz(cac_request_seed(zoo), 4, parse_cac_request_text);
  net::CacModel lrd;
  lrd.kind = "lrd";
  lrd.mean = 500;
  lrd.variance = 5000;
  lrd.hurst = 0.9;
  lrd.weight = 0.9;
  fuzz(cac_request_seed(lrd), 5, parse_cac_request_text);
}

TEST(ParseMutation, CacResponseAcceptsOrRejectsWithCtsError) {
  net::CacResponse response;
  response.ok = true;
  response.model_name = "Z^0.9";
  response.elapsed_s = 0.012;
  net::CacAnswer admit;
  admit.ok = true;
  admit.admissible = 30;
  admit.log10_bop = -6.4;
  net::CacAnswer failed;
  failed.error = "asymptotic_variance_rate: diverges";
  net::CacAnswer interp;
  interp.ok = true;
  interp.log10_bop = -5.9;
  interp.interpolated = true;
  response.answers = {admit, failed, interp};
  fuzz(net::write_cac_response_json(response), 6,
       [](const std::string& text) { (void)net::parse_cac_response(text); });
}

TEST(ParseMutation, JobAcceptsOrRejectsWithCtsError) {
  net::JobRequest job;
  job.bench_id = "fig9_sim_markov";
  job.shard_index = 1;
  job.shard_count = 4;
  job.env = {{"REPRO_REPS", "3"}, {"REPRO_FRAMES", "500"}};
  job.timeout_s = 300;
  job.attempt = 2;
  fuzz(net::write_job_json(job), 7,
       [](const std::string& text) { (void)net::parse_job(text); });
}

TEST(ParseMutation, JobResultAcceptsOrRejectsWithCtsError) {
  obs::MetricsRegistry registry;
  net::JobResult result;
  result.ok = true;
  result.shard_json = recorded_shard_file(&registry);
  result.elapsed_s = 1.25;
  fuzz(net::write_job_result_json(result), 8,
       [](const std::string& text) { (void)net::parse_job_result(text); });
}

TEST(ParseMutation, StatsAcceptsOrRejectsWithCtsError) {
  net::WorkerStats stats;
  stats.worker = "cts_shardd:9001";
  stats.pid = 4242;
  stats.uptime_s = 12.5;
  stats.jobs_in_flight = 1;
  stats.jobs_ok = 5;
  stats.jobs_failed = 1;
  stats.jobs_retried = 2;
  stats.stats_served = 3;
  stats.metrics.add("shardd.jobs_ok", 5);
  stats.metrics.add_sum("shardd.busy_s", 3.25);
  stats.metrics.gauge("shardd.threads", 3.0, obs::GaugeMode::kMax);
  stats.metrics.observe_log("shardd.job_wall_ms", 120.0);
  stats.metrics.observe_log("shardd.job_wall_ms", 900.0);
  stats.spans = {{"shardd.exec", 5, 1000000, 900000, 150000, 250000},
                 {"shardd.job", 6, 1100000, 100000, 1000, 260000}};
  fuzz(net::write_stats_json(stats), 9,
       [](const std::string& text) { (void)net::parse_stats(text); });
}

// ---------------------------------------------------------------------------
// Frames

/// Feeds `stream` to a FrameDecoder in chunks cut at random points,
/// draining it after every chunk into `*payloads`.  Ends in payloads, a
/// frame not yet complete (bytes left buffered) or an InvalidArgument from
/// a header above kMaxFrameBytes; it cannot loop, as every payload consumes
/// its header.
void decode_frames(const std::string& stream, std::mt19937_64* rng,
                   std::vector<std::string>* payloads) {
  net::FrameDecoder decoder;
  std::string payload;
  for (std::size_t at = 0; at < stream.size();) {
    const std::size_t n =
        std::min<std::size_t>(stream.size() - at, 1 + (*rng)() % 64);
    decoder.feed(stream.data() + at, n);
    at += n;
    while (decoder.next(&payload)) payloads->push_back(payload);
  }
}

/// Three wire documents and an empty payload, framed back to back.
std::vector<std::string> frame_payloads() {
  net::CacModel zoo;
  zoo.zoo_id = "za:0.9";
  net::JobRequest job;
  job.bench_id = "fig9_sim_markov";
  job.shard_count = 2;
  net::WorkerStats stats;
  stats.worker = "cts_shardd:9001";
  return {cac_request_seed(zoo), net::write_job_json(job), "",
          net::write_stats_json(stats)};
}

std::string frame_stream(const std::vector<std::string>& payloads) {
  std::string stream;
  for (const std::string& payload : payloads) {
    stream += net::encode_frame(payload);
  }
  return stream;
}

TEST(ParseMutation, FrameStreamAcceptsOrRejectsWithCtsError) {
  const std::vector<std::string> payloads = frame_payloads();
  std::mt19937_64 rng(11);
  fuzz(frame_stream(payloads), 12, [&rng](const std::string& text) {
    std::vector<std::string> decoded;
    decode_frames(text, &rng, &decoded);
  });
}

TEST(ParseMutation, FrameHeadersAboveTheLimitAreRejected) {
  // One frame's length header rewritten at a time: the frames before it
  // still decode, a header above kMaxFrameBytes is refused when it is
  // reached, and any other length is accepted there (a later header, read
  // out of step, may still be refused).
  const std::vector<std::string> payloads = frame_payloads();
  const std::string stream = frame_stream(payloads);
  std::mt19937_64 rng(13);
  std::size_t header = 0;
  for (std::size_t k = 0; k < payloads.size(); ++k) {
    SCOPED_TRACE(k);
    const std::uint64_t size = payloads[k].size();
    for (const std::uint64_t length :
         {std::uint64_t{0}, std::uint64_t{1}, size + 1, size + 100,
          std::uint64_t{net::kMaxFrameBytes},
          std::uint64_t{net::kMaxFrameBytes} + 1, std::uint64_t{0xffffffff},
          (rng() & 0xffffffff) | 0x80000000}) {
      SCOPED_TRACE(length);
      std::string mutant = stream;
      for (int byte = 0; byte < 4; ++byte) {
        mutant[header + byte] =
            static_cast<char>((length >> (24 - 8 * byte)) & 0xff);
      }
      std::vector<std::string> decoded;
      bool refused = false;
      try {
        decode_frames(mutant, &rng, &decoded);
      } catch (const cu::InvalidArgument&) {
        refused = true;
      }
      ASSERT_GE(decoded.size(), k);
      for (std::size_t i = 0; i < k; ++i) EXPECT_EQ(decoded[i], payloads[i]);
      if (length > net::kMaxFrameBytes) {
        EXPECT_TRUE(refused);
        EXPECT_EQ(decoded.size(), k);
      } else if (refused) {
        EXPECT_GT(decoded.size(), k);
      }
    }
    header += 4 + payloads[k].size();
  }
}

}  // namespace
