#include "cts/net/stats.hpp"

#include <sstream>

#include "cts/obs/json.hpp"
#include "cts/util/error.hpp"

namespace cts::net {

namespace obs = cts::obs;
namespace cu = cts::util;

std::string write_stats_request_json() {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("schema").value(kStatsRequestSchema);
  w.end_object();
  return os.str();
}

void parse_stats_request(const std::string& text) {
  const obs::JsonValue doc = obs::json_parse(text);
  const obs::JsonValue* schema = doc.find("schema");
  cu::require(schema != nullptr && schema->is_string() &&
                  schema->as_string() == kStatsRequestSchema,
              std::string("stats request: expected schema \"") +
                  kStatsRequestSchema + "\"");
  const obs::JsonValue* format = doc.find("format");
  if (format == nullptr) return;
  cu::require(format->is_string(), "stats request: format must be a string");
  const std::string& name = format->as_string();
  cu::require(name == "json",
              "stats request: format must be json, got '" + name + "'");
}

std::string write_stats_json(const WorkerStats& stats) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("schema").value(kStatsSchema);
  w.key("worker").value(stats.worker);
  w.key("pid").value(stats.pid);
  w.key("uptime_s").value(stats.uptime_s);
  w.key("jobs").begin_object();
  w.key("in_flight").value(stats.jobs_in_flight);
  w.key("ok").value(stats.jobs_ok);
  w.key("failed").value(stats.jobs_failed);
  w.key("retried").value(stats.jobs_retried);
  w.end_object();
  w.key("stats_served").value(stats.stats_served);
  w.key("metrics");
  obs::write_metrics_snapshot(w, stats.metrics);
  w.key("spans").begin_array();
  for (const obs::SpanAgg& s : stats.spans) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("count").value(s.count);
    w.key("total_us").value(s.total_us);
    w.key("self_us").value(s.self_us);
    w.key("min_us").value(s.min_us);
    w.key("max_us").value(s.max_us);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return os.str();
}

WorkerStats parse_stats(const std::string& text) {
  const obs::JsonValue doc = obs::json_parse(text);
  const obs::JsonValue* schema = doc.find("schema");
  cu::require(schema != nullptr && schema->is_string() &&
                  schema->as_string() == kStatsSchema,
              std::string("stats: expected schema \"") + kStatsSchema + "\"");
  WorkerStats stats;
  stats.worker = doc.at("worker").as_string();
  cu::require(!stats.worker.empty(), "stats: empty worker identity");
  stats.pid = doc.int_at("pid");
  stats.uptime_s = doc.at("uptime_s").as_number();
  cu::require(stats.uptime_s >= 0, "stats: negative uptime_s");
  const obs::JsonValue& jobs = doc.at("jobs");
  cu::require(jobs.is_object(), "stats: jobs must be an object");
  const auto count_of = [&jobs](const char* key) {
    return static_cast<std::uint64_t>(jobs.int_at(key));
  };
  stats.jobs_in_flight = count_of("in_flight");
  stats.jobs_ok = count_of("ok");
  stats.jobs_failed = count_of("failed");
  stats.jobs_retried = count_of("retried");
  stats.stats_served =
      static_cast<std::uint64_t>(doc.int_at("stats_served"));
  stats.metrics = obs::metrics_snapshot_from_json(doc.at("metrics"));
  const obs::JsonValue& spans = doc.at("spans");
  cu::require(spans.is_array(), "stats: spans must be an array");
  for (const obs::JsonValue& item : spans.items) {
    cu::require(item.is_object(), "stats: span entry must be an object");
    obs::SpanAgg agg;
    agg.name = item.at("name").as_string();
    cu::require(!agg.name.empty(), "stats: empty span name");
    agg.count = static_cast<std::uint64_t>(item.int_at("count"));
    agg.total_us = item.int_at("total_us");
    agg.self_us = item.int_at("self_us");
    agg.min_us = item.int_at("min_us");
    agg.max_us = item.int_at("max_us");
    stats.spans.push_back(std::move(agg));
  }
  return stats;
}

WorkerStats query_stats(const Endpoint& ep, double timeout_s) {
  return query_stats(ep, timeout_s, nullptr);
}

WorkerStats query_stats(const Endpoint& ep, double timeout_s,
                        std::string* raw_reply) {
  Socket sock = connect_to(ep, timeout_s);
  send_frame(sock, write_stats_request_json(), timeout_s);
  const std::string reply = recv_frame(sock, timeout_s);
  WorkerStats stats = parse_stats(reply);
  if (raw_reply != nullptr) *raw_reply = reply;
  return stats;
}

}  // namespace cts::net
