#include "cts/net/job.hpp"

#include <cstdint>
#include <limits>
#include <sstream>

#include "cts/obs/json.hpp"
#include "cts/util/error.hpp"

namespace cts::net {

namespace obs = cts::obs;
namespace cu = cts::util;

const std::vector<std::string>& job_env_allowlist() {
  static const std::vector<std::string> kAllowlist = {
      "REPRO_FULL", "REPRO_REPS", "REPRO_FRAMES"};
  return kAllowlist;
}

std::string write_job_json(const JobRequest& job) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("schema").value(kJobSchema);
  w.key("bench").value(job.bench_id);
  w.key("shard").begin_object();
  w.key("index").value(static_cast<std::uint64_t>(job.shard_index));
  w.key("count").value(static_cast<std::uint64_t>(job.shard_count));
  w.end_object();
  w.key("env").begin_object();
  for (const auto& [name, value] : job.env) {
    w.key(name).value(value);
  }
  w.end_object();
  w.key("timeout_s").value(job.timeout_s);
  w.key("attempt").value(static_cast<std::int64_t>(job.attempt));
  w.end_object();
  return os.str();
}

JobRequest parse_job(const std::string& text) {
  const obs::JsonValue doc = obs::json_parse(text);
  const obs::JsonValue* schema = doc.find("schema");
  cu::require(schema != nullptr && schema->is_string() &&
                  schema->as_string() == kJobSchema,
              std::string("job: expected schema \"") + kJobSchema + "\"");
  JobRequest job;
  job.bench_id = doc.at("bench").as_string();
  cu::require(!job.bench_id.empty(), "job: empty bench id");
  const obs::JsonValue& shard = doc.at("shard");
  job.shard_index = static_cast<std::size_t>(shard.int_at("index"));
  job.shard_count = static_cast<std::size_t>(shard.int_at("count"));
  cu::require(job.shard_count >= 1 && job.shard_index < job.shard_count,
              "job: invalid shard " + std::to_string(job.shard_index) + "/" +
                  std::to_string(job.shard_count));
  const obs::JsonValue& env = doc.at("env");
  cu::require(env.is_object(), "job: env must be an object");
  for (const auto& [name, value] : env.members) {
    bool allowed = false;
    for (const std::string& ok : job_env_allowlist()) {
      allowed = allowed || name == ok;
    }
    cu::require(allowed, "job: env var " + name +
                             " is not in the REPRO_* allowlist");
    job.env.emplace_back(name, value.as_string());
  }
  job.timeout_s = doc.at("timeout_s").as_number();
  cu::require(job.timeout_s >= 0, "job: negative timeout_s");
  // Optional: absent on pre-obs clients, which parse as attempt 0.
  if (doc.find("attempt") != nullptr) {
    job.attempt = static_cast<int>(
        doc.int_at("attempt", 0, std::numeric_limits<int>::max()));
  }
  return job;
}

std::string write_job_result_json(const JobResult& result) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("schema").value(kJobResultSchema);
  w.key("ok").value(result.ok);
  w.key("elapsed_s").value(result.elapsed_s);
  if (result.ok) {
    w.key("shard").value(result.shard_json);
  } else {
    w.key("error").value(result.error);
  }
  w.end_object();
  return os.str();
}

JobResult parse_job_result(const std::string& text) {
  const obs::JsonValue doc = obs::json_parse(text);
  const obs::JsonValue* schema = doc.find("schema");
  cu::require(schema != nullptr && schema->is_string() &&
                  schema->as_string() == kJobResultSchema,
              std::string("job result: expected schema \"") +
                  kJobResultSchema + "\"");
  JobResult result;
  result.ok = doc.at("ok").as_bool();
  result.elapsed_s = doc.at("elapsed_s").as_number();
  if (result.ok) {
    result.shard_json = doc.at("shard").as_string();
    cu::require(!result.shard_json.empty(), "job result: ok but empty shard");
  } else {
    result.error = doc.at("error").as_string();
    cu::require(!result.error.empty(),
                "job result: failed but no error message");
  }
  return result;
}

}  // namespace cts::net
