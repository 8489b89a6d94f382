#include "cts/net/cac.hpp"

#include <sstream>

#include "cts/obs/json.hpp"
#include "cts/util/error.hpp"

namespace cts::net {

namespace obs = cts::obs;
namespace cu = cts::util;

namespace {

const char* kind_name(CacQueryKind kind) {
  switch (kind) {
    case CacQueryKind::kAdmitBr: return "admit_br";
    case CacQueryKind::kAdmitEb: return "admit_eb";
    case CacQueryKind::kBop: return "bop";
  }
  return "?";
}

CacQueryKind kind_from_name(const std::string& name) {
  if (name == "admit_br") return CacQueryKind::kAdmitBr;
  if (name == "admit_eb") return CacQueryKind::kAdmitEb;
  if (name == "bop") return CacQueryKind::kBop;
  throw cu::InvalidArgument(
      "cac: unknown query kind '" + name +
      "' (known: admit_br, admit_eb, bop)");
}

}  // namespace

std::string write_cac_request_json(const CacRequest& request) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("schema").value(kCacSchema);
  w.key("model").begin_object();
  if (!request.model.zoo_id.empty()) {
    w.key("id").value(request.model.zoo_id);
  } else {
    w.key("kind").value(request.model.kind);
    w.key("mean").value(request.model.mean);
    w.key("variance").value(request.model.variance);
    if (request.model.kind == "geometric") {
      w.key("a").value(request.model.a);
    } else if (request.model.kind == "lrd") {
      w.key("hurst").value(request.model.hurst);
      w.key("weight").value(request.model.weight);
    }
  }
  w.end_object();
  w.key("deadline_s").value(request.deadline_s);
  w.key("queries").begin_array();
  for (const CacQuery& q : request.queries) {
    w.begin_object();
    w.key("kind").value(kind_name(q.kind));
    w.key("capacity").value(q.capacity);
    w.key("buffer").value(q.buffer);
    w.key("log10_clr").value(q.log10_clr);
    if (q.kind == CacQueryKind::kBop) {
      w.key("n").value(static_cast<std::uint64_t>(q.n));
      w.key("interp").value(q.interpolate);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return os.str();
}

CacRequest parse_cac_request(const std::string& text) {
  const obs::JsonValue doc = obs::json_parse(text);
  const obs::JsonValue* schema = doc.find("schema");
  cu::require(schema != nullptr && schema->is_string() &&
                  schema->as_string() == kCacSchema,
              std::string("cac: expected schema \"") + kCacSchema + "\"");
  CacRequest request;

  const obs::JsonValue& model = doc.at("model");
  cu::require(model.is_object(), "cac: model must be an object");
  const obs::JsonValue* zoo_id = model.find("id");
  if (zoo_id != nullptr) {
    request.model.zoo_id = zoo_id->as_string();
    cu::require(!request.model.zoo_id.empty(), "cac: empty model id");
    cu::require(model.find("kind") == nullptr,
                "cac: model takes either an id or an inline kind, not both");
  } else {
    request.model.kind = model.at("kind").as_string();
    cu::require(request.model.kind == "geometric" ||
                    request.model.kind == "white" ||
                    request.model.kind == "lrd",
                "cac: unknown model kind '" + request.model.kind +
                    "' (known: geometric, white, lrd)");
    request.model.mean = model.at("mean").as_number();
    request.model.variance = model.at("variance").as_number();
    cu::require(request.model.mean > 0.0, "cac: model mean must be > 0");
    cu::require(request.model.variance > 0.0,
                "cac: model variance must be > 0");
    if (request.model.kind == "geometric") {
      request.model.a = model.at("a").as_number();
    } else if (request.model.kind == "lrd") {
      request.model.hurst = model.at("hurst").as_number();
      request.model.weight = model.at("weight").as_number();
    }
  }

  // Optional: absent means "use the daemon default".
  const obs::JsonValue* deadline = doc.find("deadline_s");
  if (deadline != nullptr) {
    request.deadline_s = deadline->as_number();
    cu::require(request.deadline_s >= 0, "cac: negative deadline_s");
  }

  const obs::JsonValue& queries = doc.at("queries");
  cu::require(queries.is_array(), "cac: queries must be an array");
  cu::require(!queries.items.empty(), "cac: empty query batch");
  for (const obs::JsonValue& entry : queries.items) {
    cu::require(entry.is_object(), "cac: each query must be an object");
    CacQuery q;
    q.kind = kind_from_name(entry.at("kind").as_string());
    q.capacity = entry.at("capacity").as_number();
    q.buffer = entry.at("buffer").as_number();
    q.log10_clr = entry.at("log10_clr").as_number();
    cu::require(q.capacity > 0.0, "cac: capacity must be > 0");
    cu::require(q.buffer >= 0.0, "cac: buffer must be >= 0");
    cu::require(q.log10_clr < 0.0,
                "cac: log10_clr must be < 0 (a loss target below 1)");
    if (q.kind == CacQueryKind::kBop) {
      q.n = static_cast<std::size_t>(entry.int_at("n", 1));
      const obs::JsonValue* interp = entry.find("interp");
      if (interp != nullptr) q.interpolate = interp->as_bool();
    } else {
      cu::require(entry.find("n") == nullptr,
                  "cac: n is only meaningful on bop queries");
    }
    request.queries.push_back(q);
  }
  return request;
}

fit::ModelSpec resolve_cac_model(const CacModel& model) {
  if (!model.zoo_id.empty()) return fit::model_from_id(model.zoo_id);
  cu::require(model.mean > 0.0, "cac: model mean must be > 0");
  cu::require(model.variance > 0.0, "cac: model variance must be > 0");
  // Analytic-only: admission control never simulates, so no make_source.
  return fit::inline_model(model.kind, model.mean, model.variance, model.a,
                           model.hurst, model.weight);
}

std::string write_cac_response_json(const CacResponse& response) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("schema").value(kCacResultSchema);
  w.key("ok").value(response.ok);
  if (!response.ok) {
    w.key("error").value(response.error);
    w.end_object();
    return os.str();
  }
  w.key("model").value(response.model_name);
  w.key("elapsed_s").value(response.elapsed_s);
  w.key("answers").begin_array();
  for (const CacAnswer& answer : response.answers) {
    w.begin_object();
    w.key("ok").value(answer.ok);
    if (answer.ok) {
      w.key("admissible").value(static_cast<std::uint64_t>(answer.admissible));
      w.key("log10_bop").value(answer.log10_bop);
      if (answer.interpolated) w.key("interpolated").value(true);
    } else {
      w.key("error").value(answer.error);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return os.str();
}

CacResponse parse_cac_response(const std::string& text) {
  const obs::JsonValue doc = obs::json_parse(text);
  const obs::JsonValue* schema = doc.find("schema");
  cu::require(schema != nullptr && schema->is_string() &&
                  schema->as_string() == kCacResultSchema,
              std::string("cac result: expected schema \"") +
                  kCacResultSchema + "\"");
  CacResponse response;
  response.ok = doc.at("ok").as_bool();
  if (!response.ok) {
    response.error = doc.at("error").as_string();
    cu::require(!response.error.empty(),
                "cac result: failed but no error message");
    return response;
  }
  response.model_name = doc.at("model").as_string();
  response.elapsed_s = doc.at("elapsed_s").as_number();
  const obs::JsonValue& answers = doc.at("answers");
  cu::require(answers.is_array(), "cac result: answers must be an array");
  for (const obs::JsonValue& entry : answers.items) {
    CacAnswer answer;
    answer.ok = entry.at("ok").as_bool();
    if (answer.ok) {
      // Range-checked before the cast: 1e300 or -1 must not reach size_t.
      static const std::string kAdmissible = "cac result: admissible";
      answer.admissible = static_cast<std::size_t>(
          entry.at("admissible").as_int(kAdmissible));
      answer.log10_bop = entry.at("log10_bop").as_number();
      const obs::JsonValue* interp = entry.find("interpolated");
      if (interp != nullptr) answer.interpolated = interp->as_bool();
    } else {
      answer.error = entry.at("error").as_string();
      cu::require(!answer.error.empty(),
                  "cac result: failed answer but no error message");
    }
    response.answers.push_back(answer);
  }
  return response;
}

}  // namespace cts::net
