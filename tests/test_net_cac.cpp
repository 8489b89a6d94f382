// Unit tests for the cts.cac.v1 / cts.cacresult.v1 wire schema: writer and
// strict parser round-trips, named validation errors on malformed
// documents, and model resolution (zoo ids plus inline specs with
// canonical cache-key names).

#include "cts/net/cac.hpp"

#include <string>

#include <gtest/gtest.h>

#include "cts/fit/model_zoo.hpp"
#include "cts/util/error.hpp"

namespace cn = cts::net;
namespace cf = cts::fit;
namespace cu = cts::util;

namespace {

/// Runs `fn`, expecting InvalidArgument, and returns its message.
template <typename Fn>
std::string invalid_argument_message(Fn fn) {
  try {
    fn();
  } catch (const cu::InvalidArgument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected InvalidArgument";
  return "";
}

cn::CacRequest sample_request() {
  cn::CacRequest request;
  request.model.zoo_id = "za:0.9";
  request.deadline_s = 5.0;
  cn::CacQuery admit;
  admit.kind = cn::CacQueryKind::kAdmitBr;
  admit.capacity = 16140.0;
  admit.buffer = 4035.0;
  admit.log10_clr = -6.0;
  request.queries.push_back(admit);
  admit.kind = cn::CacQueryKind::kAdmitEb;
  request.queries.push_back(admit);
  cn::CacQuery bop = admit;
  bop.kind = cn::CacQueryKind::kBop;
  bop.n = 25;
  bop.interpolate = true;
  request.queries.push_back(bop);
  return request;
}

}  // namespace

TEST(CacRequest, RoundTripsThroughJson) {
  const cn::CacRequest request = sample_request();
  const cn::CacRequest parsed =
      cn::parse_cac_request(cn::write_cac_request_json(request));
  EXPECT_EQ(parsed.model.zoo_id, "za:0.9");
  EXPECT_EQ(parsed.deadline_s, 5.0);
  ASSERT_EQ(parsed.queries.size(), 3u);
  EXPECT_EQ(parsed.queries[0].kind, cn::CacQueryKind::kAdmitBr);
  EXPECT_EQ(parsed.queries[1].kind, cn::CacQueryKind::kAdmitEb);
  EXPECT_EQ(parsed.queries[2].kind, cn::CacQueryKind::kBop);
  EXPECT_EQ(parsed.queries[0].capacity, 16140.0);
  EXPECT_EQ(parsed.queries[0].buffer, 4035.0);
  EXPECT_EQ(parsed.queries[0].log10_clr, -6.0);
  EXPECT_EQ(parsed.queries[2].n, 25u);
  EXPECT_TRUE(parsed.queries[2].interpolate);
  EXPECT_FALSE(parsed.queries[0].interpolate);
}

TEST(CacRequest, RoundTripsInlineModels) {
  cn::CacRequest request = sample_request();
  request.model.zoo_id.clear();
  request.model.kind = "lrd";
  request.model.mean = 500.0;
  request.model.variance = 5000.0;
  request.model.hurst = 0.9;
  request.model.weight = 0.8;
  const cn::CacRequest parsed =
      cn::parse_cac_request(cn::write_cac_request_json(request));
  EXPECT_TRUE(parsed.model.zoo_id.empty());
  EXPECT_EQ(parsed.model.kind, "lrd");
  EXPECT_EQ(parsed.model.mean, 500.0);
  EXPECT_EQ(parsed.model.variance, 5000.0);
  EXPECT_EQ(parsed.model.hurst, 0.9);
  EXPECT_EQ(parsed.model.weight, 0.8);
}

TEST(CacRequest, RejectsMalformedDocumentsWithNamedErrors) {
  const std::string queries =
      R"("queries":[{"kind":"admit_br","capacity":16140,)"
      R"("buffer":4035,"log10_clr":-6}])";

  // Wrong schema tag.
  EXPECT_NE(invalid_argument_message([&] {
              cn::parse_cac_request(
                  R"({"schema":"cts.job.v1","model":{"id":"za:0.9"},)" +
                  queries + "}");
            }).find("cts.cac.v1"),
            std::string::npos);

  // A model must be an id or an inline kind, never both.
  EXPECT_NE(
      invalid_argument_message([&] {
        cn::parse_cac_request(
            R"({"schema":"cts.cac.v1","model":{"id":"za:0.9",)"
            R"("kind":"white"},)" +
            queries + "}");
      }).find("not both"),
      std::string::npos);

  // Unknown inline model kind is named.
  EXPECT_NE(invalid_argument_message([&] {
              cn::parse_cac_request(
                  R"({"schema":"cts.cac.v1","model":{"kind":"weibull",)"
                  R"("mean":500,"variance":5000},)" +
                  queries + "}");
            }).find("weibull"),
            std::string::npos);

  // Non-positive marginal moments.
  EXPECT_NE(invalid_argument_message([&] {
              cn::parse_cac_request(
                  R"({"schema":"cts.cac.v1","model":{"kind":"white",)"
                  R"("mean":-1,"variance":5000},)" +
                  queries + "}");
            }).find("mean"),
            std::string::npos);

  // Negative deadline.
  EXPECT_THROW(
      cn::parse_cac_request(
          R"({"schema":"cts.cac.v1","model":{"id":"za:0.9"},)"
          R"("deadline_s":-1,)" +
          queries + "}"),
      cu::InvalidArgument);

  // Empty batch.
  EXPECT_NE(invalid_argument_message([] {
              cn::parse_cac_request(
                  R"({"schema":"cts.cac.v1","model":{"id":"za:0.9"},)"
                  R"("queries":[]})");
            }).find("empty query batch"),
            std::string::npos);

  // Unknown query kind is named with the known list.
  EXPECT_NE(invalid_argument_message([] {
              cn::parse_cac_request(
                  R"({"schema":"cts.cac.v1","model":{"id":"za:0.9"},)"
                  R"("queries":[{"kind":"admit","capacity":16140,)"
                  R"("buffer":4035,"log10_clr":-6}]})");
            }).find("admit_br"),
            std::string::npos);

  // Link parameters out of range.
  EXPECT_THROW(cn::parse_cac_request(
                   R"({"schema":"cts.cac.v1","model":{"id":"za:0.9"},)"
                   R"("queries":[{"kind":"admit_br","capacity":0,)"
                   R"("buffer":4035,"log10_clr":-6}]})"),
               cu::InvalidArgument);
  EXPECT_THROW(cn::parse_cac_request(
                   R"({"schema":"cts.cac.v1","model":{"id":"za:0.9"},)"
                   R"("queries":[{"kind":"admit_br","capacity":16140,)"
                   R"("buffer":-1,"log10_clr":-6}]})"),
               cu::InvalidArgument);
  EXPECT_THROW(cn::parse_cac_request(
                   R"({"schema":"cts.cac.v1","model":{"id":"za:0.9"},)"
                   R"("queries":[{"kind":"admit_br","capacity":16140,)"
                   R"("buffer":4035,"log10_clr":0}]})"),
               cu::InvalidArgument);

  // A bop probe needs an integer n >= 1, rejected before the cast to
  // size_t (1e300 would overflow it); admit queries must not carry n.
  for (const char* n : {"1e300", "0", "-1", "2.5"}) {
    SCOPED_TRACE(n);
    EXPECT_THROW(cn::parse_cac_request(
                     std::string(
                         R"({"schema":"cts.cac.v1","model":{"id":"za:0.9"},)"
                         R"("queries":[{"kind":"bop","capacity":16140,)"
                         R"("buffer":4035,"log10_clr":-6,"n":)") +
                     n + "}]}"),
                 cu::Error);
  }
  EXPECT_NE(invalid_argument_message([] {
              cn::parse_cac_request(
                  R"({"schema":"cts.cac.v1","model":{"id":"za:0.9"},)"
                  R"("queries":[{"kind":"admit_br","capacity":16140,)"
                  R"("buffer":4035,"log10_clr":-6,"n":3}]})");
            }).find("bop"),
            std::string::npos);
}

TEST(CacModel, ZooIdsResolveToTheZooModel) {
  cn::CacModel model;
  model.zoo_id = "za:0.9";
  const cf::ModelSpec spec = cn::resolve_cac_model(model);
  const cf::ModelSpec zoo = cf::make_za(0.9);
  EXPECT_EQ(spec.name, zoo.name);
  EXPECT_EQ(spec.mean, zoo.mean);
  EXPECT_EQ(spec.variance, zoo.variance);
  ASSERT_NE(spec.acf, nullptr);
}

TEST(CacModel, InlineSpecsGetCanonicalCacheKeyNames) {
  cn::CacModel model;
  model.kind = "geometric";
  model.mean = 500.0;
  model.variance = 5000.0;
  model.a = 0.8;
  const cf::ModelSpec spec = cn::resolve_cac_model(model);
  // The canonical name doubles as the admission-cache key, so it must
  // encode every parameter -- and equal specs must share it.
  EXPECT_EQ(spec.name, "geometric(a=0.8,mu=500,var=5000)");
  EXPECT_EQ(cn::resolve_cac_model(model).name, spec.name);
  EXPECT_EQ(spec.make_source, nullptr);  // analytic-only, never simulated

  model.kind = "white";
  EXPECT_EQ(cn::resolve_cac_model(model).name, "white(mu=500,var=5000)");
  model.kind = "lrd";
  model.hurst = 0.9;
  model.weight = 0.8;
  EXPECT_EQ(cn::resolve_cac_model(model).name,
            "lrd(H=0.9,w=0.8,mu=500,var=5000)");

  model.kind = "weibull";
  EXPECT_THROW(cn::resolve_cac_model(model), cu::InvalidArgument);
}

TEST(ModelFromId, ParsesTheZooGrammarStrictly) {
  EXPECT_EQ(cf::model_from_id("za:0.9").name, cf::make_za(0.9).name);
  EXPECT_EQ(cf::model_from_id("dar:0.9:2").name,
            cf::make_dar_matched_to_za(0.9, 2).name);
  EXPECT_EQ(cf::model_from_id("l").name, cf::make_l().name);
  EXPECT_EQ(cf::model_from_id("white").name, cf::make_white().name);
  EXPECT_EQ(cf::model_from_id("ar1:0.8").name, cf::make_ar1(0.8).name);

  // Unknown family, malformed number, wrong arity, bad DAR order -- every
  // failure names the offending id.
  EXPECT_NE(invalid_argument_message([] { cf::model_from_id("zb:0.9"); })
                .find("zb"),
            std::string::npos);
  EXPECT_NE(invalid_argument_message([] { cf::model_from_id("za:0.9x"); })
                .find("0.9x"),
            std::string::npos);
  EXPECT_THROW(cf::model_from_id("za"), cu::InvalidArgument);
  EXPECT_THROW(cf::model_from_id("za:0.9:1"), cu::InvalidArgument);
  EXPECT_THROW(cf::model_from_id("dar:0.9:0"), cu::InvalidArgument);
  EXPECT_THROW(cf::model_from_id(""), cu::InvalidArgument);
}

TEST(CacResponse, RoundTripsOkErrorAndPerQueryFailures) {
  cn::CacResponse response;
  response.ok = true;
  response.model_name = "Z^0.9";
  response.elapsed_s = 0.012;
  cn::CacAnswer good;
  good.ok = true;
  good.admissible = 30;
  good.log10_bop = -6.4;
  response.answers.push_back(good);
  cn::CacAnswer failed;
  failed.ok = false;
  failed.error = "asymptotic_variance_rate: diverged";
  response.answers.push_back(failed);
  cn::CacAnswer probe;
  probe.ok = true;
  probe.admissible = 0;
  probe.log10_bop = -5.924384610234567;  // %.17g survives the round trip
  probe.interpolated = true;
  response.answers.push_back(probe);

  const cn::CacResponse parsed =
      cn::parse_cac_response(cn::write_cac_response_json(response));
  EXPECT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.model_name, "Z^0.9");
  ASSERT_EQ(parsed.answers.size(), 3u);
  EXPECT_TRUE(parsed.answers[0].ok);
  EXPECT_EQ(parsed.answers[0].admissible, 30u);
  EXPECT_EQ(parsed.answers[0].log10_bop, -6.4);
  EXPECT_FALSE(parsed.answers[1].ok);
  EXPECT_EQ(parsed.answers[1].error, "asymptotic_variance_rate: diverged");
  EXPECT_EQ(parsed.answers[2].log10_bop, -5.924384610234567);
  EXPECT_TRUE(parsed.answers[2].interpolated);
  EXPECT_FALSE(parsed.answers[0].interpolated);

  cn::CacResponse error;
  error.ok = false;
  error.error = "cac: empty query batch";
  const cn::CacResponse parsed_error =
      cn::parse_cac_response(cn::write_cac_response_json(error));
  EXPECT_FALSE(parsed_error.ok);
  EXPECT_EQ(parsed_error.error, "cac: empty query batch");
}

TEST(CacResponse, RejectsStructurallyInvalidReplies) {
  // A failed reply must explain itself.
  EXPECT_THROW(cn::parse_cac_response(
                   R"({"schema":"cts.cacresult.v1","ok":false,"error":""})"),
               cu::InvalidArgument);
  // So must a failed answer.
  EXPECT_THROW(
      cn::parse_cac_response(
          R"({"schema":"cts.cacresult.v1","ok":true,"model":"m",)"
          R"("elapsed_s":0,"answers":[{"ok":false,"error":""}]})"),
      cu::InvalidArgument);
  // Admitted counts are non-negative integers.
  EXPECT_THROW(
      cn::parse_cac_response(
          R"({"schema":"cts.cacresult.v1","ok":true,"model":"m",)"
          R"("elapsed_s":0,"answers":[{"ok":true,"admissible":1.5,)"
          R"("log10_bop":-6}]})"),
      cu::InvalidArgument);
  // And the schema tag is checked first.
  EXPECT_THROW(cn::parse_cac_response(R"({"schema":"cts.stats.v1"})"),
               cu::InvalidArgument);
}

TEST(CacResponse, RejectsAdmissibleCountsThatAreNotSizes) {
  // Each is rejected before the cast to size_t: 1e300 would overflow it
  // (undefined behaviour), -1 would wrap and 2.5 would truncate.
  for (const char* admissible : {"1e300", "-1", "2.5"}) {
    SCOPED_TRACE(admissible);
    const std::string reply =
        std::string(R"({"schema":"cts.cacresult.v1","ok":true,"model":"m",)"
                    R"("elapsed_s":0,"answers":[{"ok":true,"admissible":)") +
        admissible + R"(,"log10_bop":-6}]})";
    EXPECT_THROW(cn::parse_cac_response(reply), cu::Error);
  }
}
