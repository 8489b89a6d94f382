#include "cts/proc/fbndp.hpp"

#include <cmath>

#include "cts/obs/metrics.hpp"
#include "cts/util/error.hpp"
#include "cts/util/math.hpp"

namespace cts::proc {

void FbndpParams::validate() const {
  util::require(alpha > 0.0 && alpha < 1.0,
                "FbndpParams: alpha must be in (0,1)");
  // The scales must be finite: with Ts = +inf, next_frame would never
  // finish advancing the ON/OFF processes.
  util::require(A > 0.0 && std::isfinite(A),
                "FbndpParams: A must be finite and > 0");
  util::require(M >= 1, "FbndpParams: M must be >= 1");
  util::require(R > 0.0 && std::isfinite(R),
                "FbndpParams: R must be finite and > 0");
  util::require(Ts > 0.0 && std::isfinite(Ts),
                "FbndpParams: Ts must be finite and > 0");
}

double FbndpParams::fractal_onset_time() const {
  validate();
  const double factor = alpha * (alpha + 1.0) / (2.0 - alpha) *
                        ((1.0 - alpha) * std::exp(2.0 - alpha) + 1.0);
  return std::pow(factor / R * std::pow(A, alpha - 1.0), 1.0 / alpha);
}

double FbndpParams::frame_variance() const {
  const double t0 = fractal_onset_time();
  return (1.0 + std::pow(Ts / t0, alpha)) * lambda() * Ts;
}

double FbndpParams::acf_weight() const {
  const double t0 = fractal_onset_time();
  const double ts_a = std::pow(Ts, alpha);
  const double t0_a = std::pow(t0, alpha);
  return ts_a / (ts_a + t0_a);
}

double FbndpParams::acf(std::size_t k) const {
  if (k == 0) return 1.0;
  return acf_weight() * 0.5 *
         util::second_central_difference_pow(k, alpha + 1.0);
}

FbndpSource::FbndpSource(const FbndpParams& params, std::uint64_t seed)
    : params_(params),
      rng_(seed),
      fbn_(OnOffParams{params.alpha, params.A}, params.M, rng_.split()) {
  params_.validate();
}

FbndpSource::~FbndpSource() {
  // Sources live for exactly one replication, so this is one locked merge
  // per (replication, source) — never on the per-frame path.
  if (frames_generated_ == 0) return;
  try {
    obs::MetricsShard shard;
    shard.add("proc.fbndp.frames", frames_generated_);
    shard.add("proc.fbndp.sojourns", fbn_.sojourns_drawn());
    obs::MetricsRegistry::global().merge(shard);
  } catch (...) {
    // Metrics flushing must never throw from a destructor.
  }
}

double FbndpSource::next_frame() {
  ++frames_generated_;
  // Conditional on the rate path, arrivals in the frame window are Poisson
  // with mean R * (aggregate ON time of the M sources in the window).
  const double integrated_rate =
      params_.R * fbn_.aggregate_on_time(params_.Ts);
  return static_cast<double>(util::poisson_sample(rng_, integrated_rate));
}

void FbndpSource::fill(double* out, std::size_t n) {
  fill_frames(*this, out, n);
}

std::unique_ptr<FrameSource> FbndpSource::clone(std::uint64_t seed) const {
  return std::make_unique<FbndpSource>(params_, seed);
}

std::string FbndpSource::name() const {
  return "FBNDP(alpha=" + std::to_string(params_.alpha) + ")";
}

}  // namespace cts::proc
