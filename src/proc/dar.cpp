#include "cts/proc/dar.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "cts/obs/metrics.hpp"
#include "cts/util/error.hpp"

namespace cts::proc {

void DarParams::validate() const {
  util::require(rho >= 0.0 && rho < 1.0, "DarParams: rho must be in [0,1)");
  util::require(!lag_probs.empty(), "DarParams: need at least one lag prob");
  double sum = 0.0;
  for (const double a : lag_probs) {
    util::require(a >= -1e-12, "DarParams: lag probabilities must be >= 0");
    sum += a;
  }
  util::require(std::abs(sum - 1.0) < 1e-9,
                "DarParams: lag probabilities must sum to 1");
  util::require(variance > 0.0, "DarParams: variance must be > 0");
}

std::vector<double> DarParams::acf(std::size_t max_lag) const {
  validate();
  const std::size_t p = order();
  std::vector<double> r(std::max(max_lag, p) + 1, 0.0);
  r[0] = 1.0;
  // Yule-Walker-shaped recursion with symmetric extension r(-m) = r(m):
  //   r(k) = rho * sum_i a_i r(|k - i|).
  // For k < p this references lags above k, so the first p lags form an
  // implicit linear system; fixed-point iteration converges geometrically
  // at rate rho < 1.
  for (int iter = 0; iter < 400; ++iter) {
    double delta = 0.0;
    for (std::size_t k = 1; k <= p; ++k) {
      double acc = 0.0;
      for (std::size_t i = 1; i <= p; ++i) {
        const std::size_t lag = k >= i ? k - i : i - k;
        acc += lag_probs[i - 1] * r[lag];
      }
      const double next = rho * acc;
      delta = std::max(delta, std::abs(next - r[k]));
      r[k] = next;
    }
    if (delta < 1e-15) break;
  }
  // Lags beyond p are explicit in earlier values.
  for (std::size_t k = p + 1; k <= max_lag; ++k) {
    double acc = 0.0;
    for (std::size_t i = 1; i <= p; ++i) {
      acc += lag_probs[i - 1] * r[k - i];
    }
    r[k] = rho * acc;
  }
  r.resize(max_lag + 1);
  return r;
}

DarSource::DarSource(const DarParams& params, std::uint64_t seed)
    : DarSource(params, nullptr, seed) {}

DarSource::DarSource(const DarParams& params,
                     std::shared_ptr<const MarginalDistribution> marginal,
                     std::uint64_t seed)
    : params_(params),
      marginal_(std::move(marginal)),
      rng_(seed),
      history_(params.lag_probs.size(), 0.0) {
  params_.validate();
  lag_cdf_.resize(params_.lag_probs.size());
  double cum = 0.0;
  for (std::size_t i = 0; i < params_.lag_probs.size(); ++i) {
    cum += params_.lag_probs[i];
    lag_cdf_[i] = cum;
  }
  lag_cdf_.back() = 1.0;  // guard against rounding
  // Start the chain stationary: the marginal of DAR(p) equals the
  // innovation marginal for every n, so filling the history with i.i.d.
  // draws gives the correct marginal immediately; the correlation structure
  // converges within a few multiples of p (handled by simulator warmup).
  for (auto& h : history_) h = sample_innovation();
}

double DarSource::sample_innovation() {
  if (marginal_) return marginal_->sample(rng_);
  return params_.mean + std::sqrt(params_.variance) * normal_(rng_);
}

double DarSource::mean() const {
  return marginal_ ? marginal_->mean() : params_.mean;
}

double DarSource::variance() const {
  return marginal_ ? marginal_->variance() : params_.variance;
}

DarSource::~DarSource() {
  if (frames_generated_ == 0) return;
  try {
    obs::MetricsRegistry::global().add("proc.dar.frames", frames_generated_);
  } catch (...) {
    // Metrics flushing must never throw from a destructor.
  }
}

double DarSource::next_frame() {
  ++frames_generated_;
  const std::size_t p = history_.size();
  double value;
  if (rng_.uniform01() < params_.rho) {
    // Repeat the value from a random one of the last p frames.
    const double u = rng_.uniform01();
    std::size_t lag_index = 0;
    while (lag_index + 1 < p && u > lag_cdf_[lag_index]) ++lag_index;
    // history_ is a ring: head_ points at S_{n-1}; S_{n-1-j} sits at
    // (head_ + j) mod p.
    value = history_[(head_ + lag_index) % p];
  } else {
    value = sample_innovation();
  }
  // Push the new value: it becomes S_{n-1} for the next step.
  head_ = (head_ + p - 1) % p;
  history_[head_] = value;
  return value;
}

void DarSource::fill(double* out, std::size_t n) {
  fill_frames(*this, out, n);
}

std::unique_ptr<FrameSource> DarSource::clone(std::uint64_t seed) const {
  return std::make_unique<DarSource>(params_, marginal_, seed);
}

std::string DarSource::name() const {
  std::string base = "DAR(" + std::to_string(params_.order()) + ")";
  if (marginal_) {
    base += '/';
    base += marginal_->name();
  }
  return base;
}

}  // namespace cts::proc
