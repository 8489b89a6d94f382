#include "cts/proc/dar.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

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
      innovation_sd_(std::sqrt(params.variance)),
      history_(params.lag_probs.size(), 0.0) {
  params_.validate();
  repeat_below_ = repeat_threshold(params_.rho);
  lag_thresholds_ = lag_thresholds(params_.lag_probs);
  // Start the chain stationary: the marginal of DAR(p) equals the
  // innovation marginal for every n, so filling the history with i.i.d.
  // draws gives the correct marginal immediately; the correlation structure
  // converges within a few multiples of p (handled by simulator warmup).
  for (auto& h : history_) h = sample_innovation();
}

std::uint64_t DarSource::repeat_threshold(double x) noexcept {
  // k 2^-53 < x  <=>  k < x 2^53 (ldexp is exact)  <=>  k < ceil(x 2^53).
  return static_cast<std::uint64_t>(std::ceil(std::ldexp(x, 53)));
}

std::int64_t DarSource::lag_threshold(double c) noexcept {
  // k 2^-53 > c  <=>  k > c 2^53  <=>  k > floor(c 2^53); signed, so a
  // slightly negative cumulative probability is exceeded by k = 0 too.
  return static_cast<std::int64_t>(std::floor(std::ldexp(c, 53)));
}

std::vector<std::int64_t> DarSource::lag_thresholds(
    const std::vector<double>& lag_probs) {
  // Inverse-CDF lag selection over the cumulative lag-pick probabilities;
  // the last one is never compared (the search stops at p - 1).
  std::vector<std::int64_t> thresholds;
  double cum = 0.0;
  double running_max = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i + 1 < lag_probs.size(); ++i) {
    cum += lag_probs[i];
    running_max = std::max(running_max, cum);
    thresholds.push_back(lag_threshold(running_max));
  }
  return thresholds;
}

double DarSource::sample_innovation() {
  if (marginal_) return marginal_->sample(rng_);
  return params_.mean + innovation_sd_ * normal_(rng_);
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

std::size_t DarSource::lag_index(std::uint64_t draw) const noexcept {
  // Branch-free count of the thresholds the draw exceeds; they are
  // non-decreasing, so the count is the sequential search's stop index.
  const auto k = static_cast<std::int64_t>(draw >> 11);
  std::size_t lag = 0;
  for (const std::int64_t t : lag_thresholds_) lag += k > t ? 1 : 0;
  return lag;
}

double DarSource::next_frame() {
  ++frames_generated_;
  const std::size_t p = history_.size();
  double value;
  if ((rng_() >> 11) < repeat_below_) {
    // Repeat the value from a random one of the last p frames.  history_
    // is a ring: head_ points at S_{n-1}; S_{n-1-j} sits at
    // (head_ + j) mod p.
    const std::size_t at = head_ + lag_index(rng_());
    value = history_[at < p ? at : at - p];
  } else {
    value = sample_innovation();
  }
  // Push the new value: it becomes S_{n-1} for the next step.
  head_ = (head_ == 0 ? p : head_) - 1;
  history_[head_] = value;
  return value;
}

void DarSource::fill(double* out, std::size_t n) {
  // The first p frames of the block read the ring.  After them S_{n-1-j}
  // is out[i-1-j], so the rest repeats straight from the row: the same
  // draws in the same order as next_frame, with no ring to wrap.
  const std::size_t p = history_.size();
  const std::size_t head = std::min(n, p);
  for (std::size_t i = 0; i < head; ++i) out[i] = next_frame();
  if (n == head) return;
  // A local copy of the generator stays in registers; only an innovation
  // draws through the member.
  util::Xoshiro256pp rng = rng_;
  for (std::size_t i = head; i < n; ++i) {
    if ((rng() >> 11) < repeat_below_) {
      out[i] = out[i - 1 - lag_index(rng())];
    } else {
      rng_ = rng;
      out[i] = sample_innovation();
      rng = rng_;
    }
  }
  rng_ = rng;
  frames_generated_ += n - head;
  // Rebuild the ring from the row's last p values, S_{n-1} first.
  head_ = 0;
  for (std::size_t j = 0; j < p; ++j) history_[j] = out[n - 1 - j];
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
