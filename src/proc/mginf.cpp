#include "cts/proc/mginf.hpp"

#include <algorithm>
#include <cmath>

#include "cts/util/error.hpp"

namespace cts::proc {

namespace {

/// Tail sum approximation: sum_{j >= k} (x_m/j)^beta for k > x_m via
/// Euler-Maclaurin (integral + half endpoint).
double pareto_tail_sum(double x_m, double beta, double k) {
  const double scale = std::pow(x_m, beta);
  return scale * (std::pow(k, 1.0 - beta) / (beta - 1.0) +
                  0.5 * std::pow(k, -beta));
}

constexpr std::size_t kHeadCache = 1u << 16;

}  // namespace

void MgInfParams::validate() const {
  util::require(session_rate > 0.0, "MgInfParams: session_rate must be > 0");
  util::require(beta > 1.0 && beta < 2.0,
                "MgInfParams: beta must be in (1, 2) for LRD with finite "
                "mean");
  util::require(min_duration >= 1.0,
                "MgInfParams: min_duration must be >= 1 frame");
  util::require(cells_per_session > 0.0,
                "MgInfParams: cells_per_session must be > 0");
}

double MgInfParams::duration_survival(std::uint64_t j) const {
  const double jd = static_cast<double>(j);
  if (jd < min_duration) return 1.0;
  return std::pow(min_duration / jd, beta);
}

double MgInfParams::mean_duration() const {
  validate();
  double head = 0.0;
  const std::uint64_t head_limit = 1u << 14;
  for (std::uint64_t j = 0; j < head_limit; ++j) {
    head += duration_survival(j);
  }
  return head + pareto_tail_sum(min_duration, beta,
                                static_cast<double>(head_limit));
}

double MgInfParams::frame_mean() const {
  return session_rate * mean_duration() * cells_per_session;
}

double MgInfParams::frame_variance() const {
  // Active-session count is Poisson(session_rate * E[tau]).
  return cells_per_session * cells_per_session * session_rate *
         mean_duration();
}

MgInfParams MgInfParams::for_moments(double mean, double variance,
                                     double beta, double min_duration) {
  util::require(mean > 0.0 && variance > mean,
                "MgInfParams::for_moments: need variance > mean > 0");
  MgInfParams params;
  params.beta = beta;
  params.min_duration = min_duration;
  params.cells_per_session = variance / mean;
  const double target_sessions = mean / params.cells_per_session;
  params.session_rate = 1.0;  // placeholder for mean_duration()
  const double e_tau = params.mean_duration();
  params.session_rate = target_sessions / e_tau;
  params.validate();
  return params;
}

MgInfAcf::MgInfAcf(const MgInfParams& params)
    : params_(params), mean_duration_(params.mean_duration()) {
  params_.validate();
}

void MgInfAcf::extend(std::size_t k) const {
  while (head_cumulative_.size() <= std::min(k, kHeadCache)) {
    const std::uint64_t j = head_cumulative_.size() - 1;
    head_cumulative_.push_back(head_cumulative_.back() +
                               params_.duration_survival(j));
  }
}

double MgInfAcf::at(std::size_t k) const {
  if (k == 0) return 1.0;
  if (k > kHeadCache) {
    // Pure tail regime: closed form.
    return pareto_tail_sum(params_.min_duration, params_.beta,
                           static_cast<double>(k)) /
           mean_duration_;
  }
  extend(k);
  const double tail = mean_duration_ - head_cumulative_[k];
  return std::max(tail, 0.0) / mean_duration_;
}

std::string MgInfAcf::name() const {
  return "mginf(beta=" + std::to_string(params_.beta) + ")";
}

MgInfSource::MgInfSource(const MgInfParams& params, std::uint64_t seed)
    : params_(params), rng_(seed) {
  params_.validate();
  // Stationary start: Poisson(session_rate * E[tau]) sessions with
  // equilibrium residual lifetimes.
  const double e_tau = params_.mean_duration();
  const std::uint64_t initial =
      util::poisson_sample(rng_, params_.session_rate * e_tau);
  for (std::uint64_t i = 0; i < initial; ++i) {
    ++active_;
    schedule(now_ + sample_equilibrium_residual());
  }
}

std::uint64_t MgInfSource::sample_duration() {
  // tau = ceil(x_m * u^{-1/beta}) matches the survival function exactly.
  const double u = rng_.uniform01();
  const double raw =
      params_.min_duration * std::pow(1.0 - u, -1.0 / params_.beta);
  return static_cast<std::uint64_t>(std::ceil(std::min(raw, 1e15)));
}

std::uint64_t MgInfSource::sample_equilibrium_residual() {
  // P(R > r) = T(r) / E[tau], T(r) = sum_{j >= r} S(j).  Invert via the
  // tail closed form; exact enough because residuals below x_m are handled
  // by the r <= x_m branch.
  const double e_tau = params_.mean_duration();
  const double u = rng_.uniform01();
  const double target = u * e_tau;  // find smallest r with T(r) <= target
  // Head scan (T decreases from E[tau]); rare residuals land in the tail.
  double tail = e_tau;
  for (std::uint64_t r = 0; r < (1u << 12); ++r) {
    if (tail <= target) return std::max<std::uint64_t>(r, 1);
    tail -= params_.duration_survival(r);
  }
  // Deep tail: T(r) ~ x_m^beta r^{1-beta}/(beta-1).
  const double r = std::pow(
      target * (params_.beta - 1.0) / std::pow(params_.min_duration,
                                               params_.beta),
      1.0 / (1.0 - params_.beta));
  return static_cast<std::uint64_t>(
      std::ceil(std::min(std::max(r, 1.0), 1e15)));
}

void MgInfSource::schedule(std::uint64_t expiry_frame) {
  ++expirations_[expiry_frame];
}

double MgInfSource::next_frame() {
  // Expire sessions whose lifetime ends at this frame boundary.
  const auto it = expirations_.find(now_);
  if (it != expirations_.end()) {
    active_ -= it->second;
    expirations_.erase(it);
  }
  // New arrivals this frame.
  const std::uint64_t arrivals =
      util::poisson_sample(rng_, params_.session_rate);
  for (std::uint64_t i = 0; i < arrivals; ++i) {
    ++active_;
    schedule(now_ + sample_duration());
  }
  ++now_;
  return static_cast<double>(active_) * params_.cells_per_session;
}

void MgInfSource::fill(double* out, std::size_t n) {
  fill_frames(*this, out, n);
}

std::unique_ptr<FrameSource> MgInfSource::clone(std::uint64_t seed) const {
  return std::make_unique<MgInfSource>(params_, seed);
}

std::string MgInfSource::name() const {
  return "M/G/inf(beta=" + std::to_string(params_.beta) + ")";
}

}  // namespace cts::proc
