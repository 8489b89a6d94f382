#include "cts/proc/trace.hpp"

#include <cmath>

#include "cts/util/error.hpp"

namespace cts::proc {

TraceSource::TraceSource(std::vector<double> trace, std::uint64_t seed,
                         bool randomize_phase)
    : trace_(std::make_shared<const std::vector<double>>(std::move(trace))),
      mean_(0.0),
      variance_(0.0),
      randomize_phase_(randomize_phase) {
  util::require(!trace_->empty(), "TraceSource: empty trace");
  double acc = 0.0;
  for (const double x : *trace_) acc += x;
  mean_ = acc / static_cast<double>(trace_->size());
  double ss = 0.0;
  for (const double x : *trace_) ss += (x - mean_) * (x - mean_);
  variance_ = ss / static_cast<double>(trace_->size());
  if (randomize_phase_) {
    util::Xoshiro256pp rng(seed);
    pos_ = static_cast<std::size_t>(rng() % trace_->size());
  }
}

double TraceSource::next_frame() {
  const double x = (*trace_)[pos_];
  pos_ = (pos_ + 1) % trace_->size();
  return x;
}

void TraceSource::fill(double* out, std::size_t n) {
  fill_frames(*this, out, n);
}

std::unique_ptr<FrameSource> TraceSource::clone(std::uint64_t seed) const {
  // Clones share the recording (no copy) but start at independent phases.
  auto copy = std::unique_ptr<TraceSource>(new TraceSource(*this));
  if (randomize_phase_) {
    util::Xoshiro256pp rng(seed);
    copy->pos_ = static_cast<std::size_t>(rng() % trace_->size());
  }
  return copy;
}

std::string TraceSource::name() const {
  return "trace[" + std::to_string(trace_->size()) + " frames]";
}

}  // namespace cts::proc
