#include "cts/atm/gcra.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "cts/atm/smoothing.hpp"
#include "cts/obs/metrics.hpp"
#include "cts/util/error.hpp"

namespace cts::atm {

Gcra::Gcra(double increment, double limit)
    : increment_(increment), limit_(limit) {
  util::require(increment > 0.0, "Gcra: increment must be > 0");
  util::require(limit >= 0.0, "Gcra: limit must be >= 0");
}

bool Gcra::conforms(double t) {
  if (!admits(t)) return false;  // too early: state unchanged
  tat_ = first_ ? t + increment_ : std::max(tat_, t) + increment_;
  first_ = false;
  return true;
}

void Gcra::reset() {
  tat_ = 0.0;
  first_ = true;
}

DualLeakyBucket::DualLeakyBucket(double peak_rate, double cdv_tolerance,
                                 double sustainable_rate,
                                 double burst_tolerance)
    : peak_(1.0 / peak_rate, cdv_tolerance),
      sustainable_(1.0 / sustainable_rate, burst_tolerance) {
  util::require(peak_rate >= sustainable_rate,
                "DualLeakyBucket: PCR must be >= SCR");
}

bool DualLeakyBucket::conforms(double t) {
  // Per I.371 a cell conforms only if both buckets admit it, and a
  // non-conforming cell advances neither: test both, then commit both.
  if (!peak_.admits(t) || !sustainable_.admits(t)) return false;
  peak_.conforms(t);
  sustainable_.conforms(t);
  return true;
}

void DualLeakyBucket::reset() {
  peak_.reset();
  sustainable_.reset();
}

double DualLeakyBucket::max_burst_size() const {
  const double t_scr = sustainable_.increment();
  const double t_pcr = peak_.increment();
  util::require(t_scr > t_pcr,
                "DualLeakyBucket: MBS undefined when SCR == PCR");
  return 1.0 + std::floor(sustainable_.limit() / (t_scr - t_pcr));
}

std::uint64_t whole_cells(double frame_cells) {
  constexpr double kMaxCells = 9007199254740992.0;  // 2^53
  if (!std::isfinite(frame_cells) || frame_cells >= kMaxCells) {
    char value[32];
    std::snprintf(value, sizeof value, "%.17g", frame_cells);
    throw util::InvalidArgument(
        std::string("frame of ") + value +
        " cells: a policed frame must be finite and below 2^53 cells");
  }
  return static_cast<std::uint64_t>(std::llround(std::max(frame_cells, 0.0)));
}

FramePolicer::FramePolicer(double sustainable_rate, double burst_tolerance,
                           double Ts)
    : Ts_(Ts) {
  util::require(sustainable_rate > 0.0,
                "FramePolicer: sustainable rate must be > 0");
  util::require(Ts > 0.0, "FramePolicer: Ts must be > 0");
  single_.emplace(1.0 / sustainable_rate, burst_tolerance);
}

FramePolicer::FramePolicer(double peak_rate, double cdv_tolerance,
                           double sustainable_rate, double burst_tolerance,
                           double Ts)
    : Ts_(Ts) {
  util::require(Ts > 0.0, "FramePolicer: Ts must be > 0");
  dual_.emplace(peak_rate, cdv_tolerance, sustainable_rate, burst_tolerance);
}

const Gcra& FramePolicer::bucket(std::size_t i) const {
  util::require(i < bucket_count(), "FramePolicer: bucket index out of range");
  if (single_) return *single_;
  return i == 0 ? dual_->peak_ : dual_->sustainable_;
}

namespace {

// Spacing of the doubles in x's binade (x > 0, normal).
double ulp_of(double x) { return std::ldexp(1.0, std::ilogb(x) - 52); }

// First k in [lo, hi) with pred(k), or hi when there is none.  `pred` must
// be monotone on [lo, hi) (false ... false true ... true).  `guess` is
// probed first and then its neighbour, so a right estimate costs two
// probes; a wrong one falls back to bisection.
template <typename Pred>
std::uint64_t first_true(std::uint64_t lo, std::uint64_t hi, double guess,
                         Pred pred) {
  if (lo >= hi) return hi;
  std::uint64_t g = lo;
  if (guess >= static_cast<double>(hi - 1)) {
    g = hi - 1;
  } else if (guess > static_cast<double>(lo)) {  // false for NaN
    g = static_cast<std::uint64_t>(guess);
  }
  const auto probe = [&](std::uint64_t m) {
    if (pred(m)) {
      hi = m;
    } else {
      lo = m + 1;
    }
  };
  probe(g);
  if (hi == g) {
    if (g > lo) probe(g - 1);
  } else if (lo < hi) {
    probe(lo);
  }
  while (lo < hi) probe(lo + (hi - lo) / 2);
  return lo;
}

}  // namespace

// The run decomposition below is exact; docs/architecture.md ("Frame-level
// GCRA") gives the argument.  In brief: t_j is non-decreasing in j, so
// every run boundary is the first index where a monotone predicate on
// exactly computed values turns true; a bucket ahead of the schedule adds
// the same delta = fl(tat + I) - tat per conforming cell while its TAT
// stays in one binade and I is not a rounding tie; and a margin of a few
// ulps of the largest time in play absorbs the rounding of t_j and
// fl(t + I) in the claims that a mode persists.
double FramePolicer::police(std::uint64_t frame_index, double frame_cells) {
  const std::uint64_t cells = whole_cells(frame_cells);
  if (cells == 0) return 0.0;
  const double t0 = static_cast<double>(frame_index) * Ts_;
  const double gap = smoothing_gap(cells, Ts_);
  const auto time = [t0, gap](std::uint64_t j) {
    return t0 + (static_cast<double>(j) + 0.5) * gap;
  };

  Gcra* buckets[2] = {nullptr, nullptr};
  std::size_t nb = 1;
  if (single_) {
    buckets[0] = &*single_;
  } else {
    buckets[0] = &dual_->peak_;
    buckets[1] = &dual_->sustainable_;
    nb = 2;
  }
  // Every time and TAT of this frame stays below `scale`: a TAT grows to
  // at most t + L + I.
  double scale = t0 + Ts_;
  double reach = 0.0;
  for (std::size_t b = 0; b < nb; ++b) {
    scale = std::max(scale, buckets[b]->tat_);
    reach = std::max(reach, buckets[b]->limit_ + buckets[b]->increment_);
  }
  const double margin = 8.0 * ulp_of(scale + reach);

  std::uint64_t conforming = 0;
  std::uint64_t stepped = 0;
  std::uint64_t j = 0;
  while (j < cells) {
    const double t = time(j);
    bool step = false;
    double threshold = -std::numeric_limits<double>::infinity();
    for (std::size_t b = 0; b < nb; ++b) {
      step = step || buckets[b]->first_;
      threshold = std::max(threshold, buckets[b]->tat_ - buckets[b]->limit_);
    }
    if (!step && t < threshold) {
      // Rejecting: no bucket moves until some t_k reaches the threshold.
      j = first_true(j + 1, cells, std::ceil((threshold - t0) / gap - 0.5),
                     [&](std::uint64_t k) { return !(time(k) < threshold); });
      continue;
    }

    // Cell j conforms to every bucket.  Classify each one, or fall back to
    // one per-cell step.
    bool ahead[2] = {false, false};  // else caught up
    double delta[2] = {0.0, 0.0};
    std::uint64_t room[2] = {0, 0};  // conforming cells the binade allows
    std::size_t n_ahead = 0;
    for (std::size_t b = 0; b < nb && !step; ++b) {
      const Gcra& g = *buckets[b];
      const double I = g.increment_;
      if (!(t < g.tat_)) {
        // Caught up: fl(t_k + I) <= t_{k+1} keeps it caught up (and
        // admitting) for the rest of the frame.
        step = !(gap - I > margin);
        continue;
      }
      // Ahead: each conforming cell adds d exactly while the TAT stays
      // below the next binade and I is not a half-ulp tie.
      const double tat = g.tat_;
      const double u = ulp_of(tat);
      const double d = (tat + I) - tat;
      std::uint64_t cap = cells - j;
      if (d > 0.0) {
        const double top = std::ldexp(1.0, std::ilogb(tat) + 1);
        const auto ulps_left = static_cast<std::uint64_t>((top - tat) / u);
        const auto d_ulps = static_cast<std::uint64_t>(d / u);
        cap = std::min(cap, (ulps_left - 1) / d_ulps);
      }
      step = std::abs(I - d) == 0.5 * u || cap == 0 ||
             !(std::abs(gap - d) > margin);
      ahead[b] = true;
      delta[b] = d;
      room[b] = cap;
      ++n_ahead;
    }

    if (step) {
      const bool ok = single_ ? single_->conforms(t) : dual_->conforms(t);
      if (ok) ++conforming;
      ++stepped;
      ++j;
      continue;
    }

    // The run covers cells [j, j + run), of which `admitted` conform, the
    // last one at index `last`.
    std::uint64_t run = cells - j;
    std::uint64_t admitted = run;
    std::uint64_t last = cells - 1;
    const std::size_t s = ahead[0] ? 0 : 1;  // the ahead bucket, if one
    const Gcra* const filler = n_ahead == 1 ? buckets[s] : nullptr;
    if (filler != nullptr && delta[s] - gap > margin &&
        filler->limit_ - gap > margin) {
      // Saturating: the only ahead bucket fills, and at its limit rejects
      // cells until t reaches its threshold again.  Its TAT exceeds every
      // cell it admits (L > gap), so admission a (a = 1, 2, ...) needs
      // t >= thr(a - 1) and comes no earlier than cell j + a - 1; as
      // thresholds lie more than a gap apart, the count admitted up to
      // cell k is min(k - j + 1, #thresholds <= t_k).
      const double tat = filler->tat_;
      const double d = delta[s];
      const double L = filler->limit_;
      const auto thr = [&](std::uint64_t i) {
        return (tat + static_cast<double>(i) * d) - L;
      };
      const double t_end = time(cells - 1);
      const auto beyond = [&](std::uint64_t i) { return thr(i) > t_end; };
      admitted = std::min(
          run, first_true(0, room[s], std::floor((t_end - tat + L) / d) + 1.0,
                          beyond));
      const double thr_last = thr(admitted - 1);
      const auto reached = [&](std::uint64_t k) {
        return !(time(k) < thr_last);
      };
      last = std::max(j + admitted - 1,
                      first_true(j, cells,
                                 std::ceil((thr_last - t0) / gap - 0.5),
                                 reached));
      // Stop after the last admission the binade allows, else take the
      // rest of the frame.
      if (admitted == room[s]) run = last + 1 - j;
    } else {
      for (std::size_t b = 0; b < nb; ++b) {
        if (!ahead[b]) continue;
        const Gcra& g = *buckets[b];
        const double tat = g.tat_;
        const double d = delta[b];
        const std::uint64_t cap = std::min(run, room[b]);
        if (gap > d) {
          // Draining: ends at the first cell that catches the TAT up.
          const auto caught_up = [&](std::uint64_t c) {
            return !(time(j + c) < tat + static_cast<double>(c) * d);
          };
          run = first_true(1, cap, std::ceil((tat - t) / (gap - d)),
                           caught_up);
        } else {
          // Filling: ends at the first cell the bucket rejects.
          const double L = g.limit_;
          const auto rejected = [&](std::uint64_t c) {
            return time(j + c) < (tat + static_cast<double>(c) * d) - L;
          };
          run = first_true(1, cap,
                           std::floor((t - tat + L) / (d - gap)) + 1.0,
                           rejected);
        }
      }
      admitted = run;
      last = j + run - 1;
    }

    const double t_last = time(last);
    for (std::size_t b = 0; b < nb; ++b) {
      Gcra& g = *buckets[b];
      if (ahead[b]) {
        g.tat_ += static_cast<double>(admitted) * delta[b];
      } else {
        g.tat_ = t_last + g.increment_;
      }
    }
    conforming += admitted;
    j += run;
  }
  tally_.cells += cells;
  tally_.nonconforming += cells - conforming;
  tally_.stepped += stepped;
  return static_cast<double>(conforming);
}

void FramePolicer::flush(obs::MetricsShard& shard) {
  if (tally_.cells == 0) return;
  shard.add("atm.gcra.cells", tally_.cells);
  shard.add("atm.gcra.nonconforming", tally_.nonconforming);
  shard.add("atm.gcra.stepped_cells", tally_.stepped);
  tally_ = PolicingResult{};
}

}  // namespace cts::atm
