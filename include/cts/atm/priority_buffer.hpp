// Space-priority buffer management (CLP-aware partial buffer sharing).
//
// ATM's CLP bit marks low-priority cells; the classic buffer-management
// policy is PARTIAL BUFFER SHARING: low-priority (CLP = 1) cells are
// admitted only while the queue is below a threshold S < B, high-priority
// cells up to the full buffer B.  This module provides the fluid frame-
// level version of that policy for two traffic classes, reporting per-class
// loss -- the mechanism that turns one physical buffer into two QOS
// classes.

#pragma once

#include <cstdint>

namespace cts::obs {
class MetricsShard;
}

namespace cts::atm {

/// Per-class tallies of a partial-buffer-sharing hop.
struct PrioritySharingResult {
  std::uint64_t frames = 0;
  double high_arrived = 0.0;
  double low_arrived = 0.0;
  double high_lost = 0.0;
  double low_lost = 0.0;

  double high_clr() const {
    return high_arrived > 0.0 ? high_lost / high_arrived : 0.0;
  }
  double low_clr() const {
    return low_arrived > 0.0 ? low_lost / low_arrived : 0.0;
  }
};

/// Exact within-frame outcome of the two-priority fluid policy.
struct PriorityFrameOutcome {
  double q = 0.0;          ///< end-of-frame queue
  double low_lost = 0.0;   ///< low-priority fluid dropped this frame
  double high_lost = 0.0;  ///< high-priority fluid dropped this frame
};

/// One frame of the two-priority fluid dynamics: starting from queue `q0`
/// with constant high/low arrival rates `ah`/`al` and service rate `c`
/// (cells/frame), low fluid blocked while q >= `s` and high fluid while
/// q >= `b`.  Piecewise-linear evolution with sliding modes at S and B.
/// The scenario executor's priority hops (cts/sim/scenario_run.hpp) run
/// it once per frame.
PriorityFrameOutcome evolve_priority_frame(double q0, double ah, double al,
                                           double c, double s, double b);

/// Folds per-class arrival/loss tallies into `shard` as atm.priority.*
/// metrics (counter atm.priority.frames, sums atm.priority.high_arrived /
/// high_lost / low_arrived / low_lost, all in cells).
void record_priority_sharing(const PrioritySharingResult& result,
                             obs::MetricsShard& shard);

}  // namespace cts::atm
