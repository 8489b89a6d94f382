// Generic Cell Rate Algorithm (GCRA) -- ATM usage parameter control.
//
// The policing companion of admission control: the network verifies at the
// UNI that a connection keeps the traffic contract its CAC decision was
// based on.  GCRA(T, tau) is the ITU I.371 virtual-scheduling algorithm:
// a cell arriving at time t conforms iff t >= TAT - tau, where TAT is the
// theoretical arrival time; conforming cells advance TAT by T.
//
// Dual leaky buckets (peak rate + sustainable rate with burst tolerance)
// are composed from two GCRA instances, as in the ATM Forum UNI spec.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

namespace cts::obs {
class MetricsShard;
}

namespace cts::atm {

/// One GCRA(T, tau) instance (virtual scheduling formulation).
class Gcra {
 public:
  /// `increment` is T (seconds/cell, the reciprocal contract rate);
  /// `limit` is tau (seconds of tolerance).
  Gcra(double increment, double limit);

  /// True iff a cell arriving at `t` would conform: the conformance test
  /// of conforms() without its commit.  The first cell always conforms.
  bool admits(double t) const noexcept {
    return first_ || !(t < tat_ - limit_);
  }

  /// Processes a cell arriving at absolute time `t` (seconds, must be
  /// non-decreasing across calls).  Returns true iff the cell conforms;
  /// non-conforming cells do NOT advance the scheduler state.
  bool conforms(double t);

  /// Resets to the initial state (next cell always conforms).
  void reset();

  double increment() const noexcept { return increment_; }
  double limit() const noexcept { return limit_; }
  /// Theoretical arrival time of the next cell (0 before the first cell).
  double tat() const noexcept { return tat_; }

 private:
  friend class FramePolicer;  // advances tat_ over closed-form runs

  double increment_;
  double limit_;
  double tat_ = 0.0;
  bool first_ = true;
};

/// Dual leaky bucket: peak cell rate (PCR, with CDV tolerance) plus
/// sustainable cell rate (SCR, with burst tolerance).  A cell conforms only
/// if it conforms to both buckets; the buckets advance independently per
/// the ATM Forum conformance definition.
class DualLeakyBucket {
 public:
  /// Rates in cells/second; tolerances in seconds.
  DualLeakyBucket(double peak_rate, double cdv_tolerance,
                  double sustainable_rate, double burst_tolerance);

  bool conforms(double t);
  void reset();

  /// Maximum burst size (cells) the SCR bucket admits at peak rate:
  /// MBS = 1 + floor(BT / (1/SCR - 1/PCR)).
  double max_burst_size() const;

  const Gcra& peak() const noexcept { return peak_; }
  const Gcra& sustainable() const noexcept { return sustainable_; }

 private:
  friend class FramePolicer;

  Gcra peak_;
  Gcra sustainable_;
};

/// Policing statistics for a cell stream.
struct PolicingResult {
  std::uint64_t cells = 0;
  std::uint64_t nonconforming = 0;
  /// Cells FramePolicer resolved by a per-cell GCRA step rather than in a
  /// closed-form run.
  std::uint64_t stepped = 0;

  double violation_ratio() const {
    return cells > 0
               ? static_cast<double>(nonconforming) /
                     static_cast<double>(cells)
               : 0.0;
  }
};

/// A frame's fluid cell count as whole cells: rounded to nearest (halves
/// away from zero), negatives to 0.  Throws util::InvalidArgument, naming
/// the value, for a non-finite count or one of 2^53 cells or more.
std::uint64_t whole_cells(double frame_cells);

/// Frame-level UPC: quantizes a frame's fluid cell count to whole cells
/// (whole_cells), replays them through a GCRA (or dual leaky bucket) at the
/// deterministic smoothing schedule (cell j of frame n at
/// t_j = n Ts + (j + 1/2) gap, gap = Ts/k), and drops non-conforming cells.
/// This is the per-source policing stage of the scenario pipeline
/// (cts/sim/scenario_run.hpp).
///
/// A frame is applied as a few runs of cells in which every bucket keeps
/// one mode (rejecting, caught up, draining, filling or saturating), each
/// in closed form; whatever no mode covers takes one per-cell Gcra step.  TATs and
/// tallies are bit-identical to stepping every cell (docs/architecture.md,
/// "Frame-level GCRA").
///
/// Obs-aware in the accumulate-then-reduce idiom: police() only updates a
/// local PolicingResult; flush() folds it into a MetricsShard as
/// atm.gcra.cells / atm.gcra.nonconforming / atm.gcra.stepped_cells and
/// resets it.
class FramePolicer {
 public:
  /// Single-bucket GCRA(1/sustainable_rate, burst_tolerance); rates in
  /// cells/second, tolerances in seconds, `Ts` the frame duration.
  FramePolicer(double sustainable_rate, double burst_tolerance, double Ts);

  /// Dual leaky bucket: PCR with CDV tolerance plus SCR with burst
  /// tolerance.
  FramePolicer(double peak_rate, double cdv_tolerance,
               double sustainable_rate, double burst_tolerance, double Ts);

  /// Polices frame `frame_index`'s cells; returns the conforming count.
  double police(std::uint64_t frame_index, double frame_cells);

  const PolicingResult& tally() const noexcept { return tally_; }

  /// Number of buckets: 1 (SCR) or 2 (PCR, SCR).
  std::size_t bucket_count() const noexcept { return single_ ? 1 : 2; }
  /// Bucket `i` < bucket_count(): the SCR bucket of a single-bucket
  /// policer, else 0 = PCR and 1 = SCR.
  const Gcra& bucket(std::size_t i) const;

  /// Folds and resets the tallies accumulated since the last flush.
  void flush(obs::MetricsShard& shard);

 private:
  std::optional<Gcra> single_;
  std::optional<DualLeakyBucket> dual_;
  double Ts_;
  PolicingResult tally_;
};

}  // namespace cts::atm
