// Common interface of all VBR video frame-size generators.
//
// A FrameSource emits the size (in ATM cells) of successive video frames of
// one source.  The four paper models (V^v, Z^a, S = DAR(p), L = FBNDP) all
// implement this interface, so multiplexer simulators and estimators are
// written once against it.
//
// Sources own their random stream: the replication harness derives one
// decorrelated seed per (replication, source) pair, so results are
// bit-reproducible and independent of thread scheduling.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace cts::proc {

/// Generator of per-frame cell counts for one VBR video source.
///
/// Frame sizes are returned as doubles: the Gaussian-marginal models of the
/// paper are naturally continuous ("fluid" cells); the cell-level simulator
/// quantises via proc::GaussianQuantizer.
class FrameSource {
 public:
  virtual ~FrameSource() = default;

  /// Size of the next frame in cells.  Never throws; numerically clamped
  /// implementations document their clamping.
  virtual double next_frame() = 0;

  /// Writes the next `n` frames to out[0..n): exactly what `n` calls of
  /// next_frame() return, bit for bit, because the source owns its RNG.
  /// The fluid multiplexer reads its sources a block at a time through
  /// this, so a block can be made on any thread.  Every `final` source
  /// overrides it with fill_frames, which binds next_frame statically.
  virtual void fill(double* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = next_frame();
  }

  /// Analytic stationary mean frame size (cells/frame).
  virtual double mean() const = 0;

  /// Analytic stationary variance of frame size (cells/frame)^2.
  virtual double variance() const = 0;

  /// Fresh, statistically independent copy whose stream is seeded from
  /// `seed`.  Used by the replication harness.
  virtual std::unique_ptr<FrameSource> clone(std::uint64_t seed) const = 0;

  /// Human-readable model name (e.g. "Z^0.975", "DAR(2)").
  virtual std::string name() const = 0;
};

/// The fill() of a `final` source: `n` calls of Source::next_frame, bound
/// statically so the call inlines into the loop.
template <class Source>
void fill_frames(Source& source, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = source.Source::next_frame();
}

}  // namespace cts::proc
