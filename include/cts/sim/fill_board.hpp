// The task board of one replication pool.
//
// A replication is the pool's unit of hand-out, but not its unit of work:
// the fluid multiplexer reads its sources one chunk of frames at a time,
// and it posts the chunk's source fills (one row per source) to the board
// of the pool that runs it.  The thread that posted a chunk claims its own
// fills first.  A pool thread with no replication left, or an owner
// waiting for the last fills of its own chunk, runs any open fill, so the
// pool never idles while a source still has frames to make.  Threads sleep
// on the board's condition variable only when nothing is open.
//
// Work sharing never changes a byte of output.  Every source owns its RNG,
// and each row is written by one FrameSource::fill call of that source, so
// a row holds exactly the frames one thread would have drawn; the
// multiplexer then sums the rows in source order.  Which thread filled a
// row is invisible in the result.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "cts/proc/frame_source.hpp"

namespace cts::sim {

class FillBoard {
 public:
  /// A board that hands out the local replication indices [0, replications).
  explicit FillBoard(std::size_t replications);
  FillBoard(const FillBoard&) = delete;
  FillBoard& operator=(const FillBoard&) = delete;

  /// Writes `n` frames of sources[s] to row s (block + s * stride) for every
  /// s, on this thread and on idle pool threads, and returns when every row
  /// is written.  Rethrows the first exception a fill raised, after every
  /// claimed fill of the chunk has finished.
  void fill(const std::vector<std::unique_ptr<proc::FrameSource>>& sources,
            double* block, std::size_t stride, std::size_t n);

  /// One pool thread's loop: runs `replication(local)` for unclaimed
  /// indices, and open fills when none is left.  Returns when every
  /// replication has finished.  The first exception a replication throws
  /// stops the hand-out of further indices; failure() returns it.
  void work(const std::function<void(std::size_t local)>& replication);

  std::exception_ptr failure() const;

 private:
  /// The fills of one posted chunk.  It lives on its owner's stack; the
  /// owner returns only after `done == count`, and every claimer's last
  /// touch (the `done` increment) happens under the lock.
  struct Chunk {
    const std::unique_ptr<proc::FrameSource>* sources;
    double* block;
    std::size_t stride;
    std::size_t n;
    std::size_t count;
    std::size_t next = 0;  ///< first unclaimed row
    std::size_t done = 0;  ///< rows written (or failed)
    std::exception_ptr error;
  };

  /// Claims the next row of `chunk`, fills it unlocked, and counts it done.
  void run_fill(std::unique_lock<std::mutex>& lock, Chunk& chunk);
  void sleep(std::unique_lock<std::mutex>& lock);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Chunk*> open_;  ///< chunks with unclaimed rows, oldest first
  std::size_t replications_;
  std::size_t next_ = 0;       ///< next unclaimed replication
  std::size_t in_flight_ = 0;  ///< replications running
  std::size_t sleeping_ = 0;   ///< threads waiting on cv_
  std::exception_ptr failure_;
};

}  // namespace cts::sim
