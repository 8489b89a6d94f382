#include "cts/sim/fill_board.hpp"

#include <algorithm>

namespace cts::sim {

FillBoard::FillBoard(std::size_t replications) : replications_(replications) {}

void FillBoard::fill(
    const std::vector<std::unique_ptr<proc::FrameSource>>& sources,
    double* block, std::size_t stride, std::size_t n) {
  Chunk chunk{sources.data(), block, stride, n, sources.size(), 0, 0, {}};
  std::unique_lock<std::mutex> lock(mu_);
  open_.push_back(&chunk);
  if (sleeping_ > 0) cv_.notify_all();
  while (chunk.done < chunk.count) {
    if (chunk.next < chunk.count) {
      run_fill(lock, chunk);
    } else if (!open_.empty()) {
      run_fill(lock, *open_.front());
    } else {
      sleep(lock);
    }
  }
  lock.unlock();
  if (chunk.error) std::rethrow_exception(chunk.error);
}

void FillBoard::work(
    const std::function<void(std::size_t local)>& replication) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (next_ < replications_) {
      const std::size_t local = next_++;
      ++in_flight_;
      lock.unlock();
      std::exception_ptr error;
      try {
        replication(local);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      --in_flight_;
      if (error) {
        if (!failure_) failure_ = error;
        next_ = replications_;
      }
      // The last replication out releases the sleepers so they can return.
      if (in_flight_ == 0 && next_ == replications_ && sleeping_ > 0) {
        cv_.notify_all();
      }
    } else if (!open_.empty()) {
      run_fill(lock, *open_.front());
    } else if (in_flight_ == 0) {
      return;
    } else {
      sleep(lock);
    }
  }
}

std::exception_ptr FillBoard::failure() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return failure_;
}

void FillBoard::run_fill(std::unique_lock<std::mutex>& lock, Chunk& chunk) {
  const std::size_t row = chunk.next++;
  if (chunk.next == chunk.count) {
    open_.erase(std::find(open_.begin(), open_.end(), &chunk));
  }
  lock.unlock();
  std::exception_ptr error;
  try {
    chunk.sources[row]->fill(chunk.block + row * chunk.stride, chunk.n);
  } catch (...) {
    error = std::current_exception();
  }
  lock.lock();
  if (error && !chunk.error) chunk.error = error;
  // The owner may destroy the chunk once it sees the count complete; this
  // is the claimer's last touch, made under the lock.
  if (++chunk.done == chunk.count && sleeping_ > 0) cv_.notify_all();
}

void FillBoard::sleep(std::unique_lock<std::mutex>& lock) {
  ++sleeping_;
  cv_.wait(lock);
  --sleeping_;
}

}  // namespace cts::sim
