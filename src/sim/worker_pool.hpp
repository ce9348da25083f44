// Persistent host-thread worker pool behind the bench sweeps' cell fan-out
// (bench::parallel_for_index): one pool, one --threads knob.
//
// Dispatch is a phase barrier: the caller publishes a job, wakes the
// workers, participates in the job itself, then waits for the last worker
// to check out.  Workers spin briefly before falling back to a condition
// variable, so back-to-back dispatches avoid futex round-trips while long
// idle gaps cost no CPU.  Indices are claimed from a shared atomic counter,
// which balances cells whose cost varies.
//
// Exceptions thrown by the body are captured and the first one is rethrown
// on the calling thread after the barrier.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hrt::sim {

class WorkerPool {
 public:
  /// `threads` is the total parallelism including the calling thread; the
  /// pool spawns threads-1 workers.  0 or 1 means "run everything inline".
  explicit WorkerPool(unsigned threads);
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  ~WorkerPool();

  [[nodiscard]] unsigned threads() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Run fn(i) for i in [0, n) with dynamic index claiming.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void run_share();
  void worker_main();
  void record_exception();

  // Job slot: written by the caller before the epoch bump, read by workers
  // after observing the bump (release/acquire pairs make this race-free).
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t n_ = 0;
  std::atomic<std::size_t> next_{0};

  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<unsigned> active_{0};
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::condition_variable cv_;        // workers wait for a new epoch
  std::condition_variable done_cv_;   // caller waits for active_ == 0

  std::mutex err_mu_;
  std::exception_ptr first_error_;

  std::vector<std::thread> workers_;
};

}  // namespace hrt::sim
