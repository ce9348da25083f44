#include "sim/worker_pool.hpp"

namespace hrt::sim {

namespace {
// Spin budget before a waiter parks on its condition variable.  Large
// enough to cover the gap between back-to-back dispatches, small enough
// that an idle pool costs microseconds, not milliseconds.
constexpr int kSpinIters = 4000;
}  // namespace

WorkerPool::WorkerPool(unsigned threads) {
  if (threads > 1) {
    workers_.reserve(threads - 1);
    for (unsigned w = 0; w < threads - 1; ++w) {
      workers_.emplace_back([this] { worker_main(); });
    }
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void WorkerPool::record_exception() {
  std::lock_guard<std::mutex> lock(err_mu_);
  if (!first_error_) first_error_ = std::current_exception();
}

void WorkerPool::run_share() {
  const auto& fn = *fn_;
  try {
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= n_) break;
      fn(i);
    }
  } catch (...) {
    record_exception();
  }
}

void WorkerPool::worker_main() {
  std::uint64_t seen = 0;
  for (;;) {
    // Spin first; park on the cv only if no work shows up promptly.
    bool woke = false;
    for (int i = 0; i < kSpinIters; ++i) {
      if (epoch_.load(std::memory_order_acquire) != seen ||
          stop_.load(std::memory_order_acquire)) {
        woke = true;
        break;
      }
    }
    if (!woke) {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return epoch_.load(std::memory_order_acquire) != seen ||
               stop_.load(std::memory_order_acquire);
      });
    }
    if (stop_.load(std::memory_order_acquire)) return;
    seen = epoch_.load(std::memory_order_acquire);
    run_share();
    if (active_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last one out: wake the caller (lock guards against a missed wakeup
      // between the caller's predicate check and its wait).
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_one();
    }
  }
}

void WorkerPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  {
    std::lock_guard<std::mutex> lock(err_mu_);
    first_error_ = nullptr;
  }
  if (workers_.empty()) {
    // Inline path: no atomics, no barrier.
    try {
      for (std::size_t i = 0; i < n; ++i) fn(i);
    } catch (...) {
      record_exception();
    }
  } else {
    fn_ = &fn;
    n_ = n;
    next_.store(0, std::memory_order_relaxed);
    active_.store(static_cast<unsigned>(workers_.size()),
                  std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      epoch_.fetch_add(1, std::memory_order_release);
    }
    cv_.notify_all();
    // The caller claims indices alongside the workers.
    run_share();
    // Spin-then-park until every worker has checked out.
    bool done = false;
    for (int i = 0; i < kSpinIters; ++i) {
      if (active_.load(std::memory_order_acquire) == 0) {
        done = true;
        break;
      }
    }
    if (!done) {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [&] {
        return active_.load(std::memory_order_acquire) == 0;
      });
    }
  }
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(err_mu_);
    err = first_error_;
    first_error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace hrt::sim
