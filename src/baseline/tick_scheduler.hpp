// Baseline non-real-time scheduler: a commodity-style fixed-tick
// round-robin policy.
//
// The paper's non-hard-real-time comparison point is its own scheduler's
// aperiodic class (round-robin at 10 Hz); this module additionally provides
// a conventional periodic-tick scheduler (not tickless, no RT classes, no
// admission control) so the test suite can demonstrate the kernel's
// scheduler pluggability and quantify the "OS noise" a fixed tick imposes
// on a parallel workload.
#pragma once

#include <cstdint>

#include "nautilus/kernel.hpp"
#include "nautilus/scheduler.hpp"
#include "nautilus/thread.hpp"
#include "rt/queues.hpp"

namespace hrt::baseline {

class TickScheduler final : public nk::SchedulerBase {
 public:
  struct Config {
    sim::Nanos tick = sim::millis(1);  // 1 kHz periodic tick
    std::uint32_t quantum_ticks = 10;  // RR quantum in ticks
    std::size_t max_threads = 1024;    // sleep-queue capacity
  };

  TickScheduler(nk::Kernel& kernel, std::uint32_t cpu, Config cfg)
      : kernel_(kernel),
        cpu_(cpu),
        cfg_(cfg),
        sleepers_(cfg.max_threads) {}

  void attach(nk::CpuExecutor* exec) override { exec_ = exec; }
  nk::PassResult pass(nk::PassReason reason, sim::Nanos now) override;
  void arm_timer(sim::Nanos now) override;
  bool change_constraints(nk::Thread& t, const rt::Constraints& c,
                          sim::Nanos gamma) override;
  [[nodiscard]] sim::Cycles admission_cost_cycles(
      const nk::Thread&, const rt::Constraints&) const override {
    return 500;  // no analysis: just a class check and a field write
  }
  void enqueue(nk::Thread* t) override;
  void on_sleep(nk::Thread& t, sim::Nanos wake_local) override;
  void on_exit(nk::Thread&) override {}
  bool try_wake(nk::Thread& t) override;
  void submit_task(nk::Task task) override;
  [[nodiscard]] std::size_t stealable_count() const override;
  nk::Thread* try_steal() override;
  [[nodiscard]] std::size_t thread_count() const override;
  [[nodiscard]] double admitted_utilization() const override { return 0.0; }

  [[nodiscard]] std::uint64_t ticks_seen() const { return ticks_; }

  static nk::Kernel::SchedulerFactory factory(Config cfg) {
    return [cfg](nk::Kernel& k, std::uint32_t cpu) {
      return std::make_unique<TickScheduler>(k, cpu, cfg);
    };
  }

 private:
  struct WakeBefore {
    bool operator()(const nk::Thread* a, const nk::Thread* b) const {
      return a->wake_time < b->wake_time;
    }
  };

  nk::Kernel& kernel_;
  std::uint32_t cpu_;
  Config cfg_;
  nk::CpuExecutor* exec_ = nullptr;
  rt::Fifo<nk::Thread*> ready_;
  // Earliest-wake heap: the per-tick sleeper sweep peeks top() instead of
  // scanning, and try_wake removes in O(log n) via the intrusive index.
  rt::BoundedHeap<nk::Thread*, WakeBefore, rt::MemberIndex<nk::Thread*>>
      sleepers_;
  rt::Fifo<nk::Task> tasks_;
  std::uint64_t ticks_ = 0;
  std::uint32_t quantum_used_ = 0;
};

}  // namespace hrt::baseline
