// The Nautilus-model kernel: thread lifecycle, per-CPU executors and
// schedulers, interrupt steering, device handler registry, work stealing,
// and the thread pool.
//
// As in the real framework (section 2), everything runs "in kernel mode":
// there are no system calls, no page faults, and no DPC/softIRQ machinery —
// only interrupt handlers and threads (plus the scheduler's lightweight
// tasks).  The kernel is policy-free about scheduling: a SchedulerFactory
// supplies one SchedulerBase per CPU (the hard real-time scheduler from rt/,
// or a baseline).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hw/machine.hpp"
#include "nautilus/behavior.hpp"
#include "nautilus/buddy.hpp"
#include "nautilus/executor.hpp"
#include "nautilus/scheduler.hpp"
#include "nautilus/sync.hpp"
#include "nautilus/thread.hpp"
#include "nautilus/topology.hpp"
#include "timesync/calibration.hpp"

namespace hrt::audit {
class Auditor;
}

namespace hrt::telemetry {
class Telemetry;
}

namespace hrt::nk {

class Kernel {
 public:
  using SchedulerFactory =
      std::function<std::unique_ptr<SchedulerBase>(Kernel&, std::uint32_t)>;

  struct Options {
    SchedulerFactory scheduler_factory;  // required
    bool work_stealing = false;
    sim::Nanos steal_poll_interval = sim::millis(1);
    std::uint32_t interrupt_laden_cpus = 1;  // section 3.5 default partition
    bool tpr_steering = true;  // raise TPR while an RT thread runs (3.5)
    bool calibrate_tsc = true;
    bool start_smi_source = true;
    std::uint32_t numa_zones = 1;
    /// Per-zone buddy arena: thread stacks + scheduler state are allocated
    /// from the owning CPU's zone (section 2: state "is guaranteed to
    /// always be in the most desirable zone").
    std::uint32_t zone_arena_min_order = 12;  // 4 KiB blocks
    std::uint32_t zone_arena_max_order = 26;  // 64 MiB per zone
    std::uint64_t thread_state_bytes = 16384; // stack + TCB per thread
    /// Invariant auditor shared by all schedulers and group collectives
    /// (owned by the caller, typically rt::System); null disables audits.
    audit::Auditor* auditor = nullptr;
    /// Telemetry hub (telemetry/telemetry.hpp): flight recorder, metrics,
    /// SLO monitor.  Owned by the caller (typically rt::System); null
    /// disables all instrumentation at the cost of one pointer test.
    telemetry::Telemetry* telemetry = nullptr;
  };

  /// Per-CPU GPIO instrumentation for the external-scope experiment
  /// (Figure 4).  Pins: 0 = watched thread active, 1 = scheduler pass,
  /// 2 = interrupt handler.
  struct ScopeConfig {
    bool enabled = false;
    std::uint32_t cpu = 0;
    Thread* watch_thread = nullptr;
  };

  Kernel(hw::Machine& machine, Options options);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Bring the system up: TSC calibration, executors + idle threads on every
  /// CPU, SMI source start.  Must be called exactly once, before any
  /// create_thread.
  void boot();

  [[nodiscard]] bool booted() const { return booted_; }

  /// Create a thread bound to `cpu`, initially aperiodic (section 3.1:
  /// "newly created threads begin their life in this class").
  Thread* create_thread(std::string name, std::unique_ptr<Behavior> behavior,
                        std::uint32_t cpu,
                        rt::AperiodicPriority priority = rt::kDefaultPriority,
                        bool bound = true);

  /// Batch-spawn building blocks (rt::System::spawn_batch).  A parked
  /// create fully materializes the thread — TCB from the zone arena pool,
  /// state placed, behavior attached — but does NOT enqueue it or kick the
  /// CPU, so a failed group admission can abort with nothing observable
  /// having happened on any scheduler.
  Thread* create_thread_parked(
      std::string name, std::unique_ptr<Behavior> behavior, std::uint32_t cpu,
      rt::AperiodicPriority priority = rt::kDefaultPriority, bool bound = true);

  /// Publish a parked batch: enqueue every thread, then kick each distinct
  /// CPU exactly once — one IPI per CPU instead of one per thread is half
  /// the batch-spawn amortization (the other half is the single group
  /// admission pass in rt::LocalScheduler::reserve_batch).
  void commit_thread_batch(const std::vector<Thread*>& batch);

  /// Roll a parked batch back: return every thread to the pool.  Legal only
  /// for threads from create_thread_parked that were never committed.
  void abort_thread_batch(const std::vector<Thread*>& batch);

  /// Grow the thread pool to at least `n` entries so a subsequent batch
  /// spawn allocates no new TCBs on the hot path.
  void prewarm_thread_pool(std::size_t n);

  /// Return an exited thread to the pool.
  void reap(Thread* t);

  /// Thread-pool statistics.
  [[nodiscard]] std::size_t pool_size() const { return pool_.size(); }
  [[nodiscard]] std::uint64_t pool_reuses() const { return pool_reuses_; }

  [[nodiscard]] hw::Machine& machine() { return machine_; }
  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] const Topology& topology() const { return topology_; }
  [[nodiscard]] CpuExecutor& executor(std::uint32_t cpu) {
    return *executors_[cpu];
  }
  [[nodiscard]] SchedulerBase& scheduler(std::uint32_t cpu) {
    return *schedulers_[cpu];
  }
  [[nodiscard]] Thread* idle_thread(std::uint32_t cpu) {
    return idle_threads_[cpu];
  }
  [[nodiscard]] std::uint32_t num_cpus() const {
    return machine_.num_cpus();
  }
  [[nodiscard]] const timesync::CalibrationResult& calibration() const {
    return calibration_;
  }
  [[nodiscard]] audit::Auditor* auditor() const { return options_.auditor; }
  [[nodiscard]] telemetry::Telemetry* telemetry() const {
    return options_.telemetry;
  }

  /// Submit a lightweight task to a CPU's scheduler.
  void submit_task(std::uint32_t cpu, Task task);

  /// Register a driver for a device vector: the bounded handler cost
  /// (Nautilus drivers promise deterministic path length, section 2) and an
  /// optional top-half callback run at handler end.
  void register_device_handler(hw::Vector v, sim::Cycles cost,
                               std::function<void()> on_irq = nullptr);
  [[nodiscard]] sim::Cycles device_handler_cost(hw::Vector v) const;
  void run_device_callback(hw::Vector v);

  /// Route all registered device vectors into the interrupt-laden partition
  /// (round-robin over its CPUs).
  void apply_interrupt_partition();

  /// Is `cpu` in the interrupt-free partition?
  [[nodiscard]] bool interrupt_free(std::uint32_t cpu) const {
    return cpu >= options_.interrupt_laden_cpus;
  }

  /// WaitFlag wake path.
  void notify_flag(Thread* t, WaitFlag* f);

  /// Wake a sleeping thread early and kick its CPU.  Returns false if it
  /// was not sleeping.
  bool wake_thread(Thread* t) {
    if (!schedulers_[t->cpu]->try_wake(*t)) return false;
    machine_.cpu(t->cpu).raise(hw::kKickVector);
    return true;
  }

  /// Power-of-two-random-choices work stealing (section 3.4).  Returns the
  /// stolen thread (now enqueued at `thief`) or nullptr.
  Thread* steal_for(std::uint32_t thief);
  [[nodiscard]] std::uint64_t steals() const { return steals_; }

  /// Deliberately re-home a non-realtime thread onto `to` (global placement
  /// and rebalancing, src/global/).  Unlike opportunistic stealing, this
  /// moves a named thread — bound or not — and re-places its stack/TCB into
  /// the destination zone's arena.  The thread must be parked (ready in a
  /// run queue, or sleeping); a running or real-time thread is refused
  /// (false).  RT threads migrate only at job boundaries, through
  /// rt::LocalScheduler::request_migration.
  bool migrate_aperiodic(Thread* t, std::uint32_t to);
  [[nodiscard]] std::uint64_t aperiodic_migrations() const {
    return aperiodic_migrations_;
  }

  /// Scope instrumentation.
  void set_scope(ScopeConfig cfg) { scope_ = cfg; }
  [[nodiscard]] const ScopeConfig& scope() const { return scope_; }

  /// Sum of thread objects ever created (pool reuses don't count twice).
  [[nodiscard]] std::size_t threads_created() const {
    return threads_created_;
  }

  /// The buddy arena serving a NUMA zone's allocations.
  [[nodiscard]] BuddyAllocator& zone_arena(std::uint32_t zone) {
    return *zone_arenas_[zone];
  }
  [[nodiscard]] BuddyAllocator& zone_arena_of_cpu(std::uint32_t cpu) {
    return *zone_arenas_[topology_.zone_of(cpu)];
  }

  /// All live (non-pooled) threads, for diagnostics.
  [[nodiscard]] std::vector<Thread*> live_threads() const;

 private:
  Thread* allocate_thread(std::string name);
  Thread* new_thread();
  void place_thread_state(Thread* t);

  hw::Machine& machine_;
  Options options_;
  Topology topology_;
  bool booted_ = false;

  std::vector<std::unique_ptr<CpuExecutor>> executors_;
  std::vector<std::unique_ptr<SchedulerBase>> schedulers_;
  std::vector<Thread*> idle_threads_;

  // Thread objects are never freed before the kernel (exited ones return to
  // pool_), so they are carved from fixed-size slabs: one host allocation per
  // kThreadSlab threads instead of one per thread.  Freeing the slabs also
  // lets glibc consolidate a teardown's small frees before the next System
  // is built (docs/PERFORMANCE.md, "Scheduler queues").
  static constexpr std::size_t kThreadSlab = 64;
  std::vector<std::unique_ptr<Thread[]>> thread_slabs_;
  std::size_t threads_created_ = 0;
  std::vector<std::unique_ptr<BuddyAllocator>> zone_arenas_;
  std::vector<Thread*> pool_;
  std::uint64_t pool_reuses_ = 0;
  Thread::Id next_id_ = 1;

  struct DeviceHandler {
    sim::Cycles cost = 0;
    std::function<void()> on_irq;
    bool registered = false;
  };
  std::vector<DeviceHandler> device_handlers_;

  timesync::CalibrationResult calibration_;
  std::uint64_t steals_ = 0;
  std::uint64_t aperiodic_migrations_ = 0;
  ScopeConfig scope_;
};

}  // namespace hrt::nk
