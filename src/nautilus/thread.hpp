// Kernel thread object.
//
// A Nautilus thread bound to a CPU keeps its scheduler state in the most
// desirable NUMA zone and is never migrated; only aperiodic threads may move
// (work stealing, section 3.4).  RT bookkeeping (arrival, deadline, budget)
// is owned by the local scheduler but stored inline here so scheduler passes
// are O(1) per thread with no map lookups — the bounded-execution-time
// property of section 3.3 depends on that.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "nautilus/action.hpp"
#include "nautilus/behavior.hpp"
#include "rt/constraints.hpp"
#include "rt/queues.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace hrt::grp {
class ThreadGroup;
}

namespace hrt::nk {

/// Sentinel for Thread::migrate_to: no migration pending.
inline constexpr std::uint32_t kNoMigrateTarget = 0xFFFFFFFFu;

class Thread {
 public:
  using Id = std::uint32_t;

  enum class State : std::uint8_t {
    kReady,     // in some scheduler queue (or pending arrival)
    kRunning,   // current on its CPU (includes spinning)
    kSleeping,  // timed block
    kExited,    // finished, awaiting reap
    kPooled,    // reaped, reusable
  };

  /// Real-time accounting, managed by the local scheduler.
  struct RtState {
    sim::Nanos gamma = 0;          // admission time
    sim::Nanos arrival = 0;        // current arrival's time
    sim::Nanos deadline = 0;       // current arrival's deadline
    sim::Nanos budget_left = 0;    // slice remaining for this arrival
    sim::Nanos budget_at_pass = 0;  // budget_left when a pass last chose it
    bool arrival_open = false;     // an arrival is being served
    bool in_pending = false;       // waiting for arrival time
    bool dispatched_this_arrival = false;
    double density = 0.0;          // sporadic: omega / (d - phase)
    std::uint64_t arrivals = 0;
    std::uint64_t completions = 0;    // arrivals whose budget was delivered
    std::uint64_t misses = 0;         // late or skipped arrivals
    sim::RunningStats miss_ns;        // lateness of late completions
    sim::RunningStats switch_latency; // arrival -> first dispatch
  };

  Id id = 0;
  std::string name;
  std::uint32_t cpu = 0;     // owning local scheduler
  /// Pending job-boundary migration target (global placement, src/global/):
  /// the source scheduler holds a reservation there and hands the thread off
  /// at its next arrival close.
  std::uint32_t migrate_to = kNoMigrateTarget;
  bool bound = false;        // bound threads are never stolen
  bool is_idle = false;      // the per-CPU idle thread
  State state = State::kReady;
  rt::Constraints constraints = rt::Constraints::aperiodic();

  /// Owned by the thread.  A pooled thread keeps its last behavior until the
  /// pool hands the thread out again (recycle()), so callers may still read
  /// a finished thread's behavior until the next spawn, while the number of
  /// live behaviors stays bounded by the thread objects, not total spawns.
  std::unique_ptr<Behavior> behavior;
  /// The group this thread has joined (src/group/), or null: set by the
  /// group's join, cleared by its leave, by the group's destruction and by
  /// recycle(), so a pooled TCB never carries its former owner's membership.
  grp::ThreadGroup* group = nullptr;

  // Action progress (managed by the executor).
  Action action;
  bool action_active = false;
  sim::Nanos action_remaining = 0;
  bool spin_satisfied = false;  // flag fired while we were descheduled
  class WaitFlag* spinning_on = nullptr;  // registered spinner on this flag
  bool last_admit_ok = true;

  // Scheduler linkage.
  std::uint64_t rr_seq = 0;      // round-robin ordering within a priority
  sim::Nanos wake_time = 0;      // for sleepers
  rt::HeapIndex heap_index;      // which scheduler heap holds us, and where
  RtState rt;

  // NUMA placement of the thread's essential state (stack, TCB): allocated
  // from the buddy arena of the owning CPU's zone (section 2).
  std::uint64_t state_addr = 0;
  std::uint32_t state_zone = 0xFFFFFFFFu;

  // Lifetime statistics.
  sim::Nanos total_cpu_ns = 0;
  std::uint64_t dispatches = 0;

  [[nodiscard]] bool is_realtime() const { return constraints.is_realtime(); }

  /// Reset for reuse from the thread pool.
  void recycle(Id new_id, std::string new_name) {
    id = new_id;
    name = std::move(new_name);
    migrate_to = kNoMigrateTarget;
    state = State::kReady;
    constraints = rt::Constraints::aperiodic();
    behavior.reset();
    action = Action::exit();
    action_active = false;
    action_remaining = 0;
    spin_satisfied = false;
    spinning_on = nullptr;
    last_admit_ok = true;
    rr_seq = 0;
    wake_time = 0;
    heap_index = rt::HeapIndex{};
    rt = RtState{};
    total_cpu_ns = 0;
    dispatches = 0;
    bound = false;
    is_idle = false;
    group = nullptr;
  }
};

}  // namespace hrt::nk
