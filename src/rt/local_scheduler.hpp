// The hard real-time local scheduler (section 3).
//
// One instance drives each CPU.  At its base it is a simple *eager* earliest
// deadline first engine with three queues:
//   * pending:   admitted RT threads waiting for their next arrival time
//   * rt run:    RT threads with an open arrival, ordered by deadline (EDF)
//   * non-rt run: aperiodic threads, priority + round-robin
// plus a sleep queue and the lightweight task queues.
//
// It is invoked only on a timer interrupt, a kick IPI from another local
// scheduler, or by a small set of current-thread actions (sleep, yield,
// exit, change constraints).  Every invocation is bounded: the queues have
// fixed capacity (Config::max_threads, Config::max_tasks) and the pass cost
// model charges base + per-thread work.  The host storage behind the queues
// is allocated on demand and never past capacity, so a booted CPU holds only
// what its threads and tasks have used; the simulated cost does not depend
// on it.
//
// Eagerness (section 3.6): a runnable real-time thread is switched to
// immediately, never delayed to the latest feasible start, so that SMI
// missing time striking mid-slice rarely pushes completion past the
// deadline.  The lazy variant is retained behind a config flag for the
// ablation benchmark.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "nautilus/kernel.hpp"
#include "nautilus/scheduler.hpp"
#include "nautilus/thread.hpp"
#include "resilience/estimator.hpp"
#include "rt/admission.hpp"
#include "rt/constraints.hpp"
#include "rt/fixed_point.hpp"
#include "rt/queues.hpp"
#include "telemetry/metrics.hpp"

namespace hrt::audit {
class Auditor;
}

namespace hrt::telemetry {
class Telemetry;
}

namespace hrt::rt {

enum class AdmissionPolicy : std::uint8_t {
  kEdf,         // utilization test against the configured limit
  kRmLl,        // Liu-Layland rate-monotonic bound
  kRmRta,       // exact response-time analysis
  kSimulation,  // hyperperiod simulation prototype (section 3.2)
};

class LocalScheduler final : public nk::SchedulerBase {
 public:
  struct Config {
    // Paper's default configuration (section 5.1): 99% utilization limit,
    // 10% sporadic reservation, 10% aperiodic reservation, aperiodic
    // round-robin at 10 Hz.
    double utilization_limit = 0.99;
    double sporadic_reservation = 0.10;
    double aperiodic_reservation = 0.10;
    sim::Nanos aperiodic_quantum = sim::millis(100);
    AdmissionPolicy policy = AdmissionPolicy::kEdf;
    bool admission_enabled = true;  // figures 6-9 turn this off
    bool eager = true;              // ablation: lazy EDF when false
    /// O(1) lock-free admission fast path (docs/API.md): probe the Q32.32
    /// committed/reserved words before running the O(n) analysis.  The
    /// probe's conservative rounding (rt/fixed_point.hpp) guarantees a fast
    /// admit implies the slow-path admit, so decisions are identical with
    /// the flag on or off; off is the serial-slow ablation baseline
    /// (bench/ablate_spawn).  kEdf only; other policies always fall back.
    bool fast_admission = true;
    std::size_t max_threads = 1024;
    std::size_t max_tasks = 4096;
    // Bounds on requestable constraints (section 3.3: "Bounds are also
    // placed on the granularity and minimum size of the timing
    // constraints"), enforced only when admission is enabled.
    sim::Nanos min_period = sim::micros(1);
    sim::Nanos min_slice = sim::micros(1);

    // SMI missing-time resilience (docs/RESILIENCE.md).  The estimator
    // watches timer-delivery lateness at scheduler entry; when degraded
    // admission is on, the admission test subtracts the estimated stolen
    // fraction (plus a reserve) from the available RT utilization.
    resilience::EstimatorConfig estimator;
    double resilience_reserve = 0.0;
    bool degraded_admission = false;

    /// Deliberately re-introduce fixed bugs so the auditor's regression
    /// tests can prove each one is caught (test_audit.cpp); never set
    /// outside tests.
    struct TestFaults {
      bool sleeping_change_to_nonrt = false;  // sleeper -> nonrt_ on change
      bool stale_sporadic_tail = false;   // keep rr_seq + reservation on tail
      bool double_count_current = false;  // thread_count() counts cur twice
      bool rearm_past_quantum = false;    // arm quantum target in the past
      bool drop_committed_release = false;  // committed word misses releases
      bool stale_migrate_cpu = false;     // migrate without updating t->cpu
      // Failed admission consumes the caller's two-phase reservation (the
      // pre-fix change_constraints behavior: held utilization silently lost
      // on a rejected commit).
      bool consume_reservation_on_reject = false;
      // A failed migration hand-off releases the reservation on the
      // *original* CPU instead of the target, leaking the target's held
      // utilization (the spawn_auto admit-retry rollback bug).
      bool migration_rollback_wrong_cpu = false;
      // A re-arm leaves latched a one-shot fire that landed while the
      // handler had interrupts masked, so the superseded fire still starts
      // a pass (the stale-timer-fire livelock).
      bool keep_stale_timer_latch = false;
    };
    TestFaults test_faults;
  };

  struct Stats {
    std::uint64_t passes = 0;
    std::uint64_t timer_passes = 0;
    std::uint64_t kick_passes = 0;
    std::uint64_t admissions_ok = 0;
    std::uint64_t admissions_rejected = 0;
    std::uint64_t fast_admits = 0;      // fast path decided without analysis
    std::uint64_t fast_fallbacks = 0;   // fast path punted to the slow path
    std::uint64_t batch_reserves = 0;   // reserve_batch calls
    std::uint64_t batch_reserved_threads = 0;  // threads those calls admitted
    std::uint64_t tasks_inline = 0;
    std::uint64_t rr_rotations = 0;
    std::uint64_t zero_delay_arms = 0;  // one-shot armed with zero delay
    // One-shot arms by the term that set the target (timer provenance).
    telemetry::ArmTermCounts arms_by_term{};
    // Passes that neither switched nor moved any budget: no arrival opened
    // or closed, and no RT slice was charged since the previous pass.
    std::uint64_t idle_passes = 0;
    std::uint64_t migrations_requested = 0;  // request_migration accepted
    std::uint64_t migrations_out = 0;        // hand-offs completed from here
    std::uint64_t migrations_in = 0;         // hand-offs landed here
    std::uint64_t migration_failures = 0;    // hand-off fell back / demoted
  };

  LocalScheduler(nk::Kernel& kernel, std::uint32_t cpu, Config cfg);

  // --- nk::SchedulerBase ---
  void attach(nk::CpuExecutor* exec) override { exec_ = exec; }
  nk::PassResult pass(nk::PassReason reason, sim::Nanos now) override;
  void arm_timer(sim::Nanos now) override;
  bool change_constraints(nk::Thread& t, const Constraints& c,
                          sim::Nanos gamma) override;
  [[nodiscard]] sim::Cycles admission_cost_cycles(
      const nk::Thread& t, const Constraints& c) const override;
  void enqueue(nk::Thread* t) override;
  void on_sleep(nk::Thread& t, sim::Nanos wake_local) override;
  void on_exit(nk::Thread& t) override;
  bool try_wake(nk::Thread& t) override;
  void submit_task(nk::Task task) override;
  [[nodiscard]] std::size_t stealable_count() const override;
  nk::Thread* try_steal() override;
  bool detach_for_migration(nk::Thread& t) override;
  [[nodiscard]] std::size_t thread_count() const override;
  [[nodiscard]] double admitted_utilization() const override {
    return fast_committed_.value();
  }
  void audit_state(sim::Nanos now) override;

  // --- introspection ---
  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t pending_count() const { return pending_.size(); }
  [[nodiscard]] std::size_t rt_run_count() const { return rt_run_.size(); }
  [[nodiscard]] std::size_t nonrt_count() const { return nonrt_.size(); }
  [[nodiscard]] std::size_t sleeper_count() const { return sleepers_.size(); }
  [[nodiscard]] double available_rt_utilization() const {
    return cfg_.utilization_limit - cfg_.sporadic_reservation -
           cfg_.aperiodic_reservation;
  }
  /// RT availability after subtracting the estimated missing-time fraction
  /// and the configured reserve (identity when degraded admission is off).
  [[nodiscard]] double effective_rt_availability() const {
    double avail = available_rt_utilization();
    if (cfg_.degraded_admission) {
      avail -= estimator_.ewma_fraction() + cfg_.resilience_reserve;
    }
    return avail > 0 ? avail : 0.0;
  }
  [[nodiscard]] resilience::MissingTimeEstimator& missing_time() {
    return estimator_;
  }
  [[nodiscard]] const resilience::MissingTimeEstimator& missing_time() const {
    return estimator_;
  }
  /// Unsized-task access for the task-exec helper thread.
  [[nodiscard]] bool has_unsized_task() const {
    return !unsized_tasks_.empty();
  }
  nk::Task pop_unsized_task();

  // --- two-phase admission for group scheduling (section 4.4) ---
  // During group admission the requesting thread must stay aperiodic (it
  // still has barriers and the phase-correction step to execute), so the
  // utilization is reserved first and the class switch happens at the final
  // change_constraints.  change_constraints consumes a matching reservation
  // automatically.
  [[nodiscard]] bool reserve_constraints(nk::Thread& t, const Constraints& c);
  void cancel_reservation(nk::Thread& t);
  [[nodiscard]] bool has_reservation(const nk::Thread& t) const;

  // --- batched admission (System::spawn_batch, docs/API.md) ---
  // Admit a group of freshly created threads with ONE admission analysis
  // (or one fast-path word probe) for the whole group, all-or-nothing: on
  // success every thread holds a two-phase reservation to be consumed by
  // its first change_constraints; on failure nothing is reserved.
  // Aperiodic entries are accepted without a reservation (aperiodic
  // admission cannot fail).
  [[nodiscard]] bool reserve_batch(
      const std::vector<std::pair<nk::Thread*, Constraints>>& items);

  // --- lock-free admission fast path (docs/API.md) ---
  // O(1) wait-free probe of the Q32.32 words.  Returns nullopt when the
  // fast path does not apply (disabled, non-kEdf policy, non-periodic
  // class); otherwise the conservative decision: true implies the slow
  // path would also admit, false may be spurious (slow path remains the
  // authority inside admit_check).
  [[nodiscard]] std::optional<bool> fast_path_decision(
      const Constraints& c) const;
  /// Full admission answer for a hypothetical brand-new thread (no
  /// exclusions), fast path included; bench/fuzz probe, no state change
  /// beyond stats.
  [[nodiscard]] bool probe_admission(const Constraints& c);
  /// The committed/reserved fast-path words.  The committed word is this
  /// CPU's only committed-utilization state: the placement ledger reads it
  /// (global/ledger.hpp).
  [[nodiscard]] const fp::AdmissionWord& fast_committed_word() const {
    return fast_committed_;
  }
  [[nodiscard]] const fp::AdmissionWord& fast_reserved_word() const {
    return fast_reserved_;
  }

  // --- job-boundary RT migration (global placement, docs/GLOBAL.md) ---
  // Move an admitted periodic thread to another CPU without ever splitting a
  // job: the target's utilization is held with a reservation immediately,
  // and the hand-off happens when the thread is parked between arrivals —
  // right away if it already is, otherwise at its next arrival close inside
  // pass().  Lifetime statistics (arrivals/misses) survive the move.
  bool request_migration(nk::Thread& t, std::uint32_t to);

  // --- deferred constraint changes (resilience shed/restore) ---
  // External subsystems (the storm controller runs as an engine observer,
  // outside any CPU's handler sequence) must not mutate scheduler state
  // directly: the executor may be mid-handler with a dispatch decision
  // already made.  They queue the change here instead; pass() applies it at
  // entry — the same quiesce point where arrival closes and migration
  // hand-offs run.  `done` is called with the admission outcome; the change
  // is dropped (done(false)) if the thread exited or moved CPUs meanwhile.
  void defer_constraint_change(nk::Thread& t, const Constraints& c,
                               std::function<void(nk::Thread*, bool)> done);

 private:
  struct ArrivalBefore {
    bool operator()(const nk::Thread* a, const nk::Thread* b) const {
      return a->rt.arrival < b->rt.arrival;
    }
  };
  struct DeadlineBefore {
    bool operator()(const nk::Thread* a, const nk::Thread* b) const {
      return a->rt.deadline < b->rt.deadline;
    }
  };
  struct AperBefore {
    bool operator()(const nk::Thread* a, const nk::Thread* b) const {
      if (a->constraints.priority != b->constraints.priority) {
        return a->constraints.priority < b->constraints.priority;
      }
      return a->rr_seq < b->rr_seq;
    }
  };
  struct WakeBefore {
    bool operator()(const nk::Thread* a, const nk::Thread* b) const {
      return a->wake_time < b->wake_time;
    }
  };

  void pump(sim::Nanos now);
  void open_arrival(nk::Thread* t);
  void close_arrival(nk::Thread* t, sim::Nanos now);
  void complete_migration(nk::Thread& t, sim::Nanos now);
  void ledger_admit(double util);
  void ledger_release(double util);
  nk::Thread* select_next(sim::Nanos now, nk::PassReason reason);
  void detach_bookkeeping(nk::Thread* t);
  [[nodiscard]] bool admit_check(const nk::Thread* t, const Constraints& c);
  [[nodiscard]] bool periodic_set_admissible(
      const std::vector<PeriodicTask>& set) const;
  [[nodiscard]] bool fast_words_fit(fp::Raw need) const;
  /// Fixed-point quantum already held by `t`'s reservation of class `cls`
  /// (0 if none): a commit consuming it adds only the difference.
  [[nodiscard]] fp::Raw reserved_quantum(const nk::Thread& t,
                                         ConstraintClass cls) const;
  [[nodiscard]] std::vector<PeriodicTask> periodic_tasks_with(
      const nk::Thread* exclude, const Constraints* extra) const;
  void audit_queues(sim::Nanos now);
  void audit_utilization(sim::Nanos now);
  void audit_edf_order(const nk::Thread* next, sim::Nanos now);
  void audit_budget(const nk::Thread* t, sim::Nanos now);

  // Layout: every System allocates one LocalScheduler per CPU, and glibc
  // serves chunks of 1024 bytes and up from its sorted large bins.  Past
  // that size a telemetry-off Phi boot measured ~20 us (~15%) slower, so
  // keep sizeof at most 1000 bytes (static_assert in test_scheduler.cpp):
  // small members fill padding holes.
  nk::Kernel& kernel_;
  std::uint32_t cpu_;
  // Timer passes in a row that found the current RT thread's residual slice
  // as the previous pass left it (a pass livelock; audited under kTimerArm).
  std::uint16_t stall_streak_ = 0;
  // The latest pass saw the current thread's aperiodic quantum expired.
  bool quantum_expired_at_pass_ = false;
  Config cfg_;
  nk::CpuExecutor* exec_ = nullptr;
  sim::Nanos slop_;  // timer earliness tolerance (one APIC tick)
  audit::Auditor* auditor_ = nullptr;  // owned by System; may be null
  telemetry::Telemetry* telemetry_ = nullptr;  // flight recorder; may be null
  sim::Nanos budget_audit_slop_ = 0;   // tolerance for the budget invariant
  std::uint32_t zero_arm_streak_ = 0;  // consecutive zero-delay one-shots
  std::uint32_t budget_moves_ = 0;  // arrivals opened + closed (wraps)

  // Intrusively indexed: a thread knows which of these heaps holds it, so
  // remove()/detach are O(log n) and cross-queue probes are O(1) misses.
  BoundedHeap<nk::Thread*, ArrivalBefore, MemberIndex<nk::Thread*>> pending_;
  BoundedHeap<nk::Thread*, DeadlineBefore, MemberIndex<nk::Thread*>> rt_run_;
  BoundedHeap<nk::Thread*, AperBefore, MemberIndex<nk::Thread*>> nonrt_;
  BoundedHeap<nk::Thread*, WakeBefore, MemberIndex<nk::Thread*>> sleepers_;
  std::vector<nk::Thread*> periodic_set_;  // admitted periodic threads

  Fifo<nk::Task> sized_tasks_;
  Fifo<nk::Task> unsized_tasks_;
  std::vector<std::pair<nk::Thread*, Constraints>> reservations_;

  struct DeferredChange {
    nk::Thread* thread;
    std::uint64_t id;  // guards against pool reuse between defer and apply
    Constraints constraints;
    std::function<void(nk::Thread*, bool)> done;
  };
  std::vector<DeferredChange> deferred_changes_;

  resilience::MissingTimeEstimator estimator_;
  sim::Nanos expected_fire_ = -1;  // target of the last armed one-shot
  sim::Nanos armed_delay_ = -1;    // its arming delay (the sampling gap)
  sim::Nanos pass_entry_ = -1;     // start of the handler span being timed
  sim::Nanos expected_span_ = 0;   // predicted cost of that span

  // The sporadic class's own admission input (utilization_fits against the
  // sporadic reservation); the periodic side is recomputed from
  // periodic_set_ by the slow path.
  double sporadic_util_ = 0.0;
  // Committed utilization (periodic + sporadic, added at ledger_admit and
  // subtracted at ledger_release) and the reservation list, as Q32.32
  // words.  Demand rounds up on entry, so the words upper-bound the true
  // sums and a word probe can admit without the O(n) analysis
  // (docs/API.md); the kUtilization audit recomputes both exactly.
  fp::AdmissionWord fast_committed_;
  fp::AdmissionWord fast_reserved_;
  std::uint64_t rr_seq_counter_ = 0;
  sim::Nanos quantum_start_ = 0;
  sim::Nanos lazy_wake_ = -1;  // lazy mode: scheduled latest-start wakeup

  Stats stats_;
};

/// Factory for Kernel::Options.
[[nodiscard]] nk::Kernel::SchedulerFactory make_scheduler_factory(
    LocalScheduler::Config cfg);

}  // namespace hrt::rt
