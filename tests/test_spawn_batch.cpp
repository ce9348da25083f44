// System::spawn_batch (docs/API.md "Batched spawn"): one placement pass,
// pool-backed parked thread creation, one admission analysis per target CPU,
// all-or-nothing rollback — plus the two seeded-fault regressions this PR
// fixes (reservation lost on rejected commit; migration rollback releasing
// the wrong CPU's hold).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "audit/replay.hpp"
#include "global/global_scheduler.hpp"
#include "rt/system.hpp"

namespace hrt {
namespace {

System::Options batch_options(std::uint32_t cpus, std::uint32_t laden = 0) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(cpus);
  o.smi_enabled = false;
  o.spec.smi.enabled = false;
  o.audit.enabled = true;  // accumulate mode; FORCE builds throw instead
  o.interrupt_laden_cpus = laden;
  return o;
}

/// Run `fn`, tolerating the AuditError a throwing-mode (HRT_FORCE_AUDIT)
/// auditor raises, and return how many `inv` violations were seen.
std::uint64_t run_counting(System& sys, audit::Invariant inv,
                           const std::function<void()>& fn) {
  try {
    fn();
  } catch (const audit::AuditError& e) {
    EXPECT_EQ(e.invariant(), inv) << e.what();
  }
  return sys.auditor().count(inv);
}

/// Inner for batch RT specs: the ReservedAdmitBehavior wrapper installed by
/// spawn_batch does the constraint commit, so the inner only computes.
std::unique_ptr<nk::Behavior> batch_worker() {
  return std::make_unique<nk::FnBehavior>([](nk::ThreadCtx&, std::uint64_t) {
    return nk::Action::compute(sim::millis(2));
  });
}

System::SpawnSpec spec_of(std::string name, rt::Constraints c) {
  System::SpawnSpec s;
  s.name = std::move(name);
  s.behavior = batch_worker();
  s.constraints = c;
  return s;
}

rt::Constraints periodic_u(double util) {
  return rt::Constraints::periodic(
      0, sim::millis(1),
      static_cast<sim::Nanos>(util * static_cast<double>(sim::millis(1))));
}

// ---------- basic semantics ----------

TEST(SpawnBatch, EmptyBatchSucceedsTrivially) {
  System sys(batch_options(2));
  sys.boot();
  System::BatchSpawnResult r = sys.spawn_batch({});
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.threads.empty());
  EXPECT_EQ(sys.kernel().threads_created(), 2u);  // idle threads only
}

TEST(SpawnBatch, AdmitsAndRunsMixedBurst) {
  System sys(batch_options(2));
  sys.boot();
  std::vector<System::SpawnSpec> specs;
  for (int i = 0; i < 6; ++i) {
    specs.push_back(spec_of("p" + std::to_string(i), periodic_u(0.15)));
  }
  specs.push_back(spec_of("ap", rt::Constraints::aperiodic()));
  specs.push_back(
      spec_of("sp", rt::Constraints::sporadic(0, sim::micros(100),
                                              sim::millis(10))));
  const std::size_t n = specs.size();

  System::BatchSpawnResult r = sys.spawn_batch(std::move(specs));
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.threads.size(), n);
  ASSERT_EQ(r.cpus.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(r.threads[i]->cpu, r.cpus[i]);
  }

  const std::uint64_t ledger_faults =
      run_counting(sys, audit::Invariant::kUtilization,
                   [&] { sys.run_for(sim::millis(20)); });
  EXPECT_EQ(ledger_faults, 0u);
  // The committed words hold the six periodic members; the sporadic one
  // finished its single arrival and released its density.
  double committed = 0.0;
  for (std::uint32_t c = 0; c < 2; ++c) {
    committed += sys.placement().ledger().committed(c);
  }
  EXPECT_NEAR(committed, 6 * 0.15, 1e-6);

  // Every periodic member committed its reservation and is arriving.
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(r.threads[i]->is_realtime()) << r.threads[i]->name;
    EXPECT_GT(r.threads[i]->rt.arrivals, 0u) << r.threads[i]->name;
    EXPECT_TRUE(r.threads[i]->last_admit_ok);
  }
  sys.sync_accounting();
  EXPECT_GT(r.threads[6]->total_cpu_ns, 0);  // aperiodic member ran too
}

TEST(SpawnBatch, AllOrNothingRollbackLeavesNoTrace) {
  System sys(batch_options(2));
  sys.boot();
  const std::size_t pool_before = sys.kernel().pool_size();
  const std::size_t created_before = sys.kernel().threads_created();

  // 4 x 0.5 cannot fit on two 0.79 CPUs no matter the packing.
  std::vector<System::SpawnSpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(spec_of("big" + std::to_string(i), periodic_u(0.5)));
  }
  System::BatchSpawnResult r = sys.spawn_batch(std::move(specs));
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.threads.empty());
  EXPECT_TRUE(r.cpus.empty());

  // No reservation, no ledger charge, no enqueue survived the rollback.
  const global::UtilizationLedger& ledger = sys.placement().ledger();
  EXPECT_DOUBLE_EQ(ledger.total_committed(), 0.0);
  for (std::uint32_t c = 0; c < 2; ++c) {
    EXPECT_EQ(ledger.committed_raw(c), 0u);
    EXPECT_TRUE(sys.sched(c).probe_admission(periodic_u(0.75)));
  }
  // Every TCB went back to the pool; nothing leaked.
  EXPECT_GE(sys.kernel().pool_size(), pool_before + 4);
  EXPECT_EQ(sys.kernel().threads_created(), created_before + 4);

  // The freed capacity is genuinely usable: a fitting batch now succeeds
  // and reuses the pooled TCBs instead of allocating fresh ones.
  std::vector<System::SpawnSpec> fit;
  fit.push_back(spec_of("fit0", periodic_u(0.7)));
  fit.push_back(spec_of("fit1", periodic_u(0.7)));
  System::BatchSpawnResult r2 = sys.spawn_batch(std::move(fit));
  ASSERT_TRUE(r2.ok);
  EXPECT_GE(sys.kernel().pool_reuses(), 2u);
  EXPECT_EQ(sys.kernel().threads_created(), created_before + 4);
  sys.run_for(sim::millis(10));
  EXPECT_GT(r2.threads[0]->rt.arrivals, 0u);
  EXPECT_GT(r2.threads[1]->rt.arrivals, 0u);
}

TEST(SpawnBatch, OneAnalysisAndOneKickPerCpu) {
  System sys(batch_options(4));
  sys.boot();
  std::vector<System::SpawnSpec> specs;
  for (int i = 0; i < 16; ++i) {
    specs.push_back(spec_of("w" + std::to_string(i), periodic_u(0.15)));
  }
  System::BatchSpawnResult r = sys.spawn_batch(std::move(specs));
  ASSERT_TRUE(r.ok);

  // ONE placement pass for the whole vector.
  EXPECT_EQ(sys.placement().stats().batch_placements, 1u);
  EXPECT_EQ(sys.placement().stats().batch_specs, 16u);

  // ONE reserve_batch per distinct target CPU, covering all 16 threads.
  std::uint64_t reserves = 0, reserved_threads = 0;
  std::set<std::uint32_t> distinct(r.cpus.begin(), r.cpus.end());
  for (std::uint32_t c = 0; c < 4; ++c) {
    reserves += sys.sched(c).stats().batch_reserves;
    reserved_threads += sys.sched(c).stats().batch_reserved_threads;
  }
  EXPECT_EQ(reserves, distinct.size());
  EXPECT_EQ(reserved_threads, 16u);

  sys.run_for(sim::millis(20));
  for (nk::Thread* t : r.threads) {
    EXPECT_TRUE(t->is_realtime()) << t->name;
    EXPECT_GT(t->rt.arrivals, 0u) << t->name;
  }
}

// ---------- replay-oracle validation of a batch-spawn burst ----------
//
// The trace a committed batch produces must satisfy the EDF replay oracle on
// every CPU the batch landed on: batched admission may amortize the
// analysis, but the dispatch order it authorizes is the same one the oracle
// re-derives offline.

TEST(SpawnBatch, BatchBurstSatisfiesReplayOracle) {
  System sys(batch_options(2));
  sys.machine().trace().enable();
  sys.boot();
  std::vector<System::SpawnSpec> specs;
  for (int i = 0; i < 6; ++i) {
    specs.push_back(spec_of("r" + std::to_string(i), periodic_u(0.2)));
  }
  System::BatchSpawnResult r = sys.spawn_batch(std::move(specs));
  ASSERT_TRUE(r.ok);
  sys.run_for(sim::millis(50));

  const audit::ReplayConfig cfg =
      audit::replay_config_for(sys.machine().spec());
  for (std::uint32_t cpu = 0; cpu < 2; ++cpu) {
    std::vector<audit::ReplayTask> tasks;
    std::vector<nk::Thread*> members;
    for (std::size_t i = 0; i < r.threads.size(); ++i) {
      if (r.cpus[i] != cpu) continue;
      members.push_back(r.threads[i]);
      tasks.push_back(
          {r.threads[i]->id, r.threads[i]->constraints, r.threads[i]->rt.gamma});
    }
    if (tasks.empty()) continue;
    audit::ReplayResult rr = audit::replay_edf(sys.machine().trace(), cpu,
                                               tasks, cfg, sys.engine().now());
    for (nk::Thread* t : members) {
      const std::uint64_t tol = std::max<std::uint64_t>(3, t->rt.arrivals / 50);
      audit::verify_stats(rr, t->id, t->rt.arrivals, t->rt.completions,
                          t->rt.misses, tol);
    }
    for (const auto& d : rr.divergences) {
      ADD_FAILURE() << "cpu " << cpu << " t=" << d.time << "ns: " << d.detail;
    }
    EXPECT_TRUE(rr.ok());
  }
}

// ---------- regression: rejected commit must keep the reservation ----------
//
// Two-phase admission holds utilization between reserve and commit.  The
// pre-fix change_constraints dropped the hold when the commit itself was
// rejected, silently losing the caller's reserved capacity.  The bug lives
// on behind Config::TestFaults::consume_reservation_on_reject.

TEST(SpawnBatch, RejectedCommitKeepsReservation) {
  System sys(batch_options(1));
  sys.boot();
  nk::Thread* t = sys.spawn("holder", batch_worker(), 0);
  ASSERT_TRUE(sys.sched(0).reserve_constraints(*t, periodic_u(0.3)));

  // A commit that exceeds capacity is rejected -- and must NOT eat the hold.
  EXPECT_FALSE(
      sys.sched(0).change_constraints(*t, periodic_u(0.9), sys.engine().now()));
  EXPECT_TRUE(sys.sched(0).has_reservation(*t));
  // The held 0.3 still guards its capacity against later arrivals...
  EXPECT_FALSE(sys.sched(0).probe_admission(periodic_u(0.6)));
  // ...and the holder can still consume it.
  EXPECT_TRUE(
      sys.sched(0).change_constraints(*t, periodic_u(0.3), sys.engine().now()));
  EXPECT_FALSE(sys.sched(0).has_reservation(*t));
}

TEST(SpawnBatch, SeededFaultConsumesReservationOnReject) {
  System::Options o = batch_options(1);
  o.sched.test_faults.consume_reservation_on_reject = true;
  System sys(std::move(o));
  sys.boot();
  nk::Thread* t = sys.spawn("holder", batch_worker(), 0);
  ASSERT_TRUE(sys.sched(0).reserve_constraints(*t, periodic_u(0.3)));

  EXPECT_FALSE(
      sys.sched(0).change_constraints(*t, periodic_u(0.9), sys.engine().now()));
  // The seeded bug: the rejected commit consumed the hold, so the capacity
  // the caller thought was guaranteed is now up for grabs.
  EXPECT_FALSE(sys.sched(0).has_reservation(*t));
  EXPECT_TRUE(sys.sched(0).probe_admission(periodic_u(0.6)));
}

// ---------- regression: migration rollback targets the right CPU ----------
//
// A failed job-boundary hand-off must release the reservation on the
// *target* CPU (where request_migration took it).  The pre-fix rollback
// released on the original CPU, leaking the target's hold forever; the bug
// lives on behind Config::TestFaults::migration_rollback_wrong_cpu, and the
// auditor's stale-reservation check (audit_utilization) detects the leak.

/// Drive `sys` into a failed hand-off: admit a periodic thread on cpu 0,
/// request migration to cpu 1 mid-job (reserving 0.3 there), then degrade
/// cpu 1's capacity via its missing-time estimator so the job-boundary
/// commit is rejected.  Returns the migrating thread.
nk::Thread* fail_handoff(System& sys) {
  nk::Thread* t = sys.spawn(
      "mig",
      std::make_unique<nk::FnBehavior>([](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) {
          return nk::Action::change_constraints(rt::Constraints::periodic(
              sim::millis(1), sim::millis(1), sim::micros(300)));
        }
        return nk::Action::compute(sim::millis(2));
      }),
      0);
  // Mid-job on cpu 0 (arrival at ~1.1ms after timer lateness, 300us budget
  // still draining) so the hand-off defers to the job boundary.
  sys.run_until(sim::millis(1) + sim::micros(200));
  EXPECT_TRUE(t->is_realtime());
  EXPECT_TRUE(t->rt.arrival_open);
  EXPECT_TRUE(sys.sched(0).request_migration(*t, 1));
  EXPECT_TRUE(sys.sched(1).has_reservation(*t));

  // Storm cpu 1's estimator host-side: ~0.9 stolen fraction over a dozen
  // closed windows pushes the EWMA far past the 0.49 that would still leave
  // room for the migrating 0.3 under degraded admission.
  auto& est = sys.sched(1).missing_time();
  const sim::Nanos w = sys.options().sched.estimator.window_ns;
  const sim::Nanos base = sys.engine().now();
  for (int k = 0; k < 12; ++k) {
    est.note_episode(sim::micros(1800), 0, base + k * w);
  }
  EXPECT_GT(est.ewma_fraction(), 0.49);

  // Run past the job boundary: the deferred hand-off fires and is rejected.
  // A throwing-mode auditor raises the hand-off's kMigration record here.
  run_counting(sys, audit::Invariant::kMigration,
               [&] { sys.run_for(sim::millis(2)); });
  EXPECT_EQ(sys.sched(0).stats().migration_failures, 1u);
  return t;
}

System::Options handoff_options() {
  System::Options o = batch_options(2);
  o.sched.estimator.enabled = true;
  o.sched.degraded_admission = true;
  return o;
}

TEST(SpawnBatch, FailedHandoffReleasesTargetReservation) {
  System sys(handoff_options());
  sys.boot();
  nk::Thread* t = fail_handoff(sys);

  // Fixed behavior: the target's hold is gone, the thread fell back home
  // still real-time, and cpu 1's capacity is genuinely free again.
  EXPECT_FALSE(sys.sched(1).has_reservation(*t));
  EXPECT_EQ(t->cpu, 0u);
  EXPECT_TRUE(t->is_realtime());
  EXPECT_EQ(sys.placement().ledger().committed_raw(1), 0u);
  // Only the hand-off failure record itself; no stale-reservation audits.
  const std::uint64_t mig = run_counting(
      sys, audit::Invariant::kMigration, [&] { sys.run_for(sim::millis(2)); });
  EXPECT_EQ(mig, 1u);
}

TEST(SpawnBatch, SeededFaultLeaksTargetReservationOnRollback) {
  System::Options o = handoff_options();
  o.sched.test_faults.migration_rollback_wrong_cpu = true;
  System sys(std::move(o));
  sys.boot();
  nk::Thread* t = fail_handoff(sys);

  // The seeded bug: rollback released on cpu 0 (which held nothing), so the
  // target's 0.3 hold leaks and the auditor's stale-reservation check
  // flags it on every cpu-1 audit pass thereafter.
  EXPECT_TRUE(sys.sched(1).has_reservation(*t));
  const std::uint64_t mig = run_counting(
      sys, audit::Invariant::kMigration, [&] { sys.run_for(sim::millis(2)); });
  EXPECT_GT(mig, 1u);
}

}  // namespace
}  // namespace hrt
