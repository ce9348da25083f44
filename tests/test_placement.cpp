// Global placement subsystem (src/global/, docs/GLOBAL.md): policy packing
// against real per-CPU admission, semi-partitioned overflow, the utilization
// ledger and its audit invariant, job-boundary RT migration, rebalancing,
// and the auto-placement spawn API.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>

#include "audit/replay.hpp"
#include "global/global_scheduler.hpp"
#include "group/group_admission.hpp"
#include "rt/system.hpp"
#include "rt/taskset_gen.hpp"

namespace hrt {
namespace {

System::Options placed(std::uint32_t cpus = 4, std::uint32_t laden = 1) {
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

/// Self-admitting RT worker for pinned spawns (the spawn_auto wrapper does
/// the admission itself, so auto-spawned inners just compute).
std::unique_ptr<nk::FnBehavior> rt_worker(rt::Constraints c) {
  return std::make_unique<nk::FnBehavior>(
      [c](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) return nk::Action::change_constraints(c);
        return nk::Action::compute(sim::millis(2));
      });
}

/// Inner behavior that computes `jobs` chunks then exits.
std::unique_ptr<nk::FnBehavior> finite_worker(std::uint64_t jobs,
                                              sim::Nanos chunk) {
  return std::make_unique<nk::FnBehavior>(
      [jobs, chunk](nk::ThreadCtx&, std::uint64_t step) {
        if (step < jobs) return nk::Action::compute(chunk);
        return nk::Action::exit();
      });
}

std::unique_ptr<nk::Behavior> busy(sim::Nanos chunk = sim::micros(100)) {
  return std::make_unique<nk::BusyLoopBehavior>(chunk);
}

bool admitted_rt(const nk::Thread* t) {
  return t->is_realtime() && t->rt.arrivals > 0;
}

// ---------- satellite: spawn rejects out-of-range CPUs ----------

TEST(SystemSpawn, RejectsOutOfRangeCpu) {
  System sys(placed(2));
  sys.boot();
  EXPECT_THROW(sys.spawn("oob", busy(), 2), std::out_of_range);
  EXPECT_THROW(sys.spawn("oob", busy(), 99), std::out_of_range);
  nk::Thread* ok = sys.spawn("ok", busy(), 1);
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->cpu, 1u);
}

// ---------- utilization ledger ----------

TEST(Ledger, TracksAdmitAndExit) {
  System sys(placed(2, 0));
  sys.boot();
  auto& ledger = sys.placement().ledger();
  EXPECT_DOUBLE_EQ(ledger.total_committed(), 0.0);

  const auto c =
      rt::Constraints::periodic(sim::millis(1), sim::millis(1), sim::micros(300));
  nk::Thread* t =
      sys.spawn_auto("worker", finite_worker(6, sim::micros(250)), c);
  sys.run_for(sim::millis(4));
  EXPECT_TRUE(admitted_rt(t));
  EXPECT_NEAR(ledger.committed(t->cpu), 0.3, 1e-9);
  EXPECT_EQ(ledger.committed_raw(t->cpu), rt::fp::from_double_ceil(0.3));

  sys.run_for(sim::millis(30));  // worker exits (and is reaped), util returns
  EXPECT_TRUE(t->state == nk::Thread::State::kExited ||
              t->state == nk::Thread::State::kPooled);
  EXPECT_NEAR(ledger.total_committed(), 0.0, 1e-9);
  for (std::uint32_t c = 0; c < 2; ++c) EXPECT_EQ(ledger.committed_raw(c), 0u);
  EXPECT_EQ(sys.auditor().count(audit::Invariant::kUtilization), 0u);
  EXPECT_EQ(sys.auditor().total_violations(), 0u);
}

TEST(Ledger, AuditCatchesDroppedRelease) {
  System::Options o = placed(2, 0);
  o.sched.test_faults.drop_committed_release = true;
  System sys(o);
  sys.boot();
  const auto c =
      rt::Constraints::periodic(sim::millis(1), sim::millis(1), sim::micros(300));
  const std::uint64_t n =
      run_counting(sys, audit::Invariant::kUtilization, [&] {
        sys.spawn_auto("leaky", finite_worker(4, sim::micros(250)), c);
        sys.run_for(sim::millis(30));
      });
  EXPECT_GE(n, 1u);
}

// ---------- policy packing vs real per-CPU admission ----------

TEST(Placement, PoliciesPassPerCpuAdmission) {
  constexpr std::uint32_t kCpus = 4;
  constexpr double kCapacity = 0.79;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    sim::Rng rng(seed);
    rt::TaskSetParams params;
    params.n = 10;
    params.total_utilization = 2.4;
    params.min_slice = sim::micros(10);
    const auto tasks = rt::generate_taskset(params, rng);
    for (global::Policy p :
         {global::Policy::kFirstFit, global::Policy::kBestFit,
          global::Policy::kWorstFit, global::Policy::kTopology}) {
      const auto r = global::pack_decreasing(tasks, kCpus, kCapacity, p,
                                             /*interrupt_laden_cpus=*/1);
      std::vector<std::vector<rt::PeriodicTask>> sets(kCpus);
      double placed_util = 0.0;
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (r.assignment[i] == global::kInvalidCpu) continue;
        ASSERT_LT(r.assignment[i], kCpus);
        sets[r.assignment[i]].push_back(tasks[i]);
        placed_util += static_cast<double>(tasks[i].slice) /
                       static_cast<double>(tasks[i].period);
      }
      for (std::uint32_t cpu = 0; cpu < kCpus; ++cpu) {
        EXPECT_TRUE(rt::edf_admissible(sets[cpu], kCapacity))
            << global::policy_name(p) << " overloaded cpu " << cpu
            << " (seed " << seed << ")";
        EXPECT_NEAR(r.per_cpu[cpu], rt::total_utilization(sets[cpu]), 1e-9);
      }
      EXPECT_NEAR(r.admitted_util, placed_util, 1e-9);
    }
  }
}

TEST(Placement, SemiPartitionedBeatsBestPure) {
  constexpr std::uint32_t kCpus = 4;
  constexpr double kCapacity = 0.79;
  bool strictly_better_somewhere = false;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    sim::Rng rng(seed);
    rt::TaskSetParams params;
    params.n = 5;
    params.total_utilization = 3.0;  // heavy tasks: some exceed one CPU
    params.min_slice = sim::micros(10);
    const auto tasks = rt::generate_taskset(params, rng);
    const auto semi = global::pack_semi_partitioned(
        tasks, kCpus, kCapacity, sim::micros(10), /*max_chunks=*/4);
    double best_pure = 0.0;
    for (global::Policy p :
         {global::Policy::kFirstFit, global::Policy::kBestFit,
          global::Policy::kWorstFit}) {
      const auto r = global::pack_decreasing(tasks, kCpus, kCapacity, p);
      best_pure = std::max(best_pure, r.admitted_util);
    }
    EXPECT_GE(semi.admitted_util, best_pure - 1e-9) << "seed " << seed;
    if (semi.admitted_util > best_pure + 1e-9) strictly_better_somewhere = true;
    // Split chunks never exceed any CPU's capacity either.
    for (std::uint32_t cpu = 0; cpu < kCpus; ++cpu) {
      EXPECT_LE(semi.per_cpu[cpu], kCapacity + 1e-9);
    }
  }
  EXPECT_TRUE(strictly_better_somewhere)
      << "splitting never admitted more than pure partitioning";
}

TEST(Placement, SplitPlanPipelineMath) {
  rt::PeriodicTask task;
  task.period = sim::millis(1);
  task.slice = sim::micros(900);  // u = 0.9: fits no single CPU below
  task.phase = sim::micros(500);
  const std::vector<double> headroom = {0.5, 0.3, 0.5};
  const auto plan =
      global::split_task(task, headroom, sim::micros(10), /*max_chunks=*/8);
  ASSERT_TRUE(plan.ok);
  ASSERT_GE(plan.chunks.size(), 2u);
  sim::Nanos total = 0;
  for (std::size_t i = 0; i < plan.chunks.size(); ++i) {
    const auto& c = plan.chunks[i].constraints;
    ASSERT_EQ(c.cls, rt::ConstraintClass::kPeriodic);
    EXPECT_EQ(c.period, task.period);
    // Pipeline phasing: chunk i's window is [phase + i*tau, phase+(i+1)*tau),
    // so chunk i's deadline is exactly chunk i+1's release — the chunks of
    // one logical job can never run concurrently.
    EXPECT_EQ(c.phase, task.phase + static_cast<sim::Nanos>(i) * task.period);
    ASSERT_LT(plan.chunks[i].cpu, headroom.size());
    EXPECT_LE(c.utilization(), headroom[plan.chunks[i].cpu] + 1e-9);
    EXPECT_GE(c.slice, sim::micros(10));
    total += c.slice;
  }
  EXPECT_EQ(total, task.slice);  // the whole job's work is preserved
}

// A split plan is a long-lived commitment, so chunk sizing must respect what
// each CPU can actually deliver: the ledger headroom minus the CPU's worst
// recent missing-time window (docs/RESILIENCE.md follow-up).
TEST(Placement, SplitPlanDegradesByMissingTime) {
  auto slice_on = [](const global::SplitPlan& plan, std::uint32_t cpu) {
    sim::Nanos s = 0;
    for (const auto& c : plan.chunks) {
      if (c.cpu == cpu) s += c.constraints.slice;
    }
    return s;
  };
  auto degrade_cpu0 = [](System& sys) {
    // Seed the estimator directly (no SMIs in this test): one 800 us episode
    // in a 2 ms window is a 0.4 worst-window fraction once the window closes.
    auto& est = sys.sched(0).missing_time();
    const sim::Nanos t0 = sys.engine().now();
    est.note_episode(sim::micros(800), 0, t0);
    est.advance(t0 + est.config().window_ns + 1);
    ASSERT_NEAR(est.windowed_max_fraction(), 0.4, 0.02);
  };
  const auto wide =
      rt::Constraints::periodic(sim::millis(1), sim::millis(1), sim::micros(900));

  System::Options o = placed(2, 0);
  o.sched.estimator.enabled = true;  // estimator only; no storm controller
  System sys(std::move(o));
  sys.boot();
  const sim::Nanos min_slice = sys.options().sched.min_slice;

  const auto clean = sys.placement().plan_split(wide, min_slice);
  ASSERT_TRUE(clean.ok);
  // Equal headroom: the stable sort fills cpu0 first (0.79), tail on cpu1.
  EXPECT_GT(slice_on(clean, 0), slice_on(clean, 1));

  degrade_cpu0(sys);
  const auto degraded = sys.placement().plan_split(wide, min_slice);
  ASSERT_TRUE(degraded.ok);
  // The degraded CPU's chunk shrank; the work moved to the healthy CPU.
  EXPECT_LT(slice_on(degraded, 0), slice_on(clean, 0));
  EXPECT_GT(slice_on(degraded, 1), slice_on(clean, 1));
  // Chunks respect the *degraded* headroom, not just the ledger's.
  EXPECT_LE(static_cast<double>(slice_on(degraded, 0)) /
                static_cast<double>(wide.period),
            sys.placement().ledger().headroom(0) - 0.4 + 1e-9);
  sim::Nanos total = 0;
  for (const auto& c : degraded.chunks) total += c.constraints.slice;
  EXPECT_EQ(total, wide.slice);  // work conserved either way

  // The config gate restores the old (ledger-only) sizing.
  System::Options o2 = placed(2, 0);
  o2.sched.estimator.enabled = true;
  o2.placement_config.split_degrade_missing_time = false;
  System gated(std::move(o2));
  gated.boot();
  degrade_cpu0(gated);
  const auto ungated = gated.placement().plan_split(wide, min_slice);
  ASSERT_TRUE(ungated.ok);
  EXPECT_EQ(slice_on(ungated, 0), slice_on(clean, 0));
  EXPECT_EQ(slice_on(ungated, 1), slice_on(clean, 1));
}

// ---------- job-boundary RT migration ----------

TEST(Migration, JobBoundaryHandoff) {
  System sys(placed(4));
  sys.boot();
  const auto c =
      rt::Constraints::periodic(sim::millis(1), sim::millis(1), sim::micros(300));
  nk::Thread* t = sys.spawn("mover", rt_worker(c), 1);
  sys.run_for(sim::millis(10));
  ASSERT_TRUE(admitted_rt(t));
  ASSERT_EQ(t->cpu, 1u);
  const std::uint64_t arrivals_before = t->rt.arrivals;

  ASSERT_TRUE(sys.sched(1).request_migration(*t, 2));
  sys.run_for(sim::millis(20));

  EXPECT_EQ(t->cpu, 2u);
  EXPECT_EQ(t->migrate_to, nk::kNoMigrateTarget);
  EXPECT_NEAR(sys.sched(1).admitted_utilization(), 0.0, 1e-9);
  EXPECT_NEAR(sys.sched(2).admitted_utilization(), 0.3, 1e-9);
  EXPECT_NEAR(sys.placement().ledger().committed(1), 0.0, 1e-9);
  EXPECT_NEAR(sys.placement().ledger().committed(2), 0.3, 1e-9);
  EXPECT_EQ(sys.sched(1).stats().migrations_requested, 1u);
  EXPECT_EQ(sys.sched(1).stats().migrations_out, 1u);
  EXPECT_EQ(sys.sched(2).stats().migrations_in, 1u);
  EXPECT_EQ(sys.sched(1).stats().migration_failures, 0u);
  // Lifetime stats survived the move and the thread kept running.
  EXPECT_GT(t->rt.arrivals, arrivals_before);
  EXPECT_EQ(t->rt.misses, 0u);
  EXPECT_EQ(sys.auditor().total_violations(), 0u);
}

TEST(Migration, AuditCatchesStaleCpu) {
  System::Options o = placed(4);
  o.sched.test_faults.stale_migrate_cpu = true;
  System sys(o);
  sys.boot();
  const auto c =
      rt::Constraints::periodic(sim::millis(1), sim::millis(1), sim::micros(300));
  const std::uint64_t n = run_counting(sys, audit::Invariant::kMigration, [&] {
    nk::Thread* t = sys.spawn("stale", rt_worker(c), 1);
    sys.run_for(sim::millis(10));
    ASSERT_TRUE(sys.sched(1).request_migration(*t, 2));
    sys.run_for(sim::millis(3));
  });
  EXPECT_GE(n, 1u);
}

// ---------- rebalancer ----------

TEST(Rebalance, MakeRoomAdmitsAfterMigration) {
  System sys(placed(2, 0));
  sys.boot();
  auto util = [](sim::Nanos slice) {
    return rt::Constraints::periodic(sim::millis(1), sim::millis(1), slice);
  };
  nk::Thread* a = sys.spawn_auto("a", busy(), util(sim::micros(300)));
  sys.run_for(sim::millis(3));
  nk::Thread* b = sys.spawn_auto("b", busy(), util(sim::micros(300)));
  sys.run_for(sim::millis(3));
  ASSERT_TRUE(admitted_rt(a));
  ASSERT_TRUE(admitted_rt(b));
  ASSERT_NE(a->cpu, b->cpu);  // worst-fit spread them out

  // 0.6 fits neither CPU (capacity 0.79, each holds 0.3) — the auto-admit
  // retry path must migrate one of a/b aside to make room.
  nk::Thread* big = sys.spawn_auto("big", busy(), util(sim::micros(600)));
  sys.run_for(sim::millis(50));

  EXPECT_TRUE(admitted_rt(big));
  EXPECT_GE(sys.placement().rebalancer().stats().make_room_migrations, 1u);
  EXPECT_EQ(a->rt.misses, 0u);
  EXPECT_EQ(b->rt.misses, 0u);
  EXPECT_EQ(big->rt.misses, 0u);
  EXPECT_EQ(sys.auditor().total_violations(), 0u);
}

TEST(Rebalance, ExitTriggersRebalance) {
  System sys(placed(2, 0));
  sys.boot();
  const auto c =
      rt::Constraints::periodic(sim::millis(1), sim::millis(1), sim::micros(300));
  // Four 0.3 threads spread 2+2; the two transient ones land on the same
  // CPU (worst-fit alternates), and their exits leave a 0.6-vs-0 imbalance
  // the exit-rebalance pass must level with one migration.
  nk::Thread* t1 = sys.spawn_auto("short1", finite_worker(8, sim::micros(250)), c);
  sys.run_for(sim::millis(2));
  nk::Thread* p1 = sys.spawn_auto("long1", busy(), c);
  sys.run_for(sim::millis(2));
  nk::Thread* t2 = sys.spawn_auto("short2", finite_worker(8, sim::micros(250)), c);
  sys.run_for(sim::millis(2));
  nk::Thread* p2 = sys.spawn_auto("long2", busy(), c);
  sys.run_for(sim::millis(2));
  ASSERT_TRUE(admitted_rt(t1) && admitted_rt(p1) && admitted_rt(t2) &&
              admitted_rt(p2));
  ASSERT_EQ(t1->cpu, t2->cpu);
  ASSERT_EQ(p1->cpu, p2->cpu);
  ASSERT_NE(t1->cpu, p1->cpu);

  sys.run_for(sim::millis(40));  // transients exit; rebalancer levels

  EXPECT_TRUE(t1->state == nk::Thread::State::kExited ||
              t1->state == nk::Thread::State::kPooled);
  EXPECT_TRUE(t2->state == nk::Thread::State::kExited ||
              t2->state == nk::Thread::State::kPooled);
  EXPECT_GE(sys.placement().rebalancer().stats().migrations_proposed, 1u);
  const auto& ledger = sys.placement().ledger();
  EXPECT_LE(std::abs(ledger.committed(0) - ledger.committed(1)), 0.25 + 1e-9);
  EXPECT_EQ(p1->rt.misses, 0u);
  EXPECT_EQ(p2->rt.misses, 0u);
  EXPECT_EQ(sys.auditor().total_violations(), 0u);
}

// ---------- topology-aware + group placement ----------

TEST(Placement, TopologySteersRtOffLadenCpu) {
  System sys(placed(4, 2));
  sys.boot();
  const auto c =
      rt::Constraints::periodic(sim::millis(1), sim::millis(1), sim::micros(200));
  std::vector<nk::Thread*> rts;
  for (int i = 0; i < 4; ++i) {
    rts.push_back(sys.spawn_auto("rt" + std::to_string(i), busy(), c));
    sys.run_for(sim::millis(3));
  }
  for (nk::Thread* t : rts) {
    EXPECT_TRUE(admitted_rt(t));
    EXPECT_GE(t->cpu, 2u) << "RT thread placed on interrupt-laden cpu";
  }
  nk::Thread* ap =
      sys.spawn_auto("aper", busy(), rt::Constraints::aperiodic());
  EXPECT_LT(ap->cpu, 2u) << "aperiodic thread wasted interrupt-free cpu";
  EXPECT_EQ(sys.auditor().total_violations(), 0u);
}

TEST(Group, AutoPlacementCoLocates) {
  System sys(placed(4, 1));
  sys.boot();
  const auto c = rt::Constraints::periodic(sim::millis(2), sim::millis(1),
                                           sim::micros(150));
  const auto members = sys.spawn_group_auto(
      "team", 3, c, [](std::uint32_t) { return busy(); });
  ASSERT_EQ(members.size(), 3u);
  std::set<std::uint32_t> cpus;
  for (nk::Thread* t : members) cpus.insert(t->cpu);
  EXPECT_EQ(cpus.size(), 3u);  // distinct CPUs: members run concurrently
  for (std::uint32_t cpu : cpus) EXPECT_GE(cpu, 1u);  // interrupt-free

  sys.run_for(sim::millis(40));
  for (nk::Thread* t : members) {
    auto* b = dynamic_cast<grp::GroupAdmitThenBehavior*>(t->behavior.get());
    ASSERT_NE(b, nullptr);
    EXPECT_TRUE(b->protocol().succeeded());
    EXPECT_TRUE(admitted_rt(t));
    EXPECT_EQ(t->rt.misses, 0u);
  }
  EXPECT_EQ(sys.auditor().total_violations(), 0u);
}

// ---------- overflow spawn + churn ----------

TEST(Overflow, SpawnSplitAdmitsOversizedTask) {
  System sys(placed(2, 0));
  sys.boot();
  // u = 0.9 fits no single CPU (capacity 0.79); the split spawns pipeline
  // chunks whose phases differ by exactly one period.
  const auto c =
      rt::Constraints::periodic(sim::millis(1), sim::millis(1), sim::micros(900));
  const auto chunks = sys.spawn_split("wide", c);
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_NE(chunks[0]->cpu, chunks[1]->cpu);

  sys.run_for(sim::millis(40));
  sim::Nanos total_slice = 0;
  for (nk::Thread* t : chunks) {
    EXPECT_TRUE(admitted_rt(t));
    EXPECT_EQ(t->rt.misses, 0u);
    total_slice += t->constraints.slice;
  }
  EXPECT_EQ(total_slice, c.slice);
  // Aligned release grids (docs/GLOBAL.md): the chunks' absolute first
  // arrivals (gamma + committed phase) sit exactly one period apart on one
  // shared grid, and the whole-period pipeline offsets are preserved.
  const sim::Nanos a0 = chunks[0]->rt.gamma + chunks[0]->constraints.phase;
  const sim::Nanos a1 = chunks[1]->rt.gamma + chunks[1]->constraints.phase;
  EXPECT_EQ(((a1 - a0) % c.period + c.period) % c.period, 0);
  // Whole-period phase parts: the spec's own phase offset plus the chunk
  // index (chunk i trails chunk 0 by i periods in the pipeline).
  EXPECT_EQ(chunks[0]->constraints.phase / c.period, c.phase / c.period);
  EXPECT_EQ(chunks[1]->constraints.phase / c.period, c.phase / c.period + 1);
  EXPECT_EQ(sys.auditor().total_violations(), 0u);
}

// Regression for the docs/GLOBAL.md caveat this PR closes: chunks admitting
// at skewed gammas used to carry grids offset by the skew.  With aligned
// release (the default) the commit-time rewrite lands every chunk on the
// shared anchor grid exactly; with it disabled the historical misalignment
// is reproduced, proving the fix is load-bearing.
TEST(Overflow, SplitChunksShareExactReleaseGridUnderSkew) {
  for (const bool aligned : {true, false}) {
    System::Options o = placed(2, 0);
    o.placement_config.split_aligned_release = aligned;
    System sys(std::move(o));
    sys.machine().trace().enable();
    sys.boot();
    // One-shot aperiodic hogs of different lengths delay each chunk's first
    // run — and therefore its admission gamma — by different amounts.
    sys.spawn("hog0", finite_worker(1, sim::micros(70)), 0, 5);
    sys.spawn("hog1", finite_worker(1, sim::micros(130)), 1, 5);
    const auto c = rt::Constraints::periodic(sim::millis(1), sim::millis(1),
                                             sim::micros(900));
    const auto chunks = sys.spawn_split("wide", c);
    ASSERT_EQ(chunks.size(), 2u);
    sys.run_for(sim::millis(40));
    for (nk::Thread* t : chunks) ASSERT_TRUE(admitted_rt(t));
    const sim::Nanos skew = chunks[1]->rt.gamma - chunks[0]->rt.gamma;
    ASSERT_NE(skew % c.period, 0) << "scenario must produce admission skew";

    const sim::Nanos a0 = chunks[0]->rt.gamma + chunks[0]->constraints.phase;
    const sim::Nanos a1 = chunks[1]->rt.gamma + chunks[1]->constraints.phase;
    const sim::Nanos grid_offset = ((a1 - a0) % c.period + c.period) % c.period;
    if (!aligned) {
      EXPECT_NE(grid_offset, 0) << "pre-fix behavior: grids offset by skew";
      continue;
    }
    EXPECT_EQ(grid_offset, 0) << "chunks must share one release grid";
    EXPECT_EQ(chunks[1]->constraints.phase / c.period -
                  chunks[0]->constraints.phase / c.period,
              1)
        << "pipeline offset preserved";
    // The previously-misaligned split now passes the replay oracle with
    // zero misses on both CPUs.
    const audit::ReplayConfig cfg =
        audit::replay_config_for(sys.machine().spec());
    for (nk::Thread* t : chunks) {
      EXPECT_EQ(t->rt.misses, 0u);
      const std::vector<audit::ReplayTask> tasks = {
          {t->id, t->constraints, t->rt.gamma}};
      audit::ReplayResult r = audit::replay_edf(
          sys.machine().trace(), t->cpu, tasks, cfg, sys.engine().now());
      for (const auto& d : r.divergences) {
        ADD_FAILURE() << "cpu " << t->cpu << " t=" << d.time << "ns: "
                      << d.detail;
      }
      audit::verify_stats(r, t->id, t->rt.arrivals, t->rt.completions,
                          t->rt.misses, 2);
      EXPECT_TRUE(r.ok());
    }
    EXPECT_EQ(sys.auditor().total_violations(), 0u);
  }
}

TEST(Placement, ChurnKeepsLedgerInvariants) {
  System sys(placed(4, 1));
  sys.boot();
  auto periodic = [](sim::Nanos slice) {
    return rt::Constraints::periodic(sim::millis(1), sim::millis(1), slice);
  };
  // The placement view must read what the live admitted threads demand.
  const auto& ledger = sys.placement().ledger();
  auto expect_view_matches_threads = [&] {
    double demand[4] = {};
    for (const nk::Thread* t : sys.kernel().live_threads()) {
      if (t->state != nk::Thread::State::kExited && t->is_realtime()) {
        demand[t->cpu] += t->constraints.utilization();
      }
    }
    for (std::uint32_t cpu = 0; cpu < 4; ++cpu) {
      EXPECT_NEAR(ledger.committed(cpu), demand[cpu], 1e-9) << "cpu " << cpu;
    }
  };
  // Waves of transient RT threads plus one sporadic: admissions, exits, and
  // rebalance migrations all move the committed words; every scheduler pass
  // recomputes them from the live thread set (kUtilization).
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 4; ++i) {
      sys.spawn_auto("w" + std::to_string(wave) + "." + std::to_string(i),
                     finite_worker(12, sim::micros(120)),
                     periodic(sim::micros(150)));
      sys.run_for(sim::millis(2));
    }
    sys.spawn_auto("s" + std::to_string(wave),
                   finite_worker(3, sim::micros(80)),
                   rt::Constraints::sporadic(sim::micros(500), sim::micros(200),
                                             sim::millis(2)));
    sys.run_for(sim::millis(25));
    expect_view_matches_threads();
  }
  sys.run_for(sim::millis(50));

  EXPECT_EQ(sys.auditor().total_violations(), 0u);
  expect_view_matches_threads();
  std::uint64_t admitted = 0;
  for (std::uint32_t cpu = 0; cpu < 4; ++cpu) {
    admitted += sys.sched(cpu).stats().admissions_ok;
  }
  EXPECT_GE(admitted, 12u);
}

}  // namespace
}  // namespace hrt
