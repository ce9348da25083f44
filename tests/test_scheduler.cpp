// LocalScheduler policy tests: admission control (all classes and
// policies), budget enforcement precision, deadline/miss accounting,
// aperiodic priorities and round-robin, sporadic lifecycle, reservations,
// lightweight tasks, work stealing, and the lazy-EDF variant.
#include <gtest/gtest.h>

#include "rt/system.hpp"

namespace hrt {
namespace {

// Every System allocates one LocalScheduler per CPU, and glibc serves
// chunks of 1024 bytes and up from its sorted large bins, which made a
// telemetry-off Phi boot measurably slower (rt/local_scheduler.hpp).
static_assert(sizeof(rt::LocalScheduler) <= 1000,
              "LocalScheduler must stay under glibc's large-bin threshold");

System::Options quiet(std::uint32_t cpus = 4) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(cpus);
  o.smi_enabled = false;
  return o;
}

/// Spawn a thread that requests constraints `c` and then computes forever.
nk::Thread* spawn_rt(System& sys, std::uint32_t cpu, rt::Constraints c,
                     sim::Nanos chunk = sim::micros(20)) {
  auto b = std::make_unique<nk::FnBehavior>(
      [c, chunk](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) return nk::Action::change_constraints(c);
        return nk::Action::compute(chunk);
      });
  return sys.spawn("rt", std::move(b), cpu, /*priority=*/10);
}

// ---------- Admission ----------

TEST(Admission, UtilizationLimitRespected) {
  System sys(quiet());
  sys.boot();
  // available = 0.99 - 0.10 - 0.10 = 0.79
  nk::Thread* a = spawn_rt(sys, 1,
                           rt::Constraints::periodic(sim::millis(1),
                                                     sim::micros(100),
                                                     sim::micros(50)));
  sys.run_for(sim::millis(2));
  EXPECT_TRUE(a->last_admit_ok);
  nk::Thread* b = spawn_rt(sys, 1,
                           rt::Constraints::periodic(sim::millis(1),
                                                     sim::micros(100),
                                                     sim::micros(30)));
  sys.run_for(sim::millis(2));
  EXPECT_FALSE(b->last_admit_ok);  // 0.5 + 0.3 > 0.79
  EXPECT_NEAR(sys.sched(1).admitted_utilization(), 0.5, 1e-9);
}

TEST(Admission, PerCpuIndependence) {
  System sys(quiet());
  sys.boot();
  nk::Thread* a = spawn_rt(sys, 1,
                           rt::Constraints::periodic(sim::millis(1),
                                                     sim::micros(100),
                                                     sim::micros(70)));
  nk::Thread* b = spawn_rt(sys, 2,
                           rt::Constraints::periodic(sim::millis(1),
                                                     sim::micros(100),
                                                     sim::micros(70)));
  sys.run_for(sim::millis(2));
  EXPECT_TRUE(a->last_admit_ok);
  EXPECT_TRUE(b->last_admit_ok);  // different CPU: independent budget
}

TEST(Admission, ExitReleasesUtilization) {
  System sys(quiet());
  sys.boot();
  auto b = std::make_unique<nk::FnBehavior>(
      [](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) {
          return nk::Action::change_constraints(rt::Constraints::periodic(
              sim::micros(100), sim::micros(100), sim::micros(70)));
        }
        if (step < 4) return nk::Action::compute(sim::micros(10));
        return nk::Action::exit();
      });
  sys.spawn("short", std::move(b), 1, 10);
  sys.run_for(sim::millis(5));
  EXPECT_NEAR(sys.sched(1).admitted_utilization(), 0.0, 1e-9);
  nk::Thread* n = spawn_rt(sys, 1,
                           rt::Constraints::periodic(sim::millis(1),
                                                     sim::micros(100),
                                                     sim::micros(70)));
  sys.run_for(sim::millis(2));
  EXPECT_TRUE(n->last_admit_ok);
}

TEST(Admission, GranularityBoundsEnforced) {
  System sys(quiet());
  sys.boot();
  // min period / slice: 1 us by default.
  nk::Thread* t = spawn_rt(sys, 1,
                           rt::Constraints::periodic(sim::millis(1), 500,
                                                     200));
  sys.run_for(sim::millis(2));
  EXPECT_FALSE(t->last_admit_ok);
}

TEST(Admission, MalformedConstraintsRejected) {
  System sys(quiet());
  sys.boot();
  nk::Thread* t = spawn_rt(sys, 1,
                           rt::Constraints::periodic(sim::millis(1),
                                                     sim::micros(100),
                                                     sim::micros(200)));
  sys.run_for(sim::millis(2));
  EXPECT_FALSE(t->last_admit_ok);  // slice > period
}

TEST(Admission, RmPolicyMoreConservativeThanEdf) {
  System::Options o = quiet();
  o.sched.policy = rt::AdmissionPolicy::kRmLl;
  System sys(std::move(o));
  sys.boot();
  // Two tasks at combined U = 0.70 < 0.79 (EDF ok) but > 0.828 * 0.79 =
  // 0.654 (LL bound on the available fraction).
  nk::Thread* a = spawn_rt(sys, 1,
                           rt::Constraints::periodic(sim::millis(1),
                                                     sim::micros(100),
                                                     sim::micros(35)));
  sys.run_for(sim::millis(2));
  nk::Thread* b = spawn_rt(sys, 1,
                           rt::Constraints::periodic(sim::millis(1),
                                                     sim::micros(130),
                                                     sim::micros(45)));
  sys.run_for(sim::millis(2));
  EXPECT_TRUE(a->last_admit_ok);
  EXPECT_FALSE(b->last_admit_ok);
}

TEST(Admission, SimulationPolicyAdmitsFeasibleSets) {
  System::Options o = quiet();
  o.sched.policy = rt::AdmissionPolicy::kSimulation;
  System sys(std::move(o));
  sys.boot();
  nk::Thread* a = spawn_rt(sys, 1,
                           rt::Constraints::periodic(sim::millis(1),
                                                     sim::micros(200),
                                                     sim::micros(80)));
  sys.run_for(sim::millis(2));
  EXPECT_TRUE(a->last_admit_ok);
  nk::Thread* t = spawn_rt(sys, 1, rt::Constraints::periodic(
                                       sim::millis(1), sim::micros(400),
                                       sim::micros(380)));
  sys.run_for(sim::millis(2));
  EXPECT_FALSE(t->last_admit_ok);  // would overload with overheads
}

TEST(Admission, DisabledAdmissionAcceptsAnything) {
  System::Options o = quiet();
  o.sched.admission_enabled = false;
  System sys(std::move(o));
  sys.boot();
  nk::Thread* t = spawn_rt(sys, 1,
                           rt::Constraints::periodic(sim::millis(1),
                                                     sim::micros(10),
                                                     sim::micros(9)));
  sys.run_for(sim::millis(2));
  EXPECT_TRUE(t->last_admit_ok);
}

// ---------- Periodic execution ----------

TEST(Periodic, ArrivalCadenceMatchesPeriod) {
  System sys(quiet());
  sys.boot();
  nk::Thread* t = spawn_rt(sys, 1,
                           rt::Constraints::periodic(sim::millis(1),
                                                     sim::micros(200),
                                                     sim::micros(50)));
  sys.run_for(sim::millis(21));
  // ~(21 - 1) ms / 200 us = ~100 arrivals.
  EXPECT_GE(t->rt.arrivals, 98u);
  EXPECT_LE(t->rt.arrivals, 102u);
  EXPECT_EQ(t->rt.misses, 0u);
}

TEST(Periodic, PhaseDelaysFirstArrival) {
  System sys(quiet());
  sys.boot();
  nk::Thread* t = spawn_rt(sys, 1,
                           rt::Constraints::periodic(sim::millis(5),
                                                     sim::micros(100),
                                                     sim::micros(30)));
  sys.run_for(sim::millis(4));
  EXPECT_EQ(t->rt.arrivals, 0u);  // still in phase
  sys.run_for(sim::millis(3));
  EXPECT_GT(t->rt.arrivals, 5u);
}

TEST(Periodic, BudgetDeliveredPerArrival) {
  System sys(quiet());
  sys.boot();
  nk::Thread* t = spawn_rt(sys, 1,
                           rt::Constraints::periodic(sim::millis(1),
                                                     sim::micros(200),
                                                     sim::micros(80)));
  sys.run_for(sim::millis(41));
  // 40 ms of admitted time at 40% utilization => ~16 ms CPU.
  EXPECT_NEAR(static_cast<double>(t->total_cpu_ns), 16e6, 0.8e6);
  const double per_arrival = static_cast<double>(t->total_cpu_ns) /
                             static_cast<double>(t->rt.completions);
  EXPECT_NEAR(per_arrival, 80e3, 2e3);  // sigma +- timer tick/jitter
}

TEST(Periodic, TwoRtThreadsEdfOrdering) {
  System sys(quiet());
  sys.boot();
  nk::Thread* fast = spawn_rt(sys, 1,
                              rt::Constraints::periodic(sim::millis(1),
                                                        sim::micros(100),
                                                        sim::micros(30)));
  nk::Thread* slow = spawn_rt(sys, 1,
                              rt::Constraints::periodic(sim::millis(1),
                                                        sim::micros(400),
                                                        sim::micros(150)));
  sys.run_for(sim::millis(50));
  EXPECT_TRUE(fast->last_admit_ok);
  EXPECT_TRUE(slow->last_admit_ok);
  EXPECT_EQ(fast->rt.misses, 0u);
  EXPECT_EQ(slow->rt.misses, 0u);
  EXPECT_GT(fast->rt.completions, 400u);
  EXPECT_GT(slow->rt.completions, 100u);
}

TEST(Periodic, ChangeConstraintsBackToAperiodic) {
  System sys(quiet());
  sys.boot();
  auto b = std::make_unique<nk::FnBehavior>(
      [](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) {
          return nk::Action::change_constraints(rt::Constraints::periodic(
              sim::micros(100), sim::micros(100), sim::micros(40)));
        }
        if (step == 20) {
          return nk::Action::change_constraints(
              rt::Constraints::aperiodic());
        }
        return nk::Action::compute(sim::micros(10));
      });
  nk::Thread* t = sys.spawn("flip", std::move(b), 1, 10);
  sys.run_for(sim::millis(20));
  sys.sync_accounting();
  EXPECT_EQ(t->constraints.cls, rt::ConstraintClass::kAperiodic);
  EXPECT_NEAR(sys.sched(1).admitted_utilization(), 0.0, 1e-9);
  EXPECT_GT(t->total_cpu_ns, sim::millis(1));  // still runs as aperiodic
}

// ---------- Sporadic ----------

TEST(Sporadic, ServedBeforeDeadlineThenAperiodic) {
  System sys(quiet());
  sys.boot();
  nk::Thread* t = spawn_rt(sys, 1,
                           rt::Constraints::sporadic(sim::micros(100),
                                                     sim::micros(150),
                                                     sim::millis(2)),
                           sim::micros(25));
  sys.run_for(sim::millis(5));
  EXPECT_TRUE(t->last_admit_ok);
  EXPECT_EQ(t->rt.arrivals, 1u);
  EXPECT_EQ(t->rt.completions, 1u);
  EXPECT_EQ(t->rt.misses, 0u);
  EXPECT_EQ(t->constraints.cls, rt::ConstraintClass::kAperiodic);
  EXPECT_NEAR(sys.sched(1).admitted_utilization(), 0.0, 1e-9);
}

TEST(Sporadic, ReservationLimitsConcurrentSporadics) {
  System sys(quiet());
  sys.boot();
  // density 150us / 1.9ms ~ 0.079 each; two of them exceed the 0.10
  // sporadic reservation.
  nk::Thread* a = spawn_rt(sys, 1,
                           rt::Constraints::sporadic(sim::micros(100),
                                                     sim::micros(150),
                                                     sim::millis(2)));
  nk::Thread* b = spawn_rt(sys, 1,
                           rt::Constraints::sporadic(sim::micros(100),
                                                     sim::micros(150),
                                                     sim::millis(2)));
  sys.run_for(sim::millis(1));
  EXPECT_NE(a->last_admit_ok, b->last_admit_ok);
}

TEST(Sporadic, CompletionReleasesReservationForNext) {
  System sys(quiet());
  sys.boot();
  nk::Thread* a = spawn_rt(sys, 1,
                           rt::Constraints::sporadic(sim::micros(100),
                                                     sim::micros(150),
                                                     sim::millis(2)));
  sys.run_for(sim::millis(5));  // a served, now aperiodic
  EXPECT_EQ(a->rt.completions, 1u);
  nk::Thread* b = spawn_rt(sys, 1,
                           rt::Constraints::sporadic(sim::micros(100),
                                                     sim::micros(150),
                                                     sim::millis(2)));
  sys.run_for(sim::millis(5));
  EXPECT_TRUE(b->last_admit_ok);
  EXPECT_EQ(b->rt.completions, 1u);
}

// ---------- Aperiodic scheduling ----------

TEST(Aperiodic, StrictPriorityPreemptsAtPass) {
  System sys(quiet());
  sys.boot();
  nk::Thread* low = sys.spawn(
      "low", std::make_unique<nk::BusyLoopBehavior>(sim::micros(50)), 1, 200);
  nk::Thread* high = sys.spawn(
      "high", std::make_unique<nk::BusyLoopBehavior>(sim::micros(50)), 1, 5);
  sys.run_for(sim::millis(50));
  sys.sync_accounting();
  // Strict priority: high hogs the CPU; low starves.
  EXPECT_GT(high->total_cpu_ns, 40 * low->total_cpu_ns + 1);
}

TEST(Aperiodic, RoundRobinSharesEqualPriority) {
  System::Options o = quiet();
  o.sched.aperiodic_quantum = sim::millis(1);  // faster than 10 Hz for test
  System sys(std::move(o));
  sys.boot();
  nk::Thread* a = sys.spawn(
      "a", std::make_unique<nk::BusyLoopBehavior>(sim::micros(100)), 1);
  nk::Thread* b = sys.spawn(
      "b", std::make_unique<nk::BusyLoopBehavior>(sim::micros(100)), 1);
  sys.run_for(sim::millis(50));
  const double ratio = static_cast<double>(a->total_cpu_ns) /
                       static_cast<double>(b->total_cpu_ns);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
  EXPECT_GT(sys.sched(1).stats().rr_rotations, 20u);
}

// ---------- Lightweight tasks ----------

TEST(Tasks, SizedTasksRunInline) {
  System sys(quiet());
  sys.boot();
  int ran = 0;
  for (int i = 0; i < 10; ++i) {
    sys.kernel().submit_task(1, nk::Task{[&ran] { ++ran; }, sim::micros(3)});
  }
  sys.run_for(sim::millis(1));
  EXPECT_EQ(ran, 10);
  EXPECT_EQ(sys.sched(1).stats().tasks_inline, 10u);
}

TEST(Tasks, SizedTasksNeverDelayRtThread) {
  System sys(quiet());
  sys.boot();
  nk::Thread* t = spawn_rt(sys, 1,
                           rt::Constraints::periodic(sim::millis(1),
                                                     sim::micros(100),
                                                     sim::micros(60)));
  sys.run_for(sim::millis(3));
  int ran = 0;
  for (int i = 0; i < 500; ++i) {
    sys.kernel().submit_task(1, nk::Task{[&ran] { ++ran; }, sim::micros(8)});
  }
  sys.run_for(sim::millis(60));
  EXPECT_EQ(t->rt.misses, 0u);  // the RT thread was never delayed
  EXPECT_GT(ran, 400);          // tasks drained in the gaps
}

TEST(Tasks, UnsizedTasksQueueForHelperThread) {
  System sys(quiet());
  sys.boot();
  int ran = 0;
  sys.kernel().submit_task(1, nk::Task{[&ran] { ++ran; }, -1});
  sys.run_for(sim::millis(1));
  EXPECT_EQ(ran, 0);  // unsized: not run inline
  EXPECT_TRUE(sys.sched(1).has_unsized_task());
  // A helper thread drains them.
  auto helper = std::make_unique<nk::FnBehavior>(
      [](nk::ThreadCtx& c, std::uint64_t) {
        auto& sched = static_cast<rt::LocalScheduler&>(
            c.kernel.scheduler(c.self.cpu));
        if (!sched.has_unsized_task()) return nk::Action::exit();
        auto task = sched.pop_unsized_task();
        return nk::Action::compute(sim::micros(5),
                                   [fn = std::move(task.fn)](nk::ThreadCtx&) {
                                     fn();
                                   });
      });
  sys.spawn("taskexec", std::move(helper), 1, 10);
  sys.run_for(sim::millis(1));
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(sys.sched(1).has_unsized_task());
}

// ---------- Work stealing ----------

TEST(Stealing, UnboundAperiodicThreadMigrates) {
  System::Options o = quiet();
  o.work_stealing = true;
  System sys(std::move(o));
  sys.boot();
  // Two unbound threads stuck behind a hog on CPU 1; idle CPUs 2/3 steal.
  sys.spawn("hog", std::make_unique<nk::BusyLoopBehavior>(sim::micros(100)),
            1, 5);
  nk::Thread* w1 = sys.kernel().create_thread(
      "w1", std::make_unique<nk::BusyLoopBehavior>(sim::micros(100)), 1,
      rt::kDefaultPriority, /*bound=*/false);
  nk::Thread* w2 = sys.kernel().create_thread(
      "w2", std::make_unique<nk::BusyLoopBehavior>(sim::micros(100)), 1,
      rt::kDefaultPriority, /*bound=*/false);
  sys.run_for(sim::millis(50));
  sys.sync_accounting();
  EXPECT_GT(sys.kernel().steals(), 0u);
  EXPECT_TRUE(w1->cpu != 1 || w2->cpu != 1);
  EXPECT_GT(w1->total_cpu_ns + w2->total_cpu_ns, sim::millis(10));
}

TEST(Stealing, BoundThreadsAreNeverStolen) {
  System::Options o = quiet();
  o.work_stealing = true;
  System sys(std::move(o));
  sys.boot();
  sys.spawn("hog", std::make_unique<nk::BusyLoopBehavior>(sim::micros(100)),
            1, 5);
  nk::Thread* w = sys.spawn(
      "bound", std::make_unique<nk::BusyLoopBehavior>(sim::micros(100)), 1);
  sys.run_for(sim::millis(30));
  EXPECT_EQ(w->cpu, 1u);
  EXPECT_EQ(sys.kernel().steals(), 0u);
}

TEST(Stealing, RtThreadsAreNeverStolen) {
  System::Options o = quiet();
  o.work_stealing = true;
  System sys(std::move(o));
  sys.boot();
  nk::Thread* t = spawn_rt(sys, 1,
                           rt::Constraints::periodic(sim::millis(1),
                                                     sim::micros(100),
                                                     sim::micros(50)));
  sys.run_for(sim::millis(30));
  EXPECT_EQ(t->cpu, 1u);
  EXPECT_EQ(t->rt.misses, 0u);
}

// ---------- Reservations (group admission building block) ----------

TEST(Reservation, ReserveThenCommit) {
  System sys(quiet());
  sys.boot();
  auto b = std::make_unique<nk::FnBehavior>(
      [](nk::ThreadCtx& c, std::uint64_t step) {
        auto& sched = static_cast<rt::LocalScheduler&>(
            c.kernel.scheduler(c.self.cpu));
        if (step == 0) {
          return nk::Action::compute(
              sim::micros(10), [&sched](nk::ThreadCtx& cc) {
                EXPECT_TRUE(sched.reserve_constraints(
                    cc.self, rt::Constraints::periodic(sim::micros(500),
                                                       sim::micros(100),
                                                       sim::micros(40))));
                EXPECT_TRUE(sched.has_reservation(cc.self));
              });
        }
        if (step == 1) {
          return nk::Action::change_constraints(rt::Constraints::periodic(
              sim::micros(500), sim::micros(100), sim::micros(40)));
        }
        return nk::Action::compute(sim::micros(10));
      });
  nk::Thread* t = sys.spawn("r", std::move(b), 1, 10);
  sys.run_for(sim::millis(5));
  EXPECT_TRUE(t->last_admit_ok);
  EXPECT_FALSE(sys.sched(1).has_reservation(*t));
  EXPECT_EQ(t->constraints.cls, rt::ConstraintClass::kPeriodic);
  EXPECT_GT(t->rt.arrivals, 10u);
}

TEST(Reservation, ReservedUtilizationBlocksOthers) {
  System sys(quiet());
  sys.boot();
  nk::Thread* holder = sys.spawn(
      "holder", std::make_unique<nk::BusyLoopBehavior>(sim::micros(50)), 1,
      50);
  sys.run_for(sim::millis(1));
  EXPECT_TRUE(sys.sched(1).reserve_constraints(
      *holder, rt::Constraints::periodic(sim::millis(1), sim::micros(100),
                                         sim::micros(60))));
  nk::Thread* t = spawn_rt(sys, 1,
                           rt::Constraints::periodic(sim::millis(1),
                                                     sim::micros(100),
                                                     sim::micros(30)));
  sys.run_for(sim::millis(2));
  EXPECT_FALSE(t->last_admit_ok);  // 0.6 reserved + 0.3 > 0.79
  sys.sched(1).cancel_reservation(*holder);
  nk::Thread* t2 = spawn_rt(sys, 1,
                            rt::Constraints::periodic(sim::millis(1),
                                                      sim::micros(100),
                                                      sim::micros(30)));
  sys.run_for(sim::millis(2));
  EXPECT_TRUE(t2->last_admit_ok);
}

// ---------- Lazy variant ----------

TEST(LazyEdf, StillMeetsDeadlinesWithoutMissingTime) {
  System::Options o = quiet();
  o.sched.eager = false;
  System sys(std::move(o));
  sys.boot();
  sys.spawn("hog", std::make_unique<nk::BusyLoopBehavior>(sim::micros(50)),
            1, 200);
  nk::Thread* t = spawn_rt(sys, 1,
                           rt::Constraints::periodic(sim::millis(1),
                                                     sim::micros(200),
                                                     sim::micros(60)));
  sys.run_for(sim::millis(50));
  EXPECT_TRUE(t->last_admit_ok);
  EXPECT_GT(t->rt.completions, 200u);
  // Lazy leaves margin only for *nominal* overheads; cost jitter is already
  // "badly predicted time", so the occasional miss is inherent to the
  // variant even without SMIs (the point of section 3.6).
  EXPECT_LE(t->rt.misses, 3u);
}

// ---------- Stats ----------

TEST(Stats, PassCountsByReason) {
  System sys(quiet());
  sys.boot();
  spawn_rt(sys, 1,
           rt::Constraints::periodic(sim::millis(1), sim::micros(100),
                                     sim::micros(50)));
  sys.run_for(sim::millis(10));
  const auto& st = sys.sched(1).stats();
  EXPECT_GT(st.passes, 100u);
  EXPECT_GT(st.timer_passes, 100u);
  EXPECT_GE(st.kick_passes, 1u);  // the spawn kick
  EXPECT_EQ(st.admissions_ok, 1u);
}

}  // namespace
}  // namespace hrt
