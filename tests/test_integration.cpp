// Integration and property tests across the whole stack:
//   * determinism: identical seeds give identical simulations,
//   * hard invariant: admitted (feasible) constraints never miss, across a
//     parameter sweep and under SMI storms and device-interrupt load,
//   * isolation: RT timing is independent of background load,
//   * group lockstep survives missing time,
//   * full-machine sanity at 256 CPUs.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bsp/bsp.hpp"
#include "group/group_admission.hpp"

namespace hrt {
namespace {

nk::Thread* spawn_periodic(System& sys, std::uint32_t cpu, sim::Nanos period,
                           sim::Nanos slice,
                           sim::Nanos phase = sim::millis(1)) {
  auto b = std::make_unique<nk::FnBehavior>(
      [=](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) {
          return nk::Action::change_constraints(
              rt::Constraints::periodic(phase, period, slice));
        }
        return nk::Action::compute(period / 7);
      });
  return sys.spawn("p", std::move(b), cpu, 10);
}

// ---------- Determinism ----------

std::string trace_bytes(const sim::Trace& trace) {
  std::ostringstream os;
  for (const auto& r : trace.records()) {
    os << r.time << '|' << r.cpu << '|' << static_cast<int>(r.kind) << '|'
       << r.value << '\n';
  }
  return os.str();
}

TEST(Determinism, SameSeedSameTrajectory) {
  auto run = [](std::uint64_t seed) {
    System::Options o;
    o.spec = hw::MachineSpec::phi_small(4);
    o.seed = seed;
    System sys(std::move(o));
    sys.boot();
    nk::Thread* t = spawn_periodic(sys, 1, sim::micros(100), sim::micros(40));
    sys.run_for(sim::millis(50));
    return std::tuple{t->rt.arrivals, t->rt.misses, t->total_cpu_ns,
                      sys.engine().events_executed(),
                      sys.machine().smi().stats().count};
  };
  EXPECT_EQ(run(12345), run(12345));
  EXPECT_NE(std::get<3>(run(1)), std::get<3>(run(2)));
}

// fig12-style group sync: a hard real-time group spanning CPUs, admitted
// through the full group protocol, so the trace carries cross-CPU kick IPIs.
std::tuple<std::string, std::uint64_t, sim::Nanos> run_fig12_style() {
  constexpr std::uint32_t kMembers = 4;
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(kMembers + 2);
  o.seed = 99;
  System sys(std::move(o));
  sys.machine().trace().enable();
  sys.boot();
  grp::ThreadGroup* group = sys.groups().create("sync", kMembers);
  const sim::Nanos phase = sim::millis(2) + kMembers * sim::micros(60);
  for (std::uint32_t r = 0; r < kMembers; ++r) {
    auto b = std::make_unique<grp::GroupAdmitThenBehavior>(
        *group,
        rt::Constraints::periodic(phase, sim::micros(100), sim::micros(50)),
        std::make_unique<nk::BusyLoopBehavior>(sim::micros(20)));
    sys.spawn("s" + std::to_string(r), std::move(b), 1 + r);
  }
  sys.run_for(sim::millis(30));
  return std::tuple{trace_bytes(sys.machine().trace()),
                    sys.engine().events_executed(), sys.engine().now()};
}

// The same seed reproduces the trace byte for byte, whichever host thread
// runs the simulation and however many independent simulations run beside
// it: a System keeps no state in globals shared across instances.
TEST(DeterminismFingerprint, Fig12StyleBitIdenticalAcrossHostThreads) {
  const auto baseline = run_fig12_style();
  ASSERT_FALSE(std::get<0>(baseline).empty());
  EXPECT_TRUE(run_fig12_style() == baseline);
  for (const unsigned host_threads : {1u, 2u, 4u}) {
    std::vector<std::tuple<std::string, std::uint64_t, sim::Nanos>> runs(
        host_threads);
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < host_threads; ++i) {
      pool.emplace_back([&runs, i] { runs[i] = run_fig12_style(); });
    }
    for (auto& t : pool) t.join();
    for (unsigned i = 0; i < host_threads; ++i) {
      EXPECT_TRUE(runs[i] == baseline)
          << "host_threads=" << host_threads << " run=" << i;
    }
  }
}

// ---------- The hard real-time invariant ----------

struct FeasiblePoint {
  sim::Nanos period;
  int slice_pct;
};

class FeasibleSweep : public ::testing::TestWithParam<FeasiblePoint> {};

TEST_P(FeasibleSweep, AdmittedConstraintsNeverMissOnPhi) {
  const auto p = GetParam();
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(4);
  o.smi_enabled = true;  // storms included: eager EDF must absorb them
  System sys(std::move(o));
  sys.boot();
  const sim::Nanos slice = p.period * p.slice_pct / 100;
  nk::Thread* t = spawn_periodic(sys, 1, p.period, slice);
  sys.run_for(sim::millis(200));
  ASSERT_TRUE(t->last_admit_ok) << "sweep point should be admissible";
  EXPECT_GT(t->rt.arrivals, 100u);
  EXPECT_EQ(t->rt.misses, 0u)
      << "admitted constraint missed: tau=" << p.period
      << " sigma%=" << p.slice_pct;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FeasibleSweep,
    ::testing::Values(FeasiblePoint{sim::millis(1), 70},
                      FeasiblePoint{sim::millis(1), 30},
                      FeasiblePoint{sim::micros(500), 60},
                      FeasiblePoint{sim::micros(200), 50},
                      FeasiblePoint{sim::micros(100), 50},
                      FeasiblePoint{sim::micros(100), 20},
                      FeasiblePoint{sim::micros(50), 30},
                      FeasiblePoint{sim::micros(50), 10}));

TEST(Invariant, MultipleRtThreadsAllMeetDeadlines) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(4);
  System sys(std::move(o));
  sys.boot();
  nk::Thread* a = spawn_periodic(sys, 1, sim::micros(200), sim::micros(40));
  nk::Thread* b = spawn_periodic(sys, 1, sim::micros(500), sim::micros(120));
  nk::Thread* c = spawn_periodic(sys, 1, sim::millis(2), sim::micros(500));
  sys.run_for(sim::millis(300));
  for (nk::Thread* t : {a, b, c}) {
    ASSERT_TRUE(t->last_admit_ok);
    EXPECT_EQ(t->rt.misses, 0u);
  }
}

TEST(Invariant, SurvivesExtremeSmiStorm) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(4);
  // Brutal: ~25 us stolen every ~300 us (~8% of the machine).
  o.spec.smi.mean_interval_ns = sim::micros(300);
  o.spec.smi.min_duration_ns = sim::micros(15);
  o.spec.smi.mean_duration_ns = sim::micros(25);
  o.spec.smi.max_duration_ns = sim::micros(40);
  System sys(std::move(o));
  sys.boot();
  // Modest utilization leaves headroom to absorb the storm.
  nk::Thread* t = spawn_periodic(sys, 1, sim::millis(1), sim::micros(300));
  sys.run_for(sim::millis(500));
  ASSERT_TRUE(t->last_admit_ok);
  EXPECT_GT(sys.machine().smi().stats().count, 1000u);
  // Eager scheduling keeps the miss rate tiny even under this storm.
  EXPECT_LT(static_cast<double>(t->rt.misses),
            0.01 * static_cast<double>(t->rt.arrivals) + 1.0);
}

// ---------- Isolation ----------

TEST(Isolation, RtTimingIndependentOfBackgroundLoad) {
  auto measure = [](int background_threads) {
    System::Options o;
    o.spec = hw::MachineSpec::phi_small(4);
    o.seed = 77;
    System sys(std::move(o));
    sys.boot();
    nk::Thread* t =
        spawn_periodic(sys, 1, sim::micros(200), sim::micros(60));
    for (int i = 0; i < background_threads; ++i) {
      sys.spawn("bg" + std::to_string(i),
                std::make_unique<nk::BusyLoopBehavior>(sim::micros(70)), 1);
    }
    sys.run_for(sim::millis(200));
    return std::tuple{t->rt.misses, t->total_cpu_ns, t->rt.completions};
  };
  const auto alone = measure(0);
  const auto crowded = measure(6);
  EXPECT_EQ(std::get<0>(alone), 0u);
  EXPECT_EQ(std::get<0>(crowded), 0u);
  // Same CPU share delivered regardless of competition (within jitter).
  EXPECT_NEAR(static_cast<double>(std::get<1>(alone)),
              static_cast<double>(std::get<1>(crowded)),
              0.02 * static_cast<double>(std::get<1>(alone)));
}

TEST(Isolation, AperiodicWorkFillsExactlyTheLeftover) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(4);
  o.smi_enabled = false;
  System sys(std::move(o));
  sys.boot();
  spawn_periodic(sys, 1, sim::micros(200), sim::micros(120));  // 60%
  nk::Thread* bg = sys.spawn(
      "bg", std::make_unique<nk::BusyLoopBehavior>(sim::micros(50)), 1);
  sys.run_for(sim::millis(200));
  sys.sync_accounting();
  // Background gets roughly the remaining 40% minus overheads.
  const double share = static_cast<double>(bg->total_cpu_ns) / 200e6;
  EXPECT_GT(share, 0.30);
  EXPECT_LT(share, 0.42);
}

// ---------- Groups under fire ----------

TEST(GroupsUnderFire, LockstepSurvivesSmis) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(10);
  o.spec.smi.mean_interval_ns = sim::millis(2);
  o.spec.smi.mean_duration_ns = sim::micros(12);
  o.sched.sporadic_reservation = 0.04;
  o.sched.aperiodic_reservation = 0.05;
  System sys(std::move(o));
  sys.boot();
  bsp::BspConfig cfg;
  cfg.P = 8;
  cfg.NE = 128;
  cfg.NC = 4;
  cfg.NW = 8;
  cfg.N = 150;
  cfg.barrier = false;
  cfg.mode = bsp::Mode::kGroupRt;
  cfg.period = sim::micros(500);
  cfg.slice = sim::micros(350);
  auto r = bsp::run_bsp(sys, cfg);
  EXPECT_TRUE(r.admission_ok);
  EXPECT_TRUE(r.all_done);
  // SMIs are machine-wide (all CPUs freeze together), so they do not break
  // lockstep; the skew bound holds.
  EXPECT_LE(r.max_write_skew, 2u);
  EXPECT_GT(sys.machine().smi().stats().count, 0u);
}

TEST(GroupsUnderFire, SequentialGroupsOnSameSystem) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(10);
  o.smi_enabled = false;
  o.sched.sporadic_reservation = 0.04;
  o.sched.aperiodic_reservation = 0.05;
  System sys(std::move(o));
  sys.boot();
  for (int round = 0; round < 3; ++round) {
    bsp::BspConfig cfg;
    cfg.P = 8;
    cfg.NE = 64;
    cfg.NC = 4;
    cfg.NW = 4;
    cfg.N = 30;
    cfg.mode = bsp::Mode::kGroupRt;
    cfg.period = sim::micros(300);
    cfg.slice = sim::micros(200);
    auto r = bsp::run_bsp(sys, cfg);
    EXPECT_TRUE(r.admission_ok) << "round " << round;
    EXPECT_TRUE(r.all_done) << "round " << round;
  }
  // Utilization fully released between rounds.
  for (std::uint32_t c = 1; c <= 8; ++c) {
    EXPECT_NEAR(sys.sched(c).admitted_utilization(), 0.0, 1e-9);
  }
}

// ---------- Full machine ----------

TEST(FullMachine, Boot256AndRunMixedLoad) {
  System sys;  // full Phi, SMIs on
  sys.boot();
  std::vector<nk::Thread*> rts;
  for (std::uint32_t c = 1; c <= 64; c += 4) {
    rts.push_back(
        spawn_periodic(sys, c, sim::micros(100) * (1 + c % 5),
                       sim::micros(30) * (1 + c % 5)));
  }
  for (std::uint32_t c = 2; c <= 32; c += 8) {
    sys.spawn("bg" + std::to_string(c),
              std::make_unique<nk::BusyLoopBehavior>(sim::micros(50)), c);
  }
  sys.run_for(sim::millis(100));
  for (nk::Thread* t : rts) {
    ASSERT_TRUE(t->last_admit_ok);
    EXPECT_GT(t->rt.arrivals, 100u);
    EXPECT_EQ(t->rt.misses, 0u);
  }
}

TEST(FullMachine, IdleMachineIsQuiet) {
  // Tickless design: an idle 256-CPU machine executes almost no events.
  System::Options o;
  o.smi_enabled = false;
  System sys(std::move(o));
  sys.boot();
  const auto before = sys.engine().events_executed();
  sys.run_for(sim::seconds(1));
  EXPECT_LT(sys.engine().events_executed() - before, 100u);
}

// ---------- R415 cross-machine ----------

TEST(R415, FinerConstraintsFeasible) {
  System::Options o;
  o.spec = hw::MachineSpec::r415();
  // A 10 us period leaves only ~4 us of slack; an SMI stealing 8-25 us
  // cannot be absorbed at that granularity on *any* scheduler (section 3.6
  // bounds the damage, it cannot erase it), so isolate quantization from
  // missing time here.
  o.smi_enabled = false;
  System sys(std::move(o));
  sys.boot();
  nk::Thread* t = spawn_periodic(sys, 1, sim::micros(10), sim::micros(3));
  sys.run_for(sim::millis(100));
  ASSERT_TRUE(t->last_admit_ok);
  EXPECT_GT(t->rt.arrivals, 5000u);
  EXPECT_EQ(t->rt.misses, 0u);  // infeasible on the Phi, fine here
}

}  // namespace
}  // namespace hrt
