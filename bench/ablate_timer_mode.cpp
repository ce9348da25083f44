// Ablation (section 3.3): APIC tick countdown vs TSC-deadline mode.
//
// "At boot time, the APIC timer resolution, the cycle counter resolution,
// and the desired nanosecond granularity are calibrated so that the actual
// countdown programmed into the APIC timer will be conservative ... If the
// APIC supports 'TSC deadline mode' ... it can be programmed with a cycle
// count instead of an APIC tick count, avoiding issues of resolution
// conversion."  TSC-deadline mode shrinks the quantization earliness from
// up to one APIC tick to under one cycle.
//
// A second cell checks that the one-shot is re-armed without livelock: a
// kick lands in every period of a periodic thread when less of its slice is
// left than one scheduler handler span, so the budget one-shot armed at the
// kick handler's exit expires inside the next handler.  A re-arm retracts
// that superseded latched fire (DESIGN.md section 2); if it did not, every
// handler would start the next and the thread would never finish its slice.
// The cell is simulated, hence host-independent: --json=PATH writes
// passes_per_switch, which bench/run_perf.sh gates at <= 4.
#include "common.hpp"

using namespace hrt;

namespace {

struct TimerStats {
  double avg_earliness_ns;
  double max_earliness_ns;
  std::uint64_t misses;
};

TimerStats run_mode(bool tsc_deadline, std::uint64_t seed) {
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(4);
  o.spec.timer.tsc_deadline = tsc_deadline;
  o.seed = seed;
  System sys(std::move(o));
  sys.boot();

  auto behavior = std::make_unique<nk::FnBehavior>(
      [](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) {
          return nk::Action::change_constraints(rt::Constraints::periodic(
              sim::millis(1), sim::micros(50), sim::micros(20)));
        }
        return nk::Action::compute(sim::micros(10));
      });
  nk::Thread* t = sys.spawn("rt", std::move(behavior), 1);
  sys.run_for(sim::millis(200));

  const auto& e = sys.machine().cpu(1).apic().earliness();
  return TimerStats{e.mean(), e.max(), t->rt.misses};
}

struct ResidualKickStats {
  std::uint64_t windows;
  std::uint64_t completions;
  std::uint64_t passes;
  std::uint64_t switches;
  double cpu_per_window_ns;
};

ResidualKickStats run_residual_kick(std::uint64_t seed) {
  const sim::Nanos period = sim::millis(1);
  const sim::Nanos slice = sim::micros(100);
  const sim::Nanos residual = 1500;  // < one handler span (~3.4 us on Phi)
  const std::uint64_t windows = 50;
  System::Options o;
  o.spec = hw::MachineSpec::phi_small(2);
  o.seed = seed;
  System sys(std::move(o));
  sys.boot();
  auto behavior = std::make_unique<nk::FnBehavior>(
      [=](nk::ThreadCtx&, std::uint64_t step) {
        if (step == 0) {
          return nk::Action::change_constraints(
              rt::Constraints::periodic(sim::micros(200), period, slice));
        }
        return nk::Action::compute(sim::millis(2));
      });
  nk::Thread* t = sys.spawn("rt", std::move(behavior), 1);
  // Unkicked periods first: they measure arrival -> dispatch latency.
  sys.run_for(sim::millis(3));
  const auto dispatch = static_cast<sim::Nanos>(t->rt.switch_latency.mean());
  sys.sync_accounting();
  const std::uint64_t completions0 = t->rt.completions;
  const std::uint64_t passes0 = sys.sched(1).stats().passes;
  const std::uint64_t switches0 =
      sys.kernel().executor(1).overheads().switches;
  const sim::Nanos cpu0 = t->total_cpu_ns;
  // Arrivals are on CPU 1's wall clock; kicks are engine events.
  const sim::Nanos skew =
      sys.kernel().executor(1).wall_now() - sys.engine().now();
  const sim::Nanos first =
      (t->rt.arrival_open ? t->rt.arrival + period : t->rt.arrival) - skew;
  for (std::uint64_t k = 0; k < windows; ++k) {
    sys.engine().schedule_at(
        first + static_cast<sim::Nanos>(k) * period + dispatch + slice -
            residual,
        [&sys] { sys.machine().cpu(1).raise(hw::kKickVector); },
        sim::EventBand::kHardware);
  }
  sys.run_until(first + static_cast<sim::Nanos>(windows) * period -
                period / 2);
  sys.sync_accounting();
  return ResidualKickStats{
      windows, t->rt.completions - completions0,
      sys.sched(1).stats().passes - passes0,
      sys.kernel().executor(1).overheads().switches - switches0,
      static_cast<double>(t->total_cpu_ns - cpu0) /
          static_cast<double>(windows)};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  bench::header(
      "Ablation: APIC one-shot tick mode vs TSC-deadline mode "
      "(tau=50us sigma=20us periodic thread)",
      "conservative rounding fires early, never late; TSC-deadline mode "
      "eliminates nearly all of the quantization");

  auto tick = run_mode(false, args.seed);
  auto tsc = run_mode(true, args.seed);
  std::printf("\n%-16s %16s %16s %10s\n", "mode", "avg early (ns)",
              "max early (ns)", "misses");
  std::printf("%-16s %16.2f %16.2f %10llu\n", "APIC ticks", tick.avg_earliness_ns,
              tick.max_earliness_ns, (unsigned long long)tick.misses);
  std::printf("%-16s %16.2f %16.2f %10llu\n", "TSC deadline", tsc.avg_earliness_ns,
              tsc.max_earliness_ns, (unsigned long long)tsc.misses);

  bench::shape_check("tick mode earliness bounded by one tick (20 ns)",
                     tick.max_earliness_ns <= 20.0);
  bench::shape_check("TSC-deadline earliness a few ns at most (cycle-level)",
                     tsc.max_earliness_ns < 3.0 &&
                         tsc.max_earliness_ns < 0.2 * tick.max_earliness_ns);
  bench::shape_check("never late: zero misses in both modes",
                     tick.misses == 0 && tsc.misses == 0);

  const ResidualKickStats rk = run_residual_kick(args.seed);
  const double passes_per_switch =
      static_cast<double>(rk.passes) /
      static_cast<double>(std::max<std::uint64_t>(rk.switches, 1));
  std::printf(
      "\nkick with 1.5 us of a 100 us slice left, %llu periods: %llu "
      "slices delivered, %llu passes, %llu switches (%.2f passes/switch), "
      "%.0f ns CPU per period\n",
      (unsigned long long)rk.windows, (unsigned long long)rk.completions,
      (unsigned long long)rk.passes, (unsigned long long)rk.switches,
      passes_per_switch, rk.cpu_per_window_ns);
  bench::shape_check(
      "kick during residual budget: every slice delivered, <= 4 passes per "
      "switch",
      rk.completions == rk.windows && passes_per_switch <= 4.0);

  if (!args.json.empty()) {
    bench::JsonObject j;
    j.field("benchmark", std::string("ablate_timer_mode"));
    j.field("mode", std::string(args.full ? "full" : "quick"));
    j.field("seed", args.seed);
    j.field("tick_max_earliness_ns", tick.max_earliness_ns);
    j.field("tsc_max_earliness_ns", tsc.max_earliness_ns);
    j.field("residual_kick_windows", rk.windows);
    j.field("residual_kick_completions", rk.completions);
    j.field("residual_kick_passes", rk.passes);
    j.field("residual_kick_switches", rk.switches);
    j.field("passes_per_switch", passes_per_switch);
    if (!j.write_file(args.json)) {
      std::fprintf(stderr, "error: cannot write %s\n", args.json.c_str());
      return 1;
    }
    std::printf("wrote %s\n", args.json.c_str());
  }
  return 0;
}
