#include "rt/system.hpp"

#include <stdexcept>
#include <utility>

#include "group/group_admission.hpp"

namespace hrt {

namespace {

/// Batch-spawn commit wrapper: the thread's utilization is already held by
/// a reservation (LocalScheduler::reserve_batch), so the step-0 commit is
/// an O(1) fast-path probe that cannot fail under normal operation — only
/// a capacity degradation between reserve and first run (SMI storm) can
/// reject it, and then the thread exits rather than run unadmitted.
class ReservedAdmitBehavior final : public nk::Behavior {
 public:
  ReservedAdmitBehavior(rt::Constraints c, std::unique_ptr<nk::Behavior> inner)
      : constraints_(c), inner_(std::move(inner)) {}

  nk::Action next(nk::ThreadCtx& ctx) override {
    if (!committed_) {
      committed_ = true;
      return nk::Action::change_constraints(constraints_);
    }
    if (!checked_) {
      checked_ = true;
      if (!ctx.last_admit_ok) return nk::Action::exit();
    }
    return inner_->next(ctx);
  }

  [[nodiscard]] std::string describe() const override {
    return "reserved-admit(" + inner_->describe() + ")";
  }

 private:
  rt::Constraints constraints_;
  std::unique_ptr<nk::Behavior> inner_;
  bool committed_ = false;
  bool checked_ = false;
};

}  // namespace

System::System() : System(Options{}) {}

System::System(Options options) : options_(std::move(options)) {
  hw::MachineSpec spec = options_.spec;
  if (!options_.smi_enabled) spec.smi.enabled = false;
  machine_ = std::make_unique<hw::Machine>(spec, options_.seed);
  auditor_ = std::make_unique<audit::Auditor>(options_.audit);
  telemetry_ = std::make_unique<telemetry::Telemetry>(machine_->num_cpus(),
                                                      options_.telemetry);
  if (telemetry_->enabled()) telemetry_->attach_auditor(auditor_.get());

  // Resilience knobs propagate into every local scheduler's config: the
  // estimator lives in the scheduler's timer path, and degraded admission is
  // a per-CPU decision (docs/RESILIENCE.md).
  if (options_.resilience.enabled) {
    options_.sched.estimator = options_.resilience.estimator;
    options_.sched.estimator.enabled = true;
    options_.sched.degraded_admission = options_.resilience.degrade_admission;
    options_.sched.resilience_reserve = options_.resilience.capacity_reserve;
  }

  // Per-CPU capacity available to RT admission; the ledger must agree with
  // the local schedulers on what "full" means.
  const double capacity = options_.sched.utilization_limit -
                          options_.sched.sporadic_reservation -
                          options_.sched.aperiodic_reservation;
  global::Config gc = options_.placement_config;
  gc.interrupt_laden_cpus = options_.interrupt_laden_cpus;
  global_ = std::make_unique<global::GlobalScheduler>(machine_->num_cpus(),
                                                      capacity, gc);

  nk::Kernel::Options ko;
  ko.auditor = auditor_.get();
  ko.telemetry = telemetry_->enabled() ? telemetry_.get() : nullptr;
  ko.scheduler_factory = rt::make_scheduler_factory(options_.sched);
  ko.work_stealing = options_.work_stealing;
  ko.interrupt_laden_cpus = options_.interrupt_laden_cpus;
  ko.tpr_steering = options_.tpr_steering;
  ko.calibrate_tsc = options_.calibrate_tsc;
  ko.start_smi_source = true;  // no-op when the spec disables SMIs
  kernel_ = std::make_unique<nk::Kernel>(*machine_, std::move(ko));
  groups_ = std::make_unique<grp::GroupRegistry>(*kernel_);
  global_->attach(kernel_.get(), groups_.get());

  storm_ = std::make_unique<resilience::StormController>(options_.resilience,
                                                         capacity);
  storm_->attach(kernel_.get(), global_.get(), auditor_.get());

  // Seed the effective-capacity gauges with the undegraded base; the storm
  // controller overwrites them as it publishes degradations.
  if (telemetry_->enabled()) {
    for (std::uint32_t c = 0; c < machine_->num_cpus(); ++c) {
      telemetry_->set_effective_capacity(c, capacity);
    }
  }
}

void System::boot() {
  kernel_->boot();
  for (std::uint32_t c = 0; c < kernel_->num_cpus(); ++c) {
    global_->ledger().bind(c, &sched(c).fast_committed_word());
  }
  storm_->start();
}

nk::Thread* System::spawn(std::string name,
                          std::unique_ptr<nk::Behavior> behavior,
                          std::uint32_t cpu, rt::AperiodicPriority priority) {
  if (cpu >= kernel_->num_cpus()) {
    throw std::out_of_range(
        "System::spawn: cpu " + std::to_string(cpu) +
        " out of range (machine has " + std::to_string(kernel_->num_cpus()) +
        " cpus)");
  }
  return kernel_->create_thread(std::move(name), std::move(behavior), cpu,
                                priority);
}

nk::Thread* System::spawn_auto(std::string name,
                               std::unique_ptr<nk::Behavior> behavior,
                               const rt::Constraints& constraints,
                               rt::AperiodicPriority priority) {
  const std::uint32_t cpu = global_->place(constraints);
  return kernel_->create_thread(
      std::move(name), global_->auto_admit(constraints, std::move(behavior)),
      cpu, priority);
}

System::BatchSpawnResult System::spawn_batch(std::vector<SpawnSpec> specs) {
  BatchSpawnResult result;
  if (specs.empty()) {
    result.ok = true;
    return result;
  }

  // Phase 1: ONE placement pass over the whole batch.
  std::vector<rt::Constraints> cs;
  cs.reserve(specs.size());
  for (const SpawnSpec& s : specs) cs.push_back(s.constraints);
  std::vector<std::uint32_t> cpus = global_->place_batch(cs);

  // Phase 2: materialize every thread PARKED — pool-backed TCBs, no
  // scheduler has seen any of them yet, so a rejection can still unwind to
  // exactly the pre-call state.
  kernel_->prewarm_thread_pool(specs.size());
  std::vector<nk::Thread*> threads;
  threads.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SpawnSpec& s = specs[i];
    std::unique_ptr<nk::Behavior> b =
        s.constraints.is_realtime()
            ? std::make_unique<ReservedAdmitBehavior>(s.constraints,
                                                      std::move(s.behavior))
            : std::move(s.behavior);
    threads.push_back(kernel_->create_thread_parked(
        std::move(s.name), std::move(b), cpus[i], s.priority));
  }

  // Phase 3: ONE admission analysis per distinct target CPU.  Group the
  // batch by CPU and reserve each subset atomically; the first rejecting
  // CPU fails the whole batch.
  std::vector<std::uint32_t> touched;
  bool admitted = true;
  for (std::uint32_t cpu = 0; cpu < kernel_->num_cpus() && admitted; ++cpu) {
    std::vector<std::pair<nk::Thread*, rt::Constraints>> items;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (cpus[i] == cpu && cs[i].is_realtime()) {
        items.emplace_back(threads[i], cs[i]);
      }
    }
    if (items.empty()) continue;
    if (sched(cpu).reserve_batch(items)) {
      touched.push_back(cpu);
    } else {
      admitted = false;
    }
  }

  if (!admitted) {
    // All-or-nothing rollback: drop the reservations taken so far, return
    // every TCB to the pool.  No queue was touched, no CPU kicked.
    for (std::uint32_t cpu : touched) {
      for (std::size_t i = 0; i < specs.size(); ++i) {
        if (cpus[i] == cpu) sched(cpu).cancel_reservation(*threads[i]);
      }
    }
    kernel_->abort_thread_batch(threads);
    return result;
  }

  // Phase 4: publish — enqueue everything, one kick per distinct CPU.
  kernel_->commit_thread_batch(threads);
  result.ok = true;
  result.threads = std::move(threads);
  result.cpus = std::move(cpus);
  return result;
}

std::vector<nk::Thread*> System::spawn_split(
    const std::string& name, const rt::Constraints& constraints,
    const std::function<std::unique_ptr<nk::Behavior>(std::uint32_t)>&
        make_inner) {
  global::SplitPlan plan =
      global_->plan_split(constraints, options_.sched.min_slice);
  if (!plan.ok) return {};
  std::vector<nk::Thread*> out;
  out.reserve(plan.chunks.size());
  for (std::uint32_t i = 0; i < plan.chunks.size(); ++i) {
    const global::SplitChunk& sc = plan.chunks[i];
    std::unique_ptr<nk::Behavior> inner =
        make_inner ? make_inner(i)
                   : std::make_unique<nk::BusyLoopBehavior>(sim::millis(2));
    rt::Constraints cc = sc.constraints;
    if (global_->config().split_aligned_release) {
      // Anchored release grid: all chunks share anchor 0, so their admitted
      // grids coincide exactly even though each chunk's admission (with its
      // own gamma, possibly after retries) runs at a different time.
      cc.align_release = true;
      cc.release_anchor = 0;
    }
    out.push_back(kernel_->create_thread(
        name + "." + std::to_string(i), global_->auto_admit(cc, std::move(inner)),
        sc.cpu));
  }
  return out;
}

std::vector<nk::Thread*> System::spawn_group_auto(
    const std::string& name, std::uint32_t n,
    const rt::Constraints& constraints,
    const std::function<std::unique_ptr<nk::Behavior>(std::uint32_t)>&
        make_inner) {
  const std::vector<std::uint32_t> cpus =
      global_->engine().choose_group(n, constraints);
  if (cpus.size() != n) return {};
  grp::ThreadGroup* group = groups_->create(name, n);
  if (group == nullptr) return {};
  std::vector<nk::Thread*> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    out.push_back(kernel_->create_thread(
        name + "." + std::to_string(i),
        std::make_unique<grp::GroupAdmitThenBehavior>(
            *group, constraints, make_inner(i), /*join_first=*/true),
        cpus[i]));
  }
  return out;
}

}  // namespace hrt
