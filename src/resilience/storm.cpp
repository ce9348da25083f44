#include "resilience/storm.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "audit/auditor.hpp"
#include "global/global_scheduler.hpp"
#include "nautilus/kernel.hpp"
#include "nautilus/thread.hpp"
#include "rt/local_scheduler.hpp"
#include "telemetry/telemetry.hpp"

namespace hrt::resilience {

namespace {
// Matches the admission/ledger tolerance used across src/global/.
constexpr double kEps = 1e-9;
constexpr double kCapacityAuditEps = 1e-9;

bool thread_dead(const nk::Thread* t) {
  return t->state == nk::Thread::State::kExited ||
         t->state == nk::Thread::State::kPooled;
}
}  // namespace

const char* transition_name(Transition::Kind k) {
  switch (k) {
    case Transition::Kind::kStormEnter:
      return "storm-enter";
    case Transition::Kind::kStormExit:
      return "storm-exit";
    case Transition::Kind::kDrain:
      return "drain";
    case Transition::Kind::kShed:
      return "shed";
    case Transition::Kind::kRestore:
      return "restore";
  }
  return "?";
}

void StormController::attach(nk::Kernel* kernel,
                             global::GlobalScheduler* global,
                             audit::Auditor* auditor) {
  kernel_ = kernel;
  global_ = global;
  auditor_ = auditor;
}

void StormController::start() {
  if (!cfg_.enabled || kernel_ == nullptr || global_ == nullptr) return;
  if (sample_event_.valid()) return;  // boot() is idempotent; so is this
  const std::uint32_t n = kernel_->num_cpus();
  cpus_.assign(n, CpuState{});
  storm_flags_.assign(n, 0);
  global_->engine_mut().set_storm_flags(&storm_flags_);
  sample_event_ = engine().schedule_after(
      cfg_.sample_interval_ns, [this] { sample(); }, sim::EventBand::kObserver);
}

std::size_t StormController::shed_count() const {
  std::size_t n = 0;
  for (const ShedRecord& r : sheds_) {
    if (r.applied) ++n;
  }
  return n;
}

sim::Engine& StormController::engine() const {
  return kernel_->machine().engine();
}

rt::LocalScheduler* StormController::sched(std::uint32_t cpu) const {
  return dynamic_cast<rt::LocalScheduler*>(&kernel_->scheduler(cpu));
}

void StormController::log(Transition::Kind k, std::uint32_t cpu, sim::Nanos t,
                          std::uint32_t thread_id, double util) {
  transitions_.push_back(Transition{k, cpu, t, thread_id, util});
  telemetry::Telemetry* tel =
      kernel_ != nullptr ? kernel_->telemetry() : nullptr;
  if (tel != nullptr) {
    telemetry::EventKind ek = telemetry::EventKind::kCustom;
    switch (k) {
      case Transition::Kind::kStormEnter:
        ek = telemetry::EventKind::kStormEnter;
        break;
      case Transition::Kind::kStormExit:
        ek = telemetry::EventKind::kStormExit;
        break;
      case Transition::Kind::kDrain:
        ek = telemetry::EventKind::kDrain;
        break;
      case Transition::Kind::kShed:
        ek = telemetry::EventKind::kShed;
        break;
      case Transition::Kind::kRestore:
        ek = telemetry::EventKind::kRestore;
        break;
    }
    tel->on_event(cpu, t, ek, thread_id,
                  static_cast<std::int64_t>(util * 1e6));
  }
}

StormController::ShedRecord* StormController::find_record(const nk::Thread* t,
                                                          std::uint32_t id) {
  for (ShedRecord& r : sheds_) {
    if (r.thread == t && r.id == id) return &r;
  }
  return nullptr;
}

bool StormController::has_record(const nk::Thread* t) const {
  for (const ShedRecord& r : sheds_) {
    if (r.thread == t && r.id == t->id) return true;
  }
  return false;
}

void StormController::gc_records() {
  // A thread may exit (or be reaped and reused) while shed; its demoted
  // constraints die with it and the record is retired without a restore.
  sheds_.erase(std::remove_if(sheds_.begin(), sheds_.end(),
                              [](const ShedRecord& r) {
                                return r.thread->id != r.id ||
                                       thread_dead(r.thread);
                              }),
               sheds_.end());
}

void StormController::sample() {
  const sim::Nanos now = engine().now();
  ++stats_.samples;
  gc_records();
  auto& ledger = global_->ledger();
  for (std::uint32_t c = 0; c < cpus_.size(); ++c) {
    rt::LocalScheduler* ls = sched(c);
    if (ls == nullptr) continue;
    MissingTimeEstimator& est = ls->missing_time();
    est.advance(now);
    classify(c, est.windowed_max_fraction(), now);
    if (cfg_.degrade_capacity) {
      double eff = base_capacity_ - est.ewma_fraction() - cfg_.capacity_reserve;
      eff = std::clamp(eff, 0.0, base_capacity_);
      ledger.set_capacity(c, eff);
      if (auto* tel = kernel_->telemetry()) {
        tel->set_effective_capacity(c, eff);
      }
    }
    storm_flags_[c] = cpus_[c].storm ? 1 : 0;
  }
  for (std::uint32_t c = 0; c < cpus_.size(); ++c) {
    if (cpus_[c].storm) respond(c, now);
  }
  try_restores(now);
  audit(now);
  sample_event_ = engine().schedule_after(
      cfg_.sample_interval_ns, [this] { sample(); }, sim::EventBand::kObserver);
}

void StormController::classify(std::uint32_t cpu, double frac,
                               sim::Nanos now) {
  CpuState& cs = cpus_[cpu];
  if (!cs.storm) {
    cs.hot_streak = frac >= cfg_.storm_enter_fraction ? cs.hot_streak + 1 : 0;
    if (cs.hot_streak >= cfg_.storm_enter_samples) {
      cs.storm = true;
      cs.hot_streak = 0;
      cs.calm_streak = 0;
      ++stats_.storms_entered;
      log(Transition::Kind::kStormEnter, cpu, now, 0, frac);
    }
  } else {
    cs.calm_streak = frac <= cfg_.storm_exit_fraction ? cs.calm_streak + 1 : 0;
    if (cs.calm_streak >= cfg_.storm_exit_samples) {
      cs.storm = false;
      cs.hot_streak = 0;
      cs.calm_streak = 0;
      ++stats_.storms_exited;
      log(Transition::Kind::kStormExit, cpu, now, 0, frac);
    }
  }
}

void StormController::shed_thread(nk::Thread* t, std::uint32_t cpu,
                                  sim::Nanos now, double util) {
  sheds_.push_back(ShedRecord{t, t->id, cpu, t->constraints, util});
  log(Transition::Kind::kShed, cpu, now, t->id, util);
  ++stats_.sheds;
  const std::uint32_t id = t->id;
  sched(cpu)->defer_constraint_change(
      *t, rt::Constraints::aperiodic(rt::kIdlePriority),
      [this, id](nk::Thread* th, bool ok) {
        ShedRecord* r = find_record(th, id);
        if (r == nullptr) return;
        if (ok) {
          r->applied = true;
        } else {
          // Thread exited or moved before the pass; nothing was changed.
          sheds_.erase(sheds_.begin() + (r - sheds_.data()));
        }
      });
}

void StormController::respond(std::uint32_t cpu, sim::Nanos now) {
  auto& ledger = global_->ledger();
  double over = ledger.committed(cpu) - ledger.capacity(cpu);

  std::vector<nk::Thread*> periodics;
  std::vector<nk::Thread*> aperiodics;
  for (nk::Thread* t : kernel_->live_threads()) {
    if (t->cpu != cpu || t->is_idle || thread_dead(t)) continue;
    if (t->migrate_to != nk::kNoMigrateTarget) {
      // A drain already in flight: its utilization leaves at the next job
      // boundary, so it no longer counts toward the overload.
      over -= t->constraints.utilization();
      continue;
    }
    if (const ShedRecord* r = find_record(t, t->id)) {
      // Shed requested but not yet applied: the release is coming.
      if (!r->applied) over -= r->util;
      continue;
    }
    if (t->constraints.cls == rt::ConstraintClass::kPeriodic) {
      periodics.push_back(t);
    } else if (t->constraints.cls == rt::ConstraintClass::kAperiodic &&
               t->constraints.priority != rt::kIdlePriority) {
      aperiodics.push_back(t);
    }
  }
  if (over <= kEps) return;

  auto util_of = [](const nk::Thread* t) {
    return t->constraints.utilization();
  };

  // Drain first: job-boundary migrations to CPUs with headroom, largest
  // load first so the fewest threads move.  SMIs are machine-wide, so a
  // storm flag on the target is no veto by itself — what matters is spare
  // *degraded* capacity there (the ledger headroom is already computed
  // against the published effective capacity); rt_cpu_order still ranks any
  // quiet CPUs first.
  if (cfg_.drain) {
    std::sort(periodics.begin(), periodics.end(),
              [&](const nk::Thread* a, const nk::Thread* b) {
                if (util_of(a) != util_of(b)) return util_of(a) > util_of(b);
                return a->id < b->id;
              });
    for (auto it = periodics.begin();
         it != periodics.end() && over > kEps;) {
      nk::Thread* t = *it;
      if (!global_->rebalancer().movable(t)) {
        ++it;
        continue;
      }
      const double u = util_of(t);
      bool moved = false;
      for (std::uint32_t c : global_->engine().rt_cpu_order(u)) {
        if (c == cpu) continue;
        if (ledger.headroom(c) + kEps < u) continue;
        if (sched(cpu)->request_migration(*t, c)) {
          over -= u;
          log(Transition::Kind::kDrain, cpu, now, t->id, u);
          ++stats_.drains;
          moved = true;
          break;
        }
      }
      it = moved ? periodics.erase(it) : std::next(it);
    }
  }
  if (!cfg_.shed || over <= kEps) return;

  // Shedding: aperiodics stop contending for the shrunken slack first (they
  // hold no reservation, but every cycle they take is one the surviving RT
  // set may need), then the least-critical periodic reservations are demoted
  // until the committed load fits the degraded capacity.
  for (nk::Thread* t : aperiodics) {
    if (!global_->rebalancer().movable(t)) continue;
    shed_thread(t, cpu, now, 0.0);
  }
  std::sort(periodics.begin(), periodics.end(),
            [&](const nk::Thread* a, const nk::Thread* b) {
              if (a->constraints.priority != b->constraints.priority) {
                return a->constraints.priority > b->constraints.priority;
              }
              if (util_of(a) != util_of(b)) return util_of(a) > util_of(b);
              return a->id < b->id;
            });
  for (nk::Thread* t : periodics) {
    if (over <= kEps) break;
    if (!global_->rebalancer().movable(t)) continue;
    over -= util_of(t);
    shed_thread(t, cpu, now, util_of(t));
  }
}

void StormController::try_restores(sim::Nanos now) {
  (void)now;  // transitions stamp the apply time, not the request time
  if (sheds_.empty()) return;
  auto& ledger = global_->ledger();
  // Most critical first: restoration is the reverse of shed order.
  std::vector<std::size_t> order(sheds_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (sheds_[a].original.priority != sheds_[b].original.priority) {
      return sheds_[a].original.priority < sheds_[b].original.priority;
    }
    return sheds_[a].id < sheds_[b].id;
  });
  for (std::size_t i : order) {
    ShedRecord& r = sheds_[i];
    if (!r.applied || r.restoring) continue;
    nk::Thread* t = r.thread;
    if (t->id != r.id || thread_dead(t)) continue;  // next gc retires it
    // Hysteresis guard: restore only once both the shed CPU and the thread's
    // current home have left the storm state.
    if (in_storm(r.home_cpu) || in_storm(t->cpu)) continue;
    if (r.util > 0 && ledger.headroom(t->cpu) + kEps < r.util) {
      ++stats_.restore_retries;
      continue;
    }
    r.restoring = true;
    const std::uint32_t id = r.id;
    sched(t->cpu)->defer_constraint_change(
        *t, r.original, [this, id](nk::Thread* th, bool ok) {
          ShedRecord* rec = find_record(th, id);
          if (rec == nullptr) return;
          if (ok) {
            log(Transition::Kind::kRestore, th->cpu, engine().now(), th->id,
                rec->util);
            ++stats_.restores;
            sheds_.erase(sheds_.begin() + (rec - sheds_.data()));
          } else if (th->id == id && !thread_dead(th)) {
            // Re-admission failed (capacity still tight); stay shed and let
            // a later sample retry.
            rec->restoring = false;
            ++stats_.restore_retries;
          } else {
            sheds_.erase(sheds_.begin() + (rec - sheds_.data()));
          }
        });
  }
}

void StormController::audit(sim::Nanos now) {
  if (auditor_ == nullptr || !auditor_->enabled() || !cfg_.enabled) return;
  const audit::Config& acfg = auditor_->config();
  if (acfg.check_shed_state) {
    auditor_->count_check();
    for (const ShedRecord& r : sheds_) {
      if (!r.applied || r.restoring) continue;
      const nk::Thread* t = r.thread;
      if (t->id != r.id || thread_dead(t)) continue;  // gc territory
      if (t->constraints.cls != rt::ConstraintClass::kAperiodic ||
          t->constraints.priority != rt::kIdlePriority) {
        auditor_->record(audit::Invariant::kShedState, t->cpu, now,
                         "thread " + std::to_string(t->id) +
                             " has a live shed record but runs with class/" +
                             "priority inconsistent with the demotion");
      }
    }
  }
  if (acfg.check_effective_capacity && !cpus_.empty()) {
    auditor_->count_check();
    const auto& ledger = global_->ledger();
    for (std::uint32_t c = 0; c < cpus_.size(); ++c) {
      const double cap = ledger.capacity(c);
      if (cap > base_capacity_ + kCapacityAuditEps) {
        auditor_->record(audit::Invariant::kEffectiveCapacity, c, now,
                         "effective capacity " + std::to_string(cap) +
                             " exceeds the base capacity " +
                             std::to_string(base_capacity_));
      }
    }
  }
}

}  // namespace hrt::resilience
