// Per-CPU utilization ledger: the global placement subsystem's read-only
// view of how much real-time utilization each local scheduler has committed.
//
// The view holds no committed state of its own.  Each per-CPU entry points
// at the owning scheduler's Q32.32 committed word
// (rt::LocalScheduler::fast_committed_word), bound once by System::boot
// after the kernel creates the schedulers, so placement reads exactly what
// admission decides against.  An unbound CPU (a non-RT scheduler, or a read
// before boot) reads as committing nothing.  The word is CAS-updated with
// release publication and read with acquire loads (rt/fixed_point.hpp), so
// PlacementEngine observes a coherent snapshot without locking even when
// the schedulers and the reader run on different host threads.
//
// The capacity word is the ledger's own: boot sizing writes it, and the
// resilience controller publishes degraded capacities into it.
//
// Reservations (two-phase group admission, migration holds) are deliberately
// *not* in the view: they are transient and already protect admission on
// the owning CPU; the ledger reflects only committed demand.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "rt/fixed_point.hpp"

namespace hrt::global {

class UtilizationLedger {
 public:
  /// `capacity` is the per-CPU utilization available to RT admission
  /// (utilization_limit minus the sporadic and aperiodic reservations).
  UtilizationLedger(std::uint32_t num_cpus, double capacity);

  /// Point `cpu`'s entry at the scheduler word that holds its committed
  /// utilization.  The word must outlive every read through this view.
  void bind(std::uint32_t cpu, const rt::fp::AdmissionWord* committed) {
    entries_[cpu].committed = committed;
  }

  [[nodiscard]] std::uint32_t num_cpus() const {
    return static_cast<std::uint32_t>(entries_.size());
  }
  [[nodiscard]] double committed(std::uint32_t cpu) const {
    return rt::fp::to_double(committed_raw(cpu));
  }
  [[nodiscard]] rt::fp::Raw committed_raw(std::uint32_t cpu) const {
    const rt::fp::AdmissionWord* w = entries_[cpu].committed;
    return w != nullptr ? w->raw() : 0;
  }
  [[nodiscard]] double capacity(std::uint32_t cpu) const {
    return rt::fp::to_double(capacity_raw(cpu));
  }
  [[nodiscard]] rt::fp::Raw capacity_raw(std::uint32_t cpu) const {
    return entries_[cpu].capacity.load(std::memory_order_acquire);
  }
  [[nodiscard]] double headroom(std::uint32_t cpu) const {
    const rt::fp::Raw cap = capacity_raw(cpu);
    const rt::fp::Raw com = committed_raw(cpu);
    return cap > com ? rt::fp::to_double(cap - com) : 0.0;
  }
  /// Capacity rounds DOWN (never overstate what a CPU can take); used by
  /// boot sizing and by the resilience controller's degraded publication.
  void set_capacity(std::uint32_t cpu, double cap) {
    entries_[cpu].capacity.store(rt::fp::from_double_floor(cap),
                                 std::memory_order_release);
  }

  [[nodiscard]] double total_committed() const;

 private:
  // One cache line per CPU: the resilience controller publishes one CPU's
  // capacity without invalidating the lines placement reads for its
  // neighbours.  (Packing the entries to 16 bytes also tipped glibc into
  // trimming the heap between telemetry-on Phi System constructions, which
  // bench/run_perf.sh's on_ctor_ms gate then times as page faults.)
  struct alignas(64) Entry {
    const rt::fp::AdmissionWord* committed = nullptr;
    std::atomic<rt::fp::Raw> capacity{0};
  };

  std::vector<Entry> entries_;
};

}  // namespace hrt::global
