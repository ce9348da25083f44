// One hardware thread ("CPU" in the paper's terminology, section 3).
//
// The Cpu models the interrupt acceptance rules the scheduler relies on:
//   * an interrupt-enable flag (cleared for the duration of a handler),
//   * the APIC task priority register (TPR) used for interrupt steering
//     away from hard real-time threads (section 3.5),
//   * the SMI freeze state, during which nothing is delivered and no
//     software runs, but timers and the TSC keep advancing (section 3.6).
//
// Vectors that cannot be delivered immediately are latched pending and
// delivered, highest priority class first, as soon as the blocking condition
// clears, unless software retracts the latch first (retract()).  Actual
// handler timing/behavior belongs to the kernel layer, which installs the
// deliver hook.
#pragma once

#include <bitset>
#include <cstdint>
#include <functional>
#include <memory>

#include "hw/apic.hpp"
#include "hw/interrupts.hpp"
#include "hw/machine_spec.hpp"
#include "hw/tsc.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace hrt::hw {

class Cpu {
 public:
  Cpu(std::uint32_t id, const MachineSpec& spec, sim::Engine& engine,
      sim::Nanos tsc_offset_ns, sim::Rng rng)
      : id_(id),
        engine_(engine),
        rng_(rng),
        tsc_(engine, spec.freq, tsc_offset_ns),
        apic_(std::make_unique<Apic>(engine, spec.timer, spec.freq,
                                     [this](Vector v) { raise(v); })) {}

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] Tsc& tsc() { return tsc_; }
  [[nodiscard]] const Tsc& tsc() const { return tsc_; }
  [[nodiscard]] Apic& apic() { return *apic_; }
  [[nodiscard]] sim::Rng& rng() { return rng_; }

  /// Kernel installs this; invoked exactly when a vector is accepted.
  /// The hook conventionally clears the interrupt flag first thing
  /// (handler entry), preventing nested delivery.
  void set_deliver_hook(std::function<void(Vector)> hook) {
    deliver_ = std::move(hook);
  }

  /// Assert an interrupt at this CPU.  Delivered immediately if acceptable,
  /// otherwise latched pending.
  void raise(Vector v) {
    pending_.set(v);
    try_deliver();
  }

  void set_interrupts_enabled(bool on) {
    interrupts_enabled_ = on;
    if (on) try_deliver();
  }
  [[nodiscard]] bool interrupts_enabled() const { return interrupts_enabled_; }

  void set_tpr(std::uint8_t tpr) {
    tpr_ = tpr;
    try_deliver();
  }
  [[nodiscard]] std::uint8_t tpr() const { return tpr_; }

  void freeze() { frozen_ = true; }
  void unfreeze() {
    frozen_ = false;
    try_deliver();
  }
  [[nodiscard]] bool frozen() const { return frozen_; }

  [[nodiscard]] bool has_pending() const { return pending_.any(); }
  [[nodiscard]] bool is_pending(Vector v) const { return pending_.test(v); }

  /// Drop a latched, not yet delivered vector (no-op when none is latched).
  /// Software acknowledges an interrupt it has already serviced this way:
  /// the local scheduler retracts a superseded one-shot fire when it
  /// re-arms the timer (DESIGN.md section 2).
  void retract(Vector v) { pending_.reset(v); }

 private:
  void try_deliver() {
    // Deliver highest-priority acceptable vectors until blocked.  The hook
    // normally disables interrupts on entry, so at most one delivery happens
    // per call in practice.
    while (!frozen_ && interrupts_enabled_ && pending_.any()) {
      int found = -1;
      for (int v = 255; v >= 0; --v) {
        if (pending_.test(static_cast<std::size_t>(v)) &&
            priority_class(static_cast<Vector>(v)) > tpr_) {
          found = v;
          break;
        }
      }
      if (found < 0) return;
      pending_.reset(static_cast<std::size_t>(found));
      if (deliver_) {
        deliver_(static_cast<Vector>(found));
      }
    }
  }

  std::uint32_t id_;
  sim::Engine& engine_;
  sim::Rng rng_;
  Tsc tsc_;
  std::unique_ptr<Apic> apic_;
  std::function<void(Vector)> deliver_;
  std::bitset<256> pending_;
  bool interrupts_enabled_ = true;
  bool frozen_ = false;
  std::uint8_t tpr_ = kTprOpen;
};

}  // namespace hrt::hw
