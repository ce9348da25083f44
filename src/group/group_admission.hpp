// Group admission control: Algorithm 1 of section 4.3, plus the phase
// correction of section 4.4.
//
// Every member of the group runs this protocol (the equivalent of calling
// nk_group_sched_change_constraints(group, constraints)):
//
//   conduct leader election
//   if leader: lock group; attach constraints
//   group barrier
//   conduct local admission control          (reserve; thread stays aperiodic)
//   group reduction over errors
//   if any failed: cancel reservation; barrier; leader unlocks; fail
//   group barrier -> my release order i
//   phase-correct my schedule: phi_i = phi + (n - i) * delta
//   leader unlocks
//   commit constraints (the thread becomes periodic/sporadic, first arrival
//   at Gamma_i + phi_i)
//
// Because release order i compensates the serialized barrier departure and
// Gamma_i tracks it, all members' first arrivals land at (nearly) the same
// wall-clock instant — after which the local schedulers keep them in
// lockstep with *no* further communication (section 4.1).
//
// The protocol is a sub-state-machine embedded in a host Behavior: call
// next() for the thread's next action until done().
#pragma once

#include <cstdint>
#include <functional>

#include "group/group.hpp"
#include "nautilus/behavior.hpp"
#include "rt/local_scheduler.hpp"

namespace hrt::grp {

class GroupChangeConstraints {
 public:
  /// Per-thread step timing (wall clock), for Figure 10.
  struct Timing {
    sim::Nanos start = -1;
    sim::Nanos join_done = -1;        // if the protocol performed the join
    sim::Nanos election_done = -1;
    sim::Nanos admission_done = -1;   // local admission + error reduction
    sim::Nanos barrier_done = -1;     // final barrier + phase correction
    sim::Nanos total_done = -1;
  };

  /// `constraints` must be periodic or sporadic; `join_first` makes the
  /// protocol begin with a group join (the benchmark measures that step
  /// separately).
  GroupChangeConstraints(ThreadGroup& group, rt::Constraints constraints,
                         bool join_first = false);

  /// Emit the next protocol action.  Call only while !done().
  [[nodiscard]] nk::Action next(nk::ThreadCtx& ctx);

  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] bool succeeded() const { return success_; }
  [[nodiscard]] int release_order() const { return release_order_; }
  [[nodiscard]] const Timing& timing() const { return timing_; }
  /// If true, the caller disabled phase correction (ablation / Figure 11's
  /// "phase correction disabled" configuration).
  void set_phase_correction(bool on) { phase_correction_ = on; }
  /// Hold `ticket` (GroupRegistry::hold_admitting) until the protocol
  /// finishes, successfully or not; a protocol destroyed unfinished gives it
  /// back on destruction.
  void hold(AdmissionTicket ticket) { ticket_ = std::move(ticket); }

 private:
  enum class Step : std::uint8_t {
    kJoin,
    kElect,
    kLeaderSetup,
    kBarrierA,       // three sub-steps each: arrive, wait, depart
    kReserve,
    kReduceErrors,
    kBarrierB,
    kCheckErrors,
    kCancel,         // failure path
    kBarrierFail,
    kFinalBarrier,
    kCommit,
    kDone,
  };

  [[nodiscard]] nk::Action barrier_step(GroupBarrier& b, Step next_step,
                                        bool record_order);

  ThreadGroup& group_;
  rt::Constraints constraints_;
  Step step_;
  int barrier_phase_ = 0;  // 0 arrive, 1 wait, 2 depart
  bool done_ = false;
  bool success_ = false;
  bool phase_correction_ = true;
  bool reserved_ok_ = false;
  int release_order_ = -1;
  Timing timing_;
  AdmissionTicket ticket_;
};

/// Convenience behavior: join + group admission, then delegate to an inner
/// behavior (the "application") which starts executing at the first
/// synchronized arrival.  On admission failure the thread exits.
class GroupAdmitThenBehavior final : public nk::Behavior {
 public:
  GroupAdmitThenBehavior(ThreadGroup& group, rt::Constraints constraints,
                         std::unique_ptr<nk::Behavior> inner,
                         bool join_first = true);

  nk::Action next(nk::ThreadCtx& ctx) override;

  [[nodiscard]] std::string describe() const override {
    return "group-admit";
  }
  [[nodiscard]] const GroupChangeConstraints& protocol() const {
    return protocol_;
  }
  [[nodiscard]] GroupChangeConstraints& protocol_mutable() {
    return protocol_;
  }

 private:
  GroupChangeConstraints protocol_;
  std::unique_ptr<nk::Behavior> inner_;
};

}  // namespace hrt::grp
