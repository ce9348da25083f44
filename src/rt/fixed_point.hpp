// Q32.32 fixed-point utilization and the lock-free admission word.
//
// The admission fast path (docs/API.md "Lock-free admission fast path")
// needs a per-CPU utilization accumulator that can be read and CAS-updated
// wait-free from any context, and whose rounding is *provably conservative*:
// a fast-path admit must imply the slow-path (double-arithmetic) admit, so
// the fast path may spuriously reject but never spuriously admit.  The
// sledge admissions-control idiom (one atomic fixed-point word) provides
// the shape; the rounding discipline here provides the safety argument:
//
//   * demand converts with from_double_ceil  (rounds UP, never understates)
//   * capacity converts with from_double_floor (rounds DOWN, never
//     overstates)
//
// so `sum(ceil(demand_i)) <= floor(capacity)` implies the exact real
// inequality `sum(demand_i) <= capacity`, which the slow path's
// compensated-summation test (rt/admission.hpp) accepts by construction.
//
// Each conversion introduces at most one ulp (2^-32 ~ 2.3e-10) of error,
// and integer accumulation is exact.  A release subtracts the same quantum
// its admit added, so a scheduler's committed word always equals the
// saturating sum of its live demands' ceil quanta — the exact equality the
// kUtilization audit invariant enforces (docs/AUDIT.md).  That word is the
// CPU's only committed-utilization state; the placement and cluster ledgers
// read it (global/ledger.hpp, cluster/ledger.hpp).
//
// The degenerate-constraint sentinel (rt::kDegenerateUtilization) and any
// other out-of-range demand saturate to the maximum raw value, which can
// never fit under a real capacity word, so degenerate specs are rejected by
// the fast path without a special case.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>

namespace hrt::rt::fp {

/// Raw Q32.32 value: 32 integer bits, 32 fraction bits.
using Raw = std::uint64_t;

inline constexpr std::uint32_t kFracBits = 32;
inline constexpr Raw kOne = Raw{1} << kFracBits;
inline constexpr Raw kMaxRaw = ~Raw{0};
/// One unit in the last place, as a double: the per-operation conversion
/// error bound (2^-32).
inline constexpr double kUlp = 1.0 / 4294967296.0;

/// Largest double that still converts without saturating (2^32).
inline constexpr double kSaturationThreshold = 4294967296.0;

/// Demand conversion: round UP so the fixed-point word never understates
/// real demand.  Non-positive and NaN inputs map to zero; anything at or
/// above 2^32 (including the degenerate-constraint sentinel) saturates.
[[nodiscard]] inline Raw from_double_ceil(double u) {
  if (!(u > 0.0)) return 0;  // also catches NaN
  if (u >= kSaturationThreshold) return kMaxRaw;
  const double scaled = std::ceil(std::ldexp(u, kFracBits));
  if (scaled >= 18446744073709551616.0) return kMaxRaw;  // 2^64
  return static_cast<Raw>(scaled);
}

/// Capacity conversion: round DOWN so the fixed-point word never overstates
/// real capacity.
[[nodiscard]] inline Raw from_double_floor(double u) {
  if (!(u > 0.0)) return 0;
  if (u >= kSaturationThreshold) return kMaxRaw;
  const double scaled = std::floor(std::ldexp(u, kFracBits));
  if (scaled >= 18446744073709551616.0) return kMaxRaw;
  return static_cast<Raw>(scaled);
}

[[nodiscard]] inline double to_double(Raw r) {
  return std::ldexp(static_cast<double>(r), -static_cast<int>(kFracBits));
}

/// Saturating add: the words accumulate demand, and overflow must fail
/// closed (saturate to "infinite demand", which can never fit), not wrap to
/// a small value that would spuriously admit.
[[nodiscard]] inline Raw sat_add(Raw a, Raw b) {
  const Raw s = a + b;
  return s < a ? kMaxRaw : s;
}

/// A lock-free admission word: one atomic Q32.32 utilization accumulator,
/// CAS admit/release in the sledge admissions-control style.
///
/// Memory ordering: mutations publish with release semantics and reads use
/// acquire, so a placement decision that observes a committed value also
/// observes every write the admitting CPU made before publishing it (the
/// satellite-3 ordering requirement; exercised by the TSan concurrency
/// tests).
class AdmissionWord {
 public:
  AdmissionWord() = default;

  // The word is a per-CPU singleton embedded in scheduler/ledger state;
  // copies would silently fork the accounting.
  AdmissionWord(const AdmissionWord&) = delete;
  AdmissionWord& operator=(const AdmissionWord&) = delete;

  /// Wait-free conditional admit: reserve `demand` iff the new total stays
  /// within `capacity`.  Returns false (and changes nothing) otherwise.
  bool try_admit(Raw demand, Raw capacity) {
    Raw cur = committed_.load(std::memory_order_acquire);
    for (;;) {
      const Raw next = sat_add(cur, demand);
      if (next > capacity) return false;
      if (committed_.compare_exchange_weak(cur, next,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
        return true;
      }
    }
  }

  /// Unconditional admit (publication of a decision the slow path already
  /// made): saturating, never drops demand.
  void add(Raw demand) {
    Raw cur = committed_.load(std::memory_order_acquire);
    while (!committed_.compare_exchange_weak(cur, sat_add(cur, demand),
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
    }
  }

  /// Release `demand`, clamped at zero (an over-release fails toward
  /// "more room", which the kUtilization audit then reports).
  void release(Raw demand) {
    Raw cur = committed_.load(std::memory_order_acquire);
    for (;;) {
      const Raw next = cur >= demand ? cur - demand : 0;
      if (committed_.compare_exchange_weak(cur, next,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
        return;
      }
    }
  }

  [[nodiscard]] Raw raw() const {
    return committed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] double value() const { return to_double(raw()); }

  void reset() { committed_.store(0, std::memory_order_release); }

 private:
  std::atomic<Raw> committed_{0};
};

}  // namespace hrt::rt::fp
