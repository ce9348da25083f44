// Lock-free SPSC flight-recorder ring (docs/OBSERVABILITY.md).
//
// One ring per CPU, one writer (the code instrumented on that CPU), any
// number of snapshot readers.  The ring never blocks the writer: when full
// it overwrites the oldest slot (drop-oldest, the flight-recorder policy —
// the most recent history is the valuable part).  Each slot carries a
// per-slot sequence tag in the seqlock style: odd while a write is in
// flight, even (2 * (logical_index + 1)) once committed.  A reader copies
// the slot and re-checks the tag; a concurrent overwrite of that slot shows
// up as a tag change and the torn copy is discarded rather than returned.
// The payload is three relaxed atomic words, ordered by a release fence
// after the odd-tag store (writer) and an acquire fence before the tag
// re-check (reader), so the protocol is race-free under the C++ memory
// model, not merely on x86.
//
// Slot storage is plain, uninitialized 64-bit words (tag, then the three
// record words: 32 B per slot), accessed only through std::atomic_ref.
// Nothing is zero-filled, so building a ring is O(1) and its pages stay
// virtual until the first lap of pushes touches them.  This is sound
// because snapshot() reads only logical indices in [first_retained, head),
// and a push has fully written every one of those slots.
//
// Inside the simulator all CPUs of one System run on a single host thread,
// so writer and reader never actually race there; the real atomics matter
// for the cross-thread stress test (tests/test_telemetry.cpp) and keep the
// design honest for a native port.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "telemetry/record.hpp"

namespace hrt::telemetry {

/// Ring capacity actually used for a requested one: the next power of two,
/// minimum 8.  Shared by SpscRing and FlightRecorder::ring_capacity().
[[nodiscard]] constexpr std::size_t round_ring_capacity(std::size_t requested) {
  std::size_t cap = 8;
  while (cap < requested) cap <<= 1;
  return cap;
}

class SpscRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 8).
  explicit SpscRing(std::size_t capacity)
      : capacity_(round_ring_capacity(capacity)),
        mask_(capacity_ - 1),
        words_(std::make_unique_for_overwrite<std::uint64_t[]>(
            capacity_ * kSlotWords)) {}

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Writer side.  Always succeeds; a full ring drops its oldest record.
  void push(const Record& r) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    std::uint64_t* s = slot(h);
    const Words w = pack(r, static_cast<std::uint8_t>(h / capacity_));
    // Odd tag: write in flight.  Readers that see it skip the slot.  The
    // fence keeps the payload stores below from becoming visible before it.
    Word(s[0]).store(2 * h + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    Word(s[1]).store(w[0], std::memory_order_relaxed);
    Word(s[2]).store(w[1], std::memory_order_relaxed);
    Word(s[3]).store(w[2], std::memory_order_relaxed);
    // Even tag encodes the logical index, so a reader can verify the copy
    // belongs to the generation it expected (wraparound detection).
    Word(s[0]).store(2 * (h + 1), std::memory_order_release);
    head_.store(h + 1, std::memory_order_release);
  }

  /// Total records ever pushed.
  [[nodiscard]] std::uint64_t written() const {
    return head_.load(std::memory_order_acquire);
  }

  /// Records overwritten by wraparound (drop-oldest).
  [[nodiscard]] std::uint64_t dropped() const {
    const std::uint64_t h = written();
    return h > capacity_ ? h - capacity_ : 0;
  }

  /// Oldest logical index still retained.
  [[nodiscard]] std::uint64_t first_retained() const {
    const std::uint64_t h = written();
    return h > capacity_ ? h - capacity_ : 0;
  }

  /// Copy out the retained window, oldest first.  Slots overwritten (or
  /// mid-write) during the copy are skipped; `torn` (optional) counts them.
  [[nodiscard]] std::vector<Record> snapshot(
      std::uint64_t* torn = nullptr) const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t lo = h > capacity_ ? h - capacity_ : 0;
    std::vector<Record> out;
    out.reserve(static_cast<std::size_t>(h - lo));
    std::uint64_t skipped = 0;
    for (std::uint64_t i = lo; i < h; ++i) {
      std::uint64_t* s = slot(i);
      const std::uint64_t before = Word(s[0]).load(std::memory_order_acquire);
      const Words w = {Word(s[1]).load(std::memory_order_relaxed),
                       Word(s[2]).load(std::memory_order_relaxed),
                       Word(s[3]).load(std::memory_order_relaxed)};
      // Orders the payload loads above before the tag re-check below.
      std::atomic_thread_fence(std::memory_order_acquire);
      const std::uint64_t after = Word(s[0]).load(std::memory_order_relaxed);
      if (before == after && before == 2 * (i + 1)) {
        out.push_back(unpack(w));
      } else {
        ++skipped;  // overwritten or being written while we copied
      }
    }
    if (torn != nullptr) *torn = skipped;
    return out;
  }

 private:
  // A Record as three 64-bit words: time, arg, then tid | cpu | kind | gen.
  // Packed with shifts rather than memcpy, so the writer's narrow fields
  // never reach the slot through a store-forwarding stall.
  static constexpr std::size_t kWords = sizeof(Record) / sizeof(std::uint64_t);
  using Words = std::array<std::uint64_t, kWords>;

  static Words pack(const Record& r, std::uint8_t gen) noexcept {
    return {static_cast<std::uint64_t>(r.time),
            static_cast<std::uint64_t>(r.arg),
            std::uint64_t{r.tid} | std::uint64_t{r.cpu} << 32 |
                std::uint64_t{static_cast<std::uint8_t>(r.kind)} << 48 |
                std::uint64_t{gen} << 56};
  }

  static Record unpack(const Words& w) noexcept {
    Record r;
    r.time = static_cast<sim::Nanos>(w[0]);
    r.arg = static_cast<std::int64_t>(w[1]);
    r.tid = static_cast<std::uint32_t>(w[2]);
    r.cpu = static_cast<std::uint16_t>(w[2] >> 32);
    r.kind = static_cast<EventKind>(static_cast<std::uint8_t>(w[2] >> 48));
    r.gen = static_cast<std::uint8_t>(w[2] >> 56);
    return r;
  }

  // A slot is its seqlock tag followed by the record's words.
  static constexpr std::size_t kSlotWords = 1 + kWords;
  using Word = std::atomic_ref<std::uint64_t>;
  static_assert(Word::is_always_lock_free &&
                Word::required_alignment <= alignof(std::uint64_t));

  // Non-const even for readers: C++20 std::atomic_ref needs a mutable
  // referent, loads included.
  std::uint64_t* slot(std::uint64_t logical) const noexcept {
    return &words_[(logical & mask_) * kSlotWords];
  }

  std::size_t capacity_;
  std::uint64_t mask_;
  std::unique_ptr<std::uint64_t[]> words_;  // capacity_ * kSlotWords words
  std::atomic<std::uint64_t> head_{0};
};

}  // namespace hrt::telemetry
