// Fixed-capacity binary heap, optionally with intrusive index tracking, and
// the FIFO the per-CPU schedulers keep their task and round-robin queues in.
//
// "The maximum number of threads in the whole system is determined at
// compile time, each local scheduler uses fixed size priority queues ...
// As a result, the time spent in a local scheduler invocation is bounded"
// (section 3.3).  Here the heap has a fixed capacity but allocates its
// storage on demand: push beyond capacity fails explicitly, and storage
// never grows past capacity.  The simulated pass bound does not depend on
// that storage; it comes from the machine's cost model (sched_pass_base +
// sched_pass_per_thread * n), so a booted 256-CPU System holds only the
// queue storage its threads have used.
//
// Index tracking: scheduler elements (threads) record which heap they sit in
// and at what position, via a HeapIndex field updated on every sift.  That
// turns remove() from an O(n) scan + re-sift into an O(log n) locate +
// re-sift — and, just as important on the hot path, into an O(1) *miss* when
// the element is in some other queue (detach_bookkeeping probes all four
// scheduler queues on every thread teardown).  An element can be tracked by
// at most one indexed heap at a time; the scheduler's queues are mutually
// exclusive states, so this invariant holds by construction.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace hrt::rt {

/// Embedded bookkeeping for elements tracked by an indexed BoundedHeap.
struct HeapIndex {
  void* owner = nullptr;  // the heap currently holding the element
  std::uint32_t pos = 0;  // position within that heap
};

/// Index policy for pointer-like elements exposing a `heap_index` member.
template <typename P>
struct MemberIndex {
  static HeapIndex& of(const P& p) { return p->heap_index; }
};

/// Index policy disabling tracking (remove() falls back to a linear scan).
struct NoIndex {};

/// Before(a, b) == true means a is dequeued before b.
template <typename T, typename Before, typename Index = NoIndex>
class BoundedHeap {
  static constexpr bool kIndexed = !std::is_same_v<Index, NoIndex>;

 public:
  explicit BoundedHeap(std::size_t capacity, Before before = Before())
      : capacity_(capacity), before_(std::move(before)) {}

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Returns false when full.  Storage doubles as needed, capped at
  /// capacity().  Reallocation is safe for indexed elements: HeapIndex holds
  /// a position, not a pointer into the storage.
  [[nodiscard]] bool push(T v) {
    if (heap_.size() >= capacity_) return false;
    if (heap_.size() == heap_.capacity()) {
      heap_.reserve(std::min(capacity_, std::max<std::size_t>(
                                            2 * heap_.size(), kMinStorage)));
    }
    heap_.push_back(std::move(v));
    reindex(heap_.size() - 1);
    sift_up(heap_.size() - 1);
    return true;
  }

  [[nodiscard]] const T& top() const {
    if (heap_.empty()) throw std::logic_error("BoundedHeap: top of empty");
    return heap_.front();
  }

  T pop() {
    if (heap_.empty()) throw std::logic_error("BoundedHeap: pop of empty");
    T out = std::move(heap_.front());
    unindex(out);
    fill_hole(0);
    return out;
  }

  /// True if this heap currently holds `v`.  O(1) when indexed.
  [[nodiscard]] bool contains(const T& v) const {
    if constexpr (kIndexed) {
      return Index::of(v).owner == this;
    } else {
      for (const T& e : heap_) {
        if (e == v) return true;
      }
      return false;
    }
  }

  /// Remove a specific element.  Returns false if absent.  O(log n) when
  /// indexed (O(1) when `v` is tracked by another heap or none); O(n) scan
  /// otherwise.
  bool remove(const T& v) {
    if constexpr (kIndexed) {
      const HeapIndex& hi = Index::of(v);
      if (hi.owner != this) return false;
      assert(hi.pos < heap_.size() && heap_[hi.pos] == v);
      remove_at(hi.pos);
      return true;
    } else {
      for (std::size_t i = 0; i < heap_.size(); ++i) {
        if (heap_[i] == v) {
          remove_at(i);
          return true;
        }
      }
      return false;
    }
  }

  /// Remove and return the first element satisfying pred (heap order scan),
  /// or std::nullopt if none matches.
  template <typename Pred>
  std::optional<T> extract_if(Pred pred) {
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      if (pred(heap_[i])) {
        T out = std::move(heap_[i]);
        unindex(out);
        fill_hole(i);
        return out;
      }
    }
    return std::nullopt;
  }

  template <typename Fn>
  void for_each(Fn fn) const {
    for (const T& v : heap_) fn(v);
  }

  void clear() {
    if constexpr (kIndexed) {
      for (T& v : heap_) unindex(v);
    }
    heap_.clear();
  }

  /// Structural audit: the heap order holds at every edge and, when indexed,
  /// every element's HeapIndex points back here at the right position.  O(n);
  /// meant for the invariant auditor, not the hot path.
  [[nodiscard]] bool validate(std::string* why = nullptr) const {
    for (std::size_t i = 1; i < heap_.size(); ++i) {
      const std::size_t parent = (i - 1) / 2;
      if (before_(heap_[i], heap_[parent])) {
        if (why != nullptr) {
          *why = "heap order violated at index " + std::to_string(i);
        }
        return false;
      }
    }
    if constexpr (kIndexed) {
      for (std::size_t i = 0; i < heap_.size(); ++i) {
        const HeapIndex& hi = Index::of(heap_[i]);
        if (hi.owner != this || hi.pos != i) {
          if (why != nullptr) {
            *why = "intrusive index mismatch at position " + std::to_string(i);
          }
          return false;
        }
      }
    }
    return true;
  }

 private:
  void reindex(std::size_t i) {
    if constexpr (kIndexed) {
      HeapIndex& hi = Index::of(heap_[i]);
      hi.owner = this;
      hi.pos = static_cast<std::uint32_t>(i);
    }
  }

  void unindex(const T& v) {
    if constexpr (kIndexed) {
      Index::of(v).owner = nullptr;
    }
  }

  void remove_at(std::size_t i) {
    unindex(heap_[i]);
    fill_hole(i);
  }

  /// Move the last element into hole `i` and restore heap order.
  void fill_hole(std::size_t i) {
    const std::size_t last = heap_.size() - 1;
    if (i != last) {
      heap_[i] = std::move(heap_[last]);
      heap_.pop_back();
      reindex(i);
      sift_down(i);
      sift_up(i);
    } else {
      heap_.pop_back();
    }
  }

  void swap_at(std::size_t i, std::size_t j) {
    using std::swap;
    swap(heap_[i], heap_[j]);
    reindex(i);
    reindex(j);
  }

  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before_(heap_[i], heap_[parent])) break;
      swap_at(i, parent);
      i = parent;
    }
  }

  void sift_down(std::size_t i) {
    for (;;) {
      const std::size_t l = 2 * i + 1;
      const std::size_t r = 2 * i + 2;
      std::size_t best = i;
      if (l < heap_.size() && before_(heap_[l], heap_[best])) best = l;
      if (r < heap_.size() && before_(heap_[r], heap_[best])) best = r;
      if (best == i) break;
      swap_at(i, best);
      i = best;
    }
  }

  static constexpr std::size_t kMinStorage = 8;  // first allocation, slots

  std::size_t capacity_;
  Before before_;
  std::vector<T> heap_;
};

/// FIFO queue over a vector and a head index.  Allocates nothing until the
/// first push (std::deque allocates on construction, even when empty).
/// Popped slots are reclaimed when the queue drains, or once they make up
/// half the storage, so they never outnumber the live elements and
/// pop_front() is amortized O(1).  Unbounded: callers enforce their own
/// limits (LocalScheduler::Config::max_tasks).
template <typename T>
class Fifo {
 public:
  using iterator = typename std::vector<T>::iterator;
  using const_iterator = typename std::vector<T>::const_iterator;

  [[nodiscard]] bool empty() const { return head_ == items_.size(); }
  [[nodiscard]] std::size_t size() const { return items_.size() - head_; }

  void push_back(T v) { items_.push_back(std::move(v)); }

  [[nodiscard]] T& front() {
    assert(!empty());
    return items_[head_];
  }

  void pop_front() {
    assert(!empty());
    ++head_;
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (2 * head_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  /// Remove the element at `it` (O(n)); returns the iterator after it.
  iterator erase(const_iterator it) { return items_.erase(it); }

  [[nodiscard]] iterator begin() {
    return items_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  [[nodiscard]] iterator end() { return items_.end(); }
  [[nodiscard]] const_iterator begin() const {
    return items_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  [[nodiscard]] const_iterator end() const { return items_.end(); }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;  // index of the front element
};

}  // namespace hrt::rt
