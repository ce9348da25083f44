// BoundedHeap: correctness against a reference model, capacity bounds,
// arbitrary removal, extract_if, growth of on-demand storage.  Fifo: order
// against a reference model across compaction.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include "rt/queues.hpp"
#include "sim/rng.hpp"

namespace hrt::rt {
namespace {

struct Less {
  bool operator()(int a, int b) const { return a < b; }
};

TEST(BoundedHeap, PopsInOrder) {
  BoundedHeap<int, Less> h(16);
  for (int v : {5, 1, 9, 3, 7}) EXPECT_TRUE(h.push(v));
  std::vector<int> out;
  while (!h.empty()) out.push_back(h.pop());
  EXPECT_EQ(out, (std::vector<int>{1, 3, 5, 7, 9}));
}

TEST(BoundedHeap, CapacityEnforced) {
  BoundedHeap<int, Less> h(3);
  EXPECT_TRUE(h.push(1));
  EXPECT_TRUE(h.push(2));
  EXPECT_TRUE(h.push(3));
  EXPECT_FALSE(h.push(4));
  EXPECT_EQ(h.size(), 3u);
}

TEST(BoundedHeap, TopDoesNotRemove) {
  BoundedHeap<int, Less> h(4);
  ASSERT_TRUE(h.push(2));
  ASSERT_TRUE(h.push(1));
  EXPECT_EQ(h.top(), 1);
  EXPECT_EQ(h.size(), 2u);
}

TEST(BoundedHeap, EmptyAccessThrows) {
  BoundedHeap<int, Less> h(4);
  EXPECT_THROW((void)h.top(), std::logic_error);
  EXPECT_THROW(h.pop(), std::logic_error);
}

TEST(BoundedHeap, RemoveArbitraryElement) {
  BoundedHeap<int, Less> h(8);
  for (int v : {4, 2, 6, 1, 5}) ASSERT_TRUE(h.push(v));
  EXPECT_TRUE(h.remove(6));
  EXPECT_FALSE(h.remove(42));
  std::vector<int> out;
  while (!h.empty()) out.push_back(h.pop());
  EXPECT_EQ(out, (std::vector<int>{1, 2, 4, 5}));
}

TEST(BoundedHeap, ExtractIfFindsMatchingElement) {
  BoundedHeap<int, Less> h(8);
  for (int v : {3, 8, 5, 12}) ASSERT_TRUE(h.push(v));
  const std::optional<int> got = h.extract_if([](int v) { return v > 6; });
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(*got == 8 || *got == 12);
  EXPECT_EQ(h.size(), 3u);
  EXPECT_EQ(h.extract_if([](int v) { return v > 100; }), std::nullopt);
}

TEST(BoundedHeap, ExtractIfDistinguishesMatchedDefaultFromMiss) {
  // A matched default-constructed value used to be indistinguishable from
  // "nothing matched"; std::optional separates the two.
  BoundedHeap<int, Less> h(8);
  ASSERT_TRUE(h.push(0));
  const std::optional<int> got = h.extract_if([](int v) { return v == 0; });
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 0);
  EXPECT_EQ(h.extract_if([](int v) { return v == 0; }), std::nullopt);
}

TEST(BoundedHeap, ForEachVisitsAll) {
  BoundedHeap<int, Less> h(8);
  for (int v : {3, 8, 5}) ASSERT_TRUE(h.push(v));
  int sum = 0;
  h.for_each([&sum](int v) { sum += v; });
  EXPECT_EQ(sum, 16);
}

class HeapRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeapRandomSweep, MatchesReferenceModel) {
  BoundedHeap<int, Less> h(64);
  std::vector<int> model;
  sim::Rng rng(GetParam());
  for (int step = 0; step < 3000; ++step) {
    const double p = rng.next_double();
    if (p < 0.5 && model.size() < 64) {
      const int v = static_cast<int>(rng.uniform(0, 1000));
      ASSERT_TRUE(h.push(v));
      model.push_back(v);
    } else if (p < 0.8 && !model.empty()) {
      const int got = h.pop();
      auto it = std::min_element(model.begin(), model.end());
      ASSERT_EQ(got, *it);
      model.erase(it);
    } else if (!model.empty()) {
      const auto idx =
          static_cast<std::size_t>(rng.uniform(0, model.size() - 1));
      ASSERT_TRUE(h.remove(model[idx]));
      model.erase(model.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    ASSERT_EQ(h.size(), model.size());
    if (!model.empty()) {
      ASSERT_EQ(h.top(), *std::min_element(model.begin(), model.end()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapRandomSweep,
                         ::testing::Values(1, 7, 13, 21, 42, 1001));

// ---------- Intrusive index tracking ----------

struct Item {
  int key = 0;
  HeapIndex heap_index;
};

struct ItemBefore {
  bool operator()(const Item* a, const Item* b) const {
    return a->key < b->key;
  }
};

using IndexedHeap = BoundedHeap<Item*, ItemBefore, MemberIndex<Item*>>;

TEST(IndexedHeap, RemoveIsExactAndMissesAreCheap) {
  std::vector<Item> items(8);
  for (int i = 0; i < 8; ++i) items[static_cast<std::size_t>(i)].key = i;
  IndexedHeap h(8);
  for (auto& it : items) ASSERT_TRUE(h.push(&it));

  EXPECT_TRUE(h.contains(&items[3]));
  EXPECT_TRUE(h.remove(&items[3]));
  EXPECT_FALSE(h.contains(&items[3]));
  EXPECT_FALSE(h.remove(&items[3]));  // already gone: O(1) miss
  EXPECT_EQ(items[3].heap_index.owner, nullptr);

  std::vector<int> out;
  while (!h.empty()) out.push_back(h.pop()->key);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 4, 5, 6, 7}));
  for (const auto& it : items) {
    EXPECT_EQ(it.heap_index.owner, nullptr);
  }
}

TEST(IndexedHeap, RemoveFromOtherHeapIsRejected) {
  Item a{1, {}};
  Item b{2, {}};
  IndexedHeap h1(4);
  IndexedHeap h2(4);
  ASSERT_TRUE(h1.push(&a));
  ASSERT_TRUE(h2.push(&b));
  // b lives in h2: h1 must refuse without touching it.
  EXPECT_FALSE(h1.remove(&b));
  EXPECT_TRUE(h2.contains(&b));
  EXPECT_TRUE(h2.remove(&b));
  EXPECT_TRUE(h1.remove(&a));
}

TEST(IndexedHeap, ExtractIfClearsIndex) {
  Item a{5, {}};
  IndexedHeap h(4);
  ASSERT_TRUE(h.push(&a));
  const auto got = h.extract_if([](const Item* i) { return i->key == 5; });
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, &a);
  EXPECT_EQ(a.heap_index.owner, nullptr);
  EXPECT_EQ(h.extract_if([](const Item*) { return true; }), std::nullopt);
}

// push() at capacity must fail and leave the contents, their positions and
// every index untouched.
void expect_full_push_rejected(IndexedHeap& h, Item* extra) {
  ASSERT_EQ(h.size(), h.capacity());
  std::vector<const Item*> before;
  h.for_each([&before](const Item* it) { before.push_back(it); });
  EXPECT_FALSE(h.push(extra));
  std::vector<const Item*> after;
  h.for_each([&after](const Item* it) { after.push_back(it); });
  EXPECT_EQ(after, before);
  EXPECT_EQ(extra->heap_index.owner, nullptr);
  EXPECT_FALSE(h.contains(extra));
  std::string why;
  EXPECT_TRUE(h.validate(&why)) << why;
}

TEST(IndexedHeap, GrowthKeepsIndexValidAndCapacityExact) {
  // 100 is not a power of two, so doubling storage would overshoot it.
  constexpr std::size_t kCap = 100;
  std::vector<Item> items(kCap + 1);
  for (std::size_t i = 0; i < items.size(); ++i) {
    // Descending keys: every push sifts to the root, moving indexed
    // elements while the storage grows through several reallocations.
    items[i].key = static_cast<int>(items.size() - i);
  }
  Item& extra = items[kCap];
  IndexedHeap h(kCap);
  std::string why;
  for (std::size_t i = 0; i < kCap; ++i) {
    ASSERT_TRUE(h.push(&items[i]));
    ASSERT_TRUE(h.validate(&why)) << "after push " << i << ": " << why;
  }
  EXPECT_EQ(h.top(), &items[kCap - 1]);
  expect_full_push_rejected(h, &extra);

  for (std::size_t i : {0u, 37u, 63u, 99u}) {
    EXPECT_TRUE(h.contains(&items[i]));
    EXPECT_TRUE(h.remove(&items[i]));
    EXPECT_FALSE(h.contains(&items[i]));
    EXPECT_FALSE(h.remove(&items[i]));
    ASSERT_TRUE(h.validate(&why)) << why;
  }
  EXPECT_EQ(h.size(), kCap - 4);

  // Refill after clear(), in ascending order this time.
  h.clear();
  for (const Item& it : items) EXPECT_EQ(it.heap_index.owner, nullptr);
  for (std::size_t i = kCap; i-- > 0;) ASSERT_TRUE(h.push(&items[i]));
  ASSERT_TRUE(h.validate(&why)) << why;
  expect_full_push_rejected(h, &extra);
  std::vector<int> out;
  while (!h.empty()) out.push_back(h.pop()->key);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(out.size(), kCap);
}

class IndexedHeapSweep : public ::testing::TestWithParam<std::uint64_t> {};

// Property test: heap order, capacity, and index integrity (owner + position
// agree with the heap's actual contents) under random push/pop/remove/
// extract_if, with elements migrating between two heaps.
TEST_P(IndexedHeapSweep, InvariantsUnderRandomOps) {
  constexpr std::size_t kCap = 48;
  std::vector<Item> arena(128);
  for (std::size_t i = 0; i < arena.size(); ++i) {
    arena[i].key = static_cast<int>(i % 31);
  }
  IndexedHeap heaps[2] = {IndexedHeap(kCap), IndexedHeap(kCap)};
  std::vector<Item*> model[2];
  std::vector<Item*> free_items;
  for (auto& it : arena) free_items.push_back(&it);
  sim::Rng rng(GetParam());

  auto check_invariants = [&](int side) {
    ASSERT_EQ(heaps[side].size(), model[side].size());
    ASSERT_LE(heaps[side].size(), kCap);
    if (!model[side].empty()) {
      Item* best = *std::min_element(model[side].begin(), model[side].end(),
                                     ItemBefore());
      ASSERT_EQ(heaps[side].top()->key, best->key);
    }
    std::size_t visited = 0;
    heaps[side].for_each([&](const Item* it) {
      ++visited;
      ASSERT_EQ(it->heap_index.owner, &heaps[side]);
    });
    ASSERT_EQ(visited, model[side].size());
  };

  for (int step = 0; step < 4000; ++step) {
    const int side = static_cast<int>(rng.uniform(0, 1));
    const double p = rng.next_double();
    if (p < 0.40 && !free_items.empty()) {
      const auto i = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(free_items.size()) - 1));
      Item* it = free_items[i];
      const bool pushed = heaps[side].push(it);
      ASSERT_EQ(pushed, model[side].size() < kCap);
      if (pushed) {
        model[side].push_back(it);
        free_items.erase(free_items.begin() +
                         static_cast<std::ptrdiff_t>(i));
      }
    } else if (p < 0.65 && !model[side].empty()) {
      Item* got = heaps[side].pop();
      auto it = std::min_element(model[side].begin(), model[side].end(),
                                 ItemBefore());
      ASSERT_EQ(got->key, (*it)->key);
      // Equal keys are interchangeable for ordering; drop the exact pointer
      // the heap returned.
      auto exact = std::find(model[side].begin(), model[side].end(), got);
      ASSERT_NE(exact, model[side].end());
      model[side].erase(exact);
      free_items.push_back(got);
      ASSERT_EQ(got->heap_index.owner, nullptr);
    } else if (p < 0.85 && !model[side].empty()) {
      const auto i = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(model[side].size()) - 1));
      Item* it = model[side][i];
      ASSERT_TRUE(heaps[side].remove(it));
      ASSERT_FALSE(heaps[side].remove(it));
      ASSERT_EQ(it->heap_index.owner, nullptr);
      model[side].erase(model[side].begin() + static_cast<std::ptrdiff_t>(i));
      free_items.push_back(it);
    } else if (!model[side].empty()) {
      const int want = static_cast<int>(rng.uniform(0, 30));
      const auto got = heaps[side].extract_if(
          [want](const Item* it) { return it->key == want; });
      auto it = std::find_if(model[side].begin(), model[side].end(),
                             [want](Item* m) { return m->key == want; });
      if (it == model[side].end()) {
        ASSERT_EQ(got, std::nullopt);
      } else {
        ASSERT_TRUE(got.has_value());
        ASSERT_EQ((*got)->key, want);
        auto exact = std::find(model[side].begin(), model[side].end(), *got);
        ASSERT_NE(exact, model[side].end());
        model[side].erase(exact);
        free_items.push_back(*got);
      }
    }
    check_invariants(0);
    check_invariants(1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexedHeapSweep,
                         ::testing::Values(3, 17, 29, 77, 424242));

// ---------- Fifo ----------

TEST(Fifo, OrderSurvivesCompaction) {
  Fifo<int> q;
  EXPECT_TRUE(q.empty());
  for (int v = 1; v <= 4; ++v) q.push_back(v);
  q.pop_front();
  q.pop_front();  // half the storage is popped: compacts
  q.push_back(5);
  q.pop_front();  // 3
  q.push_back(6);
  EXPECT_EQ(std::vector<int>(q.begin(), q.end()), (std::vector<int>{4, 5, 6}));
  EXPECT_EQ(q.front(), 4);
  EXPECT_EQ(q.size(), 3u);
  while (!q.empty()) q.pop_front();  // drained: storage resets
  q.push_back(7);
  EXPECT_EQ(q.front(), 7);
  EXPECT_EQ(q.size(), 1u);
}

class FifoSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FifoSweep, MatchesReferenceModel) {
  Fifo<int> q;
  std::deque<int> model;
  sim::Rng rng(GetParam());
  int next = 0;
  for (int step = 0; step < 5000; ++step) {
    // Drift between growing and draining phases so the queue both compacts
    // with live elements and drains to empty.
    const double push_p = (step / 500) % 2 == 0 ? 0.6 : 0.35;
    const double p = rng.next_double();
    if (p < push_p) {
      q.push_back(next);
      model.push_back(next);
      ++next;
    } else if (p < 0.95 && !model.empty()) {
      ASSERT_EQ(q.front(), model.front());
      q.pop_front();
      model.pop_front();
    } else if (!model.empty()) {
      const auto i = static_cast<std::ptrdiff_t>(
          rng.uniform(0, static_cast<std::int64_t>(model.size()) - 1));
      const auto it = q.erase(q.begin() + i);
      const auto mit = model.erase(model.begin() + i);
      ASSERT_EQ(it == q.end(), mit == model.end());
      if (mit != model.end()) {
        ASSERT_EQ(*it, *mit);
      }
    }
    ASSERT_EQ(q.size(), model.size());
    ASSERT_EQ(q.empty(), model.empty());
    if (!model.empty()) {
      ASSERT_EQ(q.front(), model.front());
    }
  }
  EXPECT_TRUE(std::equal(q.begin(), q.end(), model.begin(), model.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FifoSweep, ::testing::Values(2, 11, 90210));

}  // namespace
}  // namespace hrt::rt
