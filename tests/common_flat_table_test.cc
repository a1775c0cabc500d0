// FlatTable, the open-addressing table behind every interning index, its
// u64 -> dense-id form KeyIndex, and the radix permutation the claim graph
// orders its provenance index with.
#include "common/flat_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "fusion/column_sort.h"

namespace kf {
namespace {

// Every key hashes to one bucket, so each probe walks the collision run
// and every growth re-slots a full cluster.
struct CollidingSlot {
  uint32_t key = 0;
  uint32_t value = 0xffffffffu;  // empty
  bool empty() const { return value == 0xffffffffu; }
  uint64_t hash() const { return 7; }
};

auto KeyIs(uint32_t key) {
  return [key](const CollidingSlot& slot) { return slot.key == key; };
}

TEST(FlatTableTest, CollidingKeysKeepTheirFirstValueAcrossGrowth) {
  FlatTable<CollidingSlot> table;
  EXPECT_EQ(table.Find(7, KeyIs(0)), nullptr);  // empty table
  for (uint32_t k = 0; k < 100; ++k) {
    EXPECT_EQ(table.Insert(CollidingSlot{k, k * 10}, KeyIs(k)).value, k * 10);
  }
  for (uint32_t k = 0; k < 100; ++k) {
    // A second insert of a key finds the resident entry.
    EXPECT_EQ(table.Insert(CollidingSlot{k, 1}, KeyIs(k)).value, k * 10);
    const CollidingSlot* slot = table.Find(7, KeyIs(k));
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(slot->value, k * 10);
  }
  EXPECT_EQ(table.size(), 100u);
  EXPECT_EQ(table.Find(7, KeyIs(100)), nullptr);
}

TEST(FlatTableTest, FindOnAnEmptyTableIsNull) {
  FlatTable<CollidingSlot> table;
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_EQ(table.Find(0, KeyIs(0)), nullptr);
  EXPECT_EQ(table.Find(~uint64_t{0}, KeyIs(0)), nullptr);
  // Allocated but holding nothing: still absent, and nothing was added.
  table.Reserve(10);
  EXPECT_EQ(table.Find(7, KeyIs(0)), nullptr);
  EXPECT_EQ(table.size(), 0u);
}

// A well-hashed u64 key and its id, as KeyIndex stores them.
struct IdSlot {
  uint64_t key = 0;
  uint32_t id = 0xffffffffu;  // empty
  bool empty() const { return id == 0xffffffffu; }
  uint64_t hash() const { return Mix64(key); }
};

uint64_t KeyOf(uint32_t id) { return Mix64(id) ^ (uint64_t{id} << 40); }

TEST(FlatTableTest, GrowthAcrossDoublingsKeepsEveryEntryUnderItsId) {
  FlatTable<IdSlot> table;
  constexpr uint32_t kKeys = 20000;
  size_t doublings = 0;
  for (uint32_t id = 0; id < kKeys; ++id) {
    const size_t capacity = table.capacity();
    const uint64_t key = KeyOf(id);
    ASSERT_EQ(table.Insert(IdSlot{key, id},
                           [key](const IdSlot& s) { return s.key == key; })
                  .id,
              id);
    if (table.capacity() == capacity) continue;
    // Right after each growth, every key inserted so far is re-slotted.
    if (capacity > 0) {
      ++doublings;
      EXPECT_EQ(table.capacity(), capacity * 2);
    }
    for (uint32_t old = 0; old <= id; ++old) {
      const uint64_t k = KeyOf(old);
      const IdSlot* slot =
          table.Find(Mix64(k), [k](const IdSlot& s) { return s.key == k; });
      ASSERT_NE(slot, nullptr) << old;
      ASSERT_EQ(slot->id, old);
    }
  }
  EXPECT_EQ(doublings, 12u);  // 16 slots -> 65536
  EXPECT_EQ(table.size(), kKeys);
  EXPECT_LE(table.size() * 2, table.capacity());
  // Colliding slots too: the long run is re-slotted in one piece.
  FlatTable<CollidingSlot> colliding;
  for (uint32_t k = 0; k < 1000; ++k) colliding.Insert({k, k}, KeyIs(k));
  EXPECT_EQ(colliding.capacity(), 2048u);
  for (uint32_t k = 0; k < 1000; ++k) {
    const CollidingSlot* slot = colliding.Find(7, KeyIs(k));
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(slot->value, k);
  }
}

TEST(FlatTableTest, ReserveNeverShrinksAndPresizingAvoidsGrowth) {
  FlatTable<CollidingSlot> table;
  table.Reserve(1000);
  const size_t capacity = table.capacity();
  EXPECT_GE(capacity, 2000u);
  // Reserving fewer entries, or none, keeps every slot.
  table.Reserve(0);
  table.Reserve(1);
  EXPECT_EQ(table.capacity(), capacity);
  // The reserved count fits without a growth.
  for (uint32_t k = 0; k < 1000; ++k) table.Insert({k, k}, KeyIs(k));
  EXPECT_EQ(table.capacity(), capacity);
  table.Reserve(10);
  EXPECT_EQ(table.capacity(), capacity);
  for (uint32_t k = 0; k < 1000; ++k) {
    ASSERT_NE(table.Find(7, KeyIs(k)), nullptr) << k;
  }
}

TEST(KeyIndexTest, InternAssignsFirstSeenIdsAndFindFindsThem) {
  KeyIndex index;
  EXPECT_EQ(index.Find(0), KeyIndex::kAbsent);  // empty index
  // Edge keys: 0, all ones, and pairs that differ only in one half.
  const uint64_t keys[] = {0,
                           ~uint64_t{0},
                           KeyIndex::Key(1, 2),
                           KeyIndex::Key(2, 1),
                           KeyIndex::Key(0xffffffffu, 0),
                           KeyIndex::Key(0, 0xffffffffu)};
  uint32_t next = 0;
  for (uint64_t key : keys) {
    ASSERT_EQ(index.Intern(key, next), next);
    ++next;
  }
  EXPECT_EQ(index.size(), next);
  for (uint32_t id = 0; id < next; ++id) {
    // A key seen before keeps its id, whatever `next` says now.
    EXPECT_EQ(index.Intern(keys[id], next), id);
    EXPECT_EQ(index.Find(keys[id]), id);
  }
  EXPECT_EQ(index.size(), next);
  EXPECT_EQ(index.Find(KeyIndex::Key(1, 1)), KeyIndex::kAbsent);
  EXPECT_EQ(KeyIndex::Key(1, 2), (uint64_t{1} << 32) | 2);
}

// ---- RadixSortPermutation ----

std::vector<uint32_t> RandomKeys(size_t n, uint64_t lo, uint64_t span,
                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> keys(n);
  for (uint32_t& k : keys) k = static_cast<uint32_t>(lo + rng.NextBelow(span));
  return keys;
}

TEST(RadixSortPermutationTest, EqualsStableSortPermutation) {
  const struct {
    const char* name;
    uint64_t lo;
    uint64_t span;
  } ranges[] = {
      {"few distinct keys", 0, 8},                      // one pass
      {"dense ids", 0, 5000},                           // two passes
      {"keys >= 2^22", (uint64_t{1} << 22) - 100, 1000},  // three passes
      {"keys >= 2^31", uint64_t{1} << 31, 2000},        // top digit set
      {"full u32 range", 0, uint64_t{1} << 32},
      {"one key", 0xfffffffeu, 1},
  };
  uint64_t seed = 1;
  for (const auto& range : ranges) {
    for (size_t n : {0, 1, 2, 1000, 100000}) {
      const std::vector<uint32_t> keys =
          RandomKeys(n, range.lo, range.span, seed++);
      std::vector<uint32_t> expected;
      fusion::StableSortPermutation(keys.data(), n, &expected);
      std::vector<uint32_t> perm = {42, 43};  // stale contents are replaced
      fusion::RadixSortPermutation(keys.data(), n, &perm);
      ASSERT_EQ(perm, expected) << range.name << ", n = " << n;
    }
  }
}

TEST(RadixSortPermutationTest, NarrowKeyTypesSortToo) {
  std::vector<uint8_t> bytes = {3, 1, 3, 0, 255, 1, 0};
  std::vector<uint32_t> expected;
  std::vector<uint32_t> perm;
  fusion::StableSortPermutation(bytes.data(), bytes.size(), &expected);
  fusion::RadixSortPermutation(bytes.data(), bytes.size(), &perm);
  EXPECT_EQ(perm, expected);
  EXPECT_EQ(perm, (std::vector<uint32_t>{3, 6, 1, 5, 0, 2, 4}));
}

}  // namespace
}  // namespace kf
