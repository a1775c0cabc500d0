// FlatTable: the open-addressing hash table behind every interning index
// (strings, values, the extraction dataset's items and triples, the claim
// graph's provenances, claims and items) and the fused KB's (subject,
// predicate) -> item index. Slots are small trivially-copyable structs in
// one array: linear probing, a power-of-two capacity, at most half full,
// no per-entry allocation. KeyIndex is the FlatTable for u64 keys and
// dense u32 ids.
#ifndef KF_COMMON_FLAT_TABLE_H_
#define KF_COMMON_FLAT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hash.h"

namespace kf {

/// A set of `Slot`s keyed by whatever the caller's equality compares.
/// A Slot provides `bool empty() const` (a default-constructed Slot is
/// empty) and `uint64_t hash() const`; growth re-slots entries by hash()
/// alone, so a slot carries everything its hash needs. Entries are never
/// erased.
template <typename Slot>
class FlatTable {
 public:
  size_t size() const { return size_; }
  /// Slots allocated: 0, or a power of two at least twice size().
  size_t capacity() const { return slots_.size(); }

  /// Pre-sizes the table for `n` entries, so inserting that many never
  /// grows it. Never shrinks.
  void Reserve(size_t n) {
    size_t capacity = 16;
    while (capacity < n * 2) capacity *= 2;
    if (capacity <= slots_.size()) return;
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    const size_t mask = capacity - 1;
    for (const Slot& slot : old) {
      if (slot.empty()) continue;
      size_t i = slot.hash() & mask;
      while (!slots_[i].empty()) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  /// The entry `eq` accepts, searched from `hash`; nullptr when absent.
  template <typename Eq>
  const Slot* Find(uint64_t hash, Eq eq) const {
    if (slots_.empty()) return nullptr;
    const Slot& slot = slots_[Probe(hash, eq)];
    return slot.empty() ? nullptr : &slot;
  }

  /// The entry `eq` accepts, or `slot` (non-empty, with eq(slot) true)
  /// inserted when there is none.
  template <typename Eq>
  const Slot& Insert(const Slot& slot, Eq eq) {
    if ((size_ + 1) * 2 > slots_.size()) Reserve(size_ + 1);
    Slot& resident = slots_[Probe(slot.hash(), eq)];
    if (resident.empty()) {
      resident = slot;
      ++size_;
    }
    return resident;
  }

 private:
  /// The slot `eq` accepts, or the empty slot that ends the probe run.
  template <typename Eq>
  size_t Probe(uint64_t hash, Eq eq) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.empty() || eq(slot)) return i;
    }
  }

  std::vector<Slot> slots_;  // empty or a power of two
  size_t size_ = 0;
};

/// u64 key -> dense u32 id. Interning hands out whatever id the caller
/// passes as `next`, so passing the count of ids so far assigns 0, 1, 2...
/// in first-seen order. Two u32s (an item's subject and predicate, a
/// claim's provenance and triple) pack into one key with Key().
class KeyIndex {
 public:
  /// What Find returns for an absent key (kb::kInvalidId).
  static constexpr uint32_t kAbsent = 0xffffffffu;

  static uint64_t Key(uint32_t high, uint32_t low) {
    return (static_cast<uint64_t>(high) << 32) | low;
  }

  size_t size() const { return table_.size(); }
  /// Pre-sizes the index for `n` keys.
  void Reserve(size_t n) { table_.Reserve(n); }
  /// The id of `key`; `next` (not kAbsent) after inserting it when new.
  uint32_t Intern(uint64_t key, uint32_t next) {
    return table_.Insert(Slot::Of(key, next), Same{key}).id;
  }
  /// The id of `key`, or kAbsent.
  uint32_t Find(uint64_t key) const {
    const Slot* slot = table_.Find(Mix64(key), Same{key});
    return slot == nullptr ? kAbsent : slot->id;
  }

 private:
  // Three u32s rather than a u64 and a u32: 12 bytes a slot, not 16.
  struct Slot {
    uint32_t high = 0;
    uint32_t low = 0;
    uint32_t id = kAbsent;  // kAbsent: empty
    static Slot Of(uint64_t key, uint32_t id) {
      return Slot{static_cast<uint32_t>(key >> 32),
                  static_cast<uint32_t>(key), id};
    }
    uint64_t key() const { return Key(high, low); }
    bool empty() const { return id == kAbsent; }
    uint64_t hash() const { return Mix64(key()); }
  };
  struct Same {
    uint64_t key;
    bool operator()(const Slot& slot) const { return slot.key() == key; }
  };
  FlatTable<Slot> table_;
};

}  // namespace kf

#endif  // KF_COMMON_FLAT_TABLE_H_
