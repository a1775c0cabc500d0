// FlatTable: the open-addressing hash table behind every interning index
// (strings, values, the extraction dataset's items and triples) and the
// fused KB's (subject, predicate) -> item index. Slots are small
// trivially-copyable structs in one array: linear probing, a power-of-two
// capacity, at most half full, no per-entry allocation.
#ifndef KF_COMMON_FLAT_TABLE_H_
#define KF_COMMON_FLAT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

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

  /// Pre-sizes the table for `n` entries.
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

}  // namespace kf

#endif  // KF_COMMON_FLAT_TABLE_H_
