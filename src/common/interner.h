// String interning: maps strings to dense uint32 ids and back. The fusion
// pipeline works exclusively on interned ids; strings only appear at the
// boundaries (corpus generation, reporting).
//
// Both types here keep their strings in one arena: the bytes back to back
// plus u32 offsets[size + 1] — the kf::store kStrings layout, so a table
// serializes and loads with two bulk copies and is freed without a single
// per-string free.
#ifndef KF_COMMON_INTERNER_H_
#define KF_COMMON_INTERNER_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "common/flat_table.h"
#include "common/logging.h"

namespace kf {

/// An append-only list of strings (duplicates allowed), indexed by
/// position. Get() views stay valid until the next Append/Assign and
/// across moves of the arena.
class StringArena {
 public:
  StringArena() = default;
  // Non-copyable like the interner; the defaulted moves hand the heap
  // buffers over, which is what keeps views valid across a move. (A
  // std::string arena would carry short contents in its inline buffer.)
  StringArena(const StringArena&) = delete;
  StringArena& operator=(const StringArena&) = delete;
  StringArena(StringArena&&) = default;
  StringArena& operator=(StringArena&&) = default;

  /// Appends `s` and returns its index. `s` must not view this arena.
  uint32_t Append(std::string_view s) {
    if (offsets_.empty()) offsets_.push_back(0);
    const uint32_t index = static_cast<uint32_t>(offsets_.size() - 1);
    bytes_.insert(bytes_.end(), s.begin(), s.end());
    // The u32 offsets cap one arena at 4 GiB of bytes.
    KF_CHECK(bytes_.size() <= 0xffffffffull);
    offsets_.push_back(static_cast<uint32_t>(bytes_.size()));
    return index;
  }

  std::string_view Get(uint32_t i) const {
    KF_DCHECK(i < size());
    return std::string_view(bytes_.data() + offsets_[i],
                            offsets_[i + 1] - offsets_[i]);
  }

  size_t size() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }

  /// Replaces the contents with the kStrings image `offsets[0..n]`
  /// (starting at 0, non-decreasing, offsets[n] <= bytes.size()).
  void Assign(const uint32_t* offsets, size_t n, std::string_view bytes) {
    KF_DCHECK(offsets[0] == 0 && offsets[n] <= bytes.size());
    offsets_.assign(offsets, offsets + n + 1);
    bytes_.assign(bytes.data(), bytes.data() + offsets[n]);
  }

  /// The kStrings layout: size() + 1 offsets (empty when size() is 0)
  /// into bytes().
  const std::vector<uint32_t>& offsets() const { return offsets_; }
  std::string_view bytes() const {
    return std::string_view(bytes_.data(), bytes_.size());
  }

 private:
  std::vector<char> bytes_;
  /// Empty, or size() + 1 entries starting at 0.
  std::vector<uint32_t> offsets_;
};

/// Dense ids in first-seen order over an arena, found through an
/// open-addressing table that stores each string's hash (so probes skip
/// mismatches without touching bytes, and growth never rehashes strings).
class StringInterner {
 public:
  static constexpr uint32_t kInvalidId = 0xffffffffu;

  StringInterner() = default;
  // Non-copyable: ids would silently diverge between copies.
  StringInterner(const StringInterner&) = delete;
  StringInterner& operator=(const StringInterner&) = delete;
  StringInterner(StringInterner&&) = default;
  StringInterner& operator=(StringInterner&&) = default;

  /// Returns the id for `s`, interning it if new. A new `s` must not
  /// view this interner's own strings (the arena may reallocate).
  uint32_t Intern(std::string_view s) {
    const uint32_t hash = Hash(s);
    const uint32_t next = static_cast<uint32_t>(size());
    const uint32_t id =
        ids_.Insert(Slot{hash, next}, Matches{strings_, s, hash}).id;
    if (id == next) strings_.Append(s);
    return id;
  }

  /// Returns the id for `s`, or kInvalidId when absent. Never interns.
  uint32_t Find(std::string_view s) const {
    const uint32_t hash = Hash(s);
    const Slot* slot = ids_.Find(hash, Matches{strings_, s, hash});
    return slot == nullptr ? kInvalidId : slot->id;
  }

  /// Resolves an id back to the interned string. The view stays valid
  /// until the next Intern() (which may grow the arena) and across moves.
  std::string_view Get(uint32_t id) const { return strings_.Get(id); }

  size_t size() const { return strings_.size(); }

  /// The strings in id order, in the kStrings layout.
  const StringArena& strings() const { return strings_; }

  /// Replaces the contents with a kStrings image (see StringArena::Assign)
  /// whose entry i becomes id i. Returns kInvalidId, or the first id whose
  /// string repeats an earlier one — the interner is then unusable and
  /// must be discarded.
  uint32_t Assign(const uint32_t* offsets, size_t n, std::string_view bytes);

 private:
  struct Slot {
    uint32_t stored_hash = 0;
    uint32_t id = kInvalidId;  // kInvalidId: empty
    bool empty() const { return id == kInvalidId; }
    uint64_t hash() const { return stored_hash; }
  };

  static uint32_t Hash(std::string_view s) {
    return static_cast<uint32_t>(std::hash<std::string_view>()(s));
  }

  /// Equality against `s` (whose Hash is `hash`) for table probes: the
  /// stored hash first, the bytes only on a hash match.
  struct Matches {
    const StringArena& strings;
    std::string_view s;
    uint32_t hash;
    bool operator()(const Slot& slot) const {
      return slot.stored_hash == hash && strings.Get(slot.id) == s;
    }
  };

  StringArena strings_;
  FlatTable<Slot> ids_;
};

}  // namespace kf

#endif  // KF_COMMON_INTERNER_H_
