// Object values of knowledge triples. A value is an entity reference, a raw
// string, or a number (Section 3.1.1: "Each object can be an entity in
// Freebase, a string, or a number"). Values are interned into dense ValueIds
// by ValueTable.
#ifndef KF_KB_VALUE_H_
#define KF_KB_VALUE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/flat_table.h"
#include "common/hash.h"
#include "kb/ids.h"

namespace kf::kb {

enum class ValueKind : uint8_t {
  kEntity = 0,
  kString = 1,
  kNumber = 2,
};

/// A triple object. Strings are referenced by interner id (the owning
/// corpus keeps the string pool); numbers compare by their bits, the rule
/// ValueHash follows, so a NaN equals itself and -0.0 differs from +0.0.
struct Value {
  ValueKind kind = ValueKind::kEntity;
  EntityId entity = kInvalidId;  // valid when kind == kEntity
  uint32_t string_id = kInvalidId;  // valid when kind == kString
  double number = 0.0;  // valid when kind == kNumber

  static Value OfEntity(EntityId e) {
    Value v;
    v.kind = ValueKind::kEntity;
    v.entity = e;
    return v;
  }
  static Value OfString(uint32_t string_id) {
    Value v;
    v.kind = ValueKind::kString;
    v.string_id = string_id;
    return v;
  }
  static Value OfNumber(double number) {
    Value v;
    v.kind = ValueKind::kNumber;
    v.number = number;
    return v;
  }

  friend bool operator==(const Value& a, const Value& b);
};

struct ValueHash {
  size_t operator()(const Value& v) const;
};

/// Interns Values into dense ValueIds and resolves them back.
class ValueTable {
 public:
  ValueTable() = default;
  ValueTable(const ValueTable&) = delete;
  ValueTable& operator=(const ValueTable&) = delete;
  ValueTable(ValueTable&&) = default;
  ValueTable& operator=(ValueTable&&) = default;

  /// Pre-sizes for a bulk load of `n` values.
  void Reserve(size_t n) {
    values_.reserve(n);
    index_.Reserve(n);
  }

  ValueId Intern(const Value& v);

  /// Returns the id of `v`, or kInvalidId when never interned.
  ValueId Find(const Value& v) const;

  const Value& Get(ValueId id) const;

  size_t size() const { return values_.size(); }

  /// Number of distinct interned values of the given kind.
  size_t CountOfKind(ValueKind kind) const;

 private:
  /// An index entry: the value's hash, so probes and growth never touch
  /// values_, and its id.
  struct Slot {
    uint32_t stored_hash = 0;
    ValueId id = kInvalidId;  // kInvalidId: empty
    bool empty() const { return id == kInvalidId; }
    uint64_t hash() const { return stored_hash; }
  };

  static uint32_t Hash(const Value& v) {
    return static_cast<uint32_t>(ValueHash()(v));
  }

  /// Equality against `v` (whose Hash is `hash`) for index probes.
  struct Matches {
    const std::vector<Value>& values;
    const Value& v;
    uint32_t hash;
    bool operator()(const Slot& slot) const {
      return slot.stored_hash == hash && values[slot.id] == v;
    }
  };

  std::vector<Value> values_;
  FlatTable<Slot> index_;
};

}  // namespace kf::kb

#endif  // KF_KB_VALUE_H_
