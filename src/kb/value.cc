#include "kb/value.h"

#include <cstring>

#include "common/logging.h"

namespace kf::kb {

namespace {

/// The payload that identifies a value of its kind; numbers by their bits.
uint64_t Payload(const Value& v) {
  switch (v.kind) {
    case ValueKind::kEntity:
      return v.entity;
    case ValueKind::kString:
      return v.string_id;
    case ValueKind::kNumber: {
      uint64_t bits;
      std::memcpy(&bits, &v.number, sizeof(bits));
      return bits;
    }
  }
  return 0;
}

}  // namespace

bool operator==(const Value& a, const Value& b) {
  return a.kind == b.kind && Payload(a) == Payload(b);
}

size_t ValueHash::operator()(const Value& v) const {
  return static_cast<size_t>(
      kf::HashCombine(kf::Mix64(static_cast<uint64_t>(v.kind)), Payload(v)));
}

ValueId ValueTable::Intern(const Value& v) {
  const uint32_t hash = Hash(v);
  const ValueId next = static_cast<ValueId>(values_.size());
  const ValueId id =
      index_.Insert(Slot{hash, next}, Matches{values_, v, hash}).id;
  if (id == next) values_.push_back(v);
  return id;
}

ValueId ValueTable::Find(const Value& v) const {
  const uint32_t hash = Hash(v);
  const Slot* slot = index_.Find(hash, Matches{values_, v, hash});
  return slot == nullptr ? kInvalidId : slot->id;
}

const Value& ValueTable::Get(ValueId id) const {
  KF_DCHECK(id < values_.size());
  return values_[id];
}

size_t ValueTable::CountOfKind(ValueKind kind) const {
  size_t n = 0;
  for (const auto& v : values_) {
    if (v.kind == kind) ++n;
  }
  return n;
}

}  // namespace kf::kb
