#include "common/interner.h"

namespace kf {

uint32_t StringInterner::Assign(const uint32_t* offsets, size_t n,
                                std::string_view bytes) {
  strings_.Assign(offsets, n, bytes);
  ids_ = FlatTable<Slot>();
  ids_.Reserve(n);
  for (uint32_t id = 0; id < n; ++id) {
    const std::string_view s = strings_.Get(id);
    const uint32_t hash = Hash(s);
    if (ids_.Insert(Slot{hash, id}, Matches{strings_, s, hash}).id != id) {
      return id;
    }
  }
  return kInvalidId;
}

}  // namespace kf
