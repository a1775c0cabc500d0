// Dense integer ids for every vocabulary in the system. All fusion-side code
// works on these ids; strings exist only at the corpus boundary.
#ifndef KF_KB_IDS_H_
#define KF_KB_IDS_H_

#include <cstdint>
#include <functional>

#include "common/hash.h"

namespace kf::kb {

using EntityId = uint32_t;
using TypeId = uint32_t;
using PredicateId = uint32_t;
using ValueId = uint32_t;     // interned object value (entity/string/number)
using DataItemId = uint32_t;  // interned (subject, predicate) pair
using TripleId = uint32_t;    // interned (data item, value) pair

inline constexpr uint32_t kInvalidId = 0xffffffffu;

/// A data item is a (subject, predicate) pair — one row of the fusion input
/// matrix (Section 2 of the paper).
struct DataItem {
  EntityId subject = kInvalidId;
  PredicateId predicate = kInvalidId;

  friend bool operator==(const DataItem& a, const DataItem& b) {
    return a.subject == b.subject && a.predicate == b.predicate;
  }
};

struct DataItemHash {
  size_t operator()(const DataItem& d) const {
    return static_cast<size_t>(
        HashCombine(Mix64(d.subject), d.predicate));
  }
};

}  // namespace kf::kb

#endif  // KF_KB_IDS_H_
