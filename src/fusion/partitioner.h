// Sharding primitives of the sharded claim graph (fusion/claim_graph.h): a
// deterministic hash partitioner, the shard-count policy, and CSR offset
// construction.
#ifndef KF_FUSION_PARTITIONER_H_
#define KF_FUSION_PARTITIONER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"

namespace kf::fusion {

/// Assigns 64-bit keys to a fixed number of shards. The assignment depends
/// only on (key, num_shards), never on worker count or insertion order, so
/// any structure partitioned through it is reproducible by construction.
class Partitioner {
 public:
  explicit Partitioner(size_t num_shards) : num_shards_(num_shards) {
    KF_CHECK(num_shards > 0);
  }

  size_t num_shards() const { return num_shards_; }

  size_t ShardOf(uint64_t key) const {
    return static_cast<size_t>(Mix64(key) % num_shards_);
  }

 private:
  size_t num_shards_ = 1;
};

/// Shard count for a structure expected to hold `num_groups` groups: a few
/// thousand groups per shard, clamped to [16, 1024].
inline size_t SuggestShards(size_t num_groups) {
  const size_t shards = num_groups / 4096;
  if (shards < 16) return 16;
  if (shards > 1024) return 1024;
  return shards;
}

/// Prefix-sums per-bucket counts into CSR offsets (size counts.size() + 1).
inline std::vector<uint32_t> CsrOffsets(const std::vector<uint32_t>& counts) {
  std::vector<uint32_t> offsets(counts.size() + 1, 0);
  for (size_t i = 0; i < counts.size(); ++i) {
    offsets[i + 1] = offsets[i] + counts[i];
  }
  return offsets;
}

}  // namespace kf::fusion

#endif  // KF_FUSION_PARTITIONER_H_
