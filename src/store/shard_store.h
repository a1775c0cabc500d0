// Claim-shard files: the on-disk schema spill::ShardSpillManager writes
// one claim-graph shard's spillable columns into (content kind
// claim-shard, store/format.h): meta + eight kRaw columns, all 8-aligned
// so a mapped file serves ShardFileColumns in place.
//
// The layer speaks plain u32/u8/f32 spans (kb::TripleId and friends are
// uint32_t typedefs), so store stays independent of fusion; the spill
// layer adapts fusion::ShardColumns on both sides.
#ifndef KF_STORE_SHARD_STORE_H_
#define KF_STORE_SHARD_STORE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "store/format.h"

namespace kf::store {

/// One shard's spillable columns as plain spans. Invariants (checked by
/// the writer, validated by the reader): item_offsets has items.size()+1
/// entries; items/item_multi/item_distinct share one length;
/// claim_triple/claim_prov/claim_confidence/prov_triples share another.
struct ShardFileColumns {
  uint64_t shard_id = 0;
  Span<const uint32_t> items;
  Span<const uint32_t> item_offsets;
  Span<const uint8_t> item_multi;
  Span<const uint32_t> item_distinct;
  Span<const uint32_t> claim_triple;
  Span<const uint32_t> claim_prov;
  Span<const float> claim_confidence;
  Span<const uint32_t> prov_triples;

  size_t num_items() const { return items.size(); }
  size_t num_claims() const { return claim_triple.size(); }
};

/// Serializes one shard into a kClaimShard container image. Aborts
/// (KF_CHECK) on inconsistent span lengths — writer bugs, not IO.
std::string BuildShardFile(const ShardFileColumns& cols);

/// BuildShardFile straight to a file.
Status WriteShardFile(const ShardFileColumns& cols, const std::string& path);

/// Resolves the shard columns out of a parsed kClaimShard container,
/// zero-copy: the spans point into the bytes `file` was parsed from.
/// Every structural lie a crafted file can tell — missing blocks, tagged
/// blocks, wrong encodings, disagreeing lengths — is a clean Status.
Result<ShardFileColumns> ReadShardColumns(const BlockFile& file);

/// A claim-shard file bound to a live memory mapping: open, validate,
/// serve the columns in place.
class ShardMmapView {
 public:
  static Result<ShardMmapView> Open(const std::string& path);

  const ShardFileColumns& columns() const { return cols_; }

 private:
  MmapFile map_;
  ShardFileColumns cols_;
};

}  // namespace kf::store

#endif  // KF_STORE_SHARD_STORE_H_
