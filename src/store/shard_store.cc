#include "store/shard_store.h"

#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "extract/tsv_io.h"
#include "store/atomic_writer.h"

namespace kf::store {

namespace {

template <typename T>
void AddSpan(BlockBuilder* builder, BlockId id, Span<const T> span) {
  builder->AddRaw(id, span.ptr, span.count * sizeof(T), span.count);
}

template <typename T>
Status LoadColumn(const BlockFile& file, BlockId id, uint64_t expected_rows,
                  Span<const T>* out) {
  const BlockEntry* entry = file.Find(id);
  if (entry == nullptr) {
    return Status::InvalidArgument(StrFormat(
        "store: shard: missing block %u", static_cast<uint32_t>(id)));
  }
  // BlockEntry.reserved is always zero in a claim shard; a tag means the
  // block belongs to some other layout.
  if (entry->reserved != 0) {
    return Status::InvalidArgument(
        StrFormat("store: shard: block %u carries nonzero member tag %u",
                  static_cast<uint32_t>(id), entry->reserved));
  }
  Result<Span<const T>> column = file.ColumnAt<T>(*entry);
  if (!column.ok()) return column.status();
  if (column->size() != expected_rows) {
    return Status::InvalidArgument(
        StrFormat("store: shard: block %u has %zu rows, expected %llu",
                  static_cast<uint32_t>(id), column->size(),
                  static_cast<unsigned long long>(expected_rows)));
  }
  *out = *column;
  return Status::OK();
}

}  // namespace

std::string BuildShardFile(const ShardFileColumns& cols) {
  // Length disagreements here are writer bugs (the caller assembled the
  // spans from one shard), not file corruption — abort, don't Status.
  KF_CHECK(cols.item_offsets.size() == cols.items.size() + 1);
  KF_CHECK(cols.item_multi.size() == cols.items.size());
  KF_CHECK(cols.item_distinct.size() == cols.items.size());
  KF_CHECK(cols.claim_prov.size() == cols.claim_triple.size());
  KF_CHECK(cols.prov_triples.size() == cols.claim_triple.size());

  BlockBuilder builder;
  const uint64_t meta[3] = {cols.shard_id, cols.num_items(),
                            cols.num_claims()};
  builder.AddRaw(BlockId::kShardMeta, meta, sizeof(meta), 3);
  AddSpan(&builder, BlockId::kShardItems, cols.items);
  AddSpan(&builder, BlockId::kShardItemOffsets, cols.item_offsets);
  AddSpan(&builder, BlockId::kShardItemMulti, cols.item_multi);
  AddSpan(&builder, BlockId::kShardItemDistinct, cols.item_distinct);
  AddSpan(&builder, BlockId::kShardClaimTriple, cols.claim_triple);
  AddSpan(&builder, BlockId::kShardClaimProv, cols.claim_prov);
  AddSpan(&builder, BlockId::kShardProvTriples, cols.prov_triples);
  return builder.Finish(ContentKind::kClaimShard);
}

Status WriteShardFile(const ShardFileColumns& cols,
                      const std::string& path) {
  return AtomicWriteFile(path, BuildShardFile(cols));
}

Result<ShardFileColumns> ReadShardColumns(const BlockFile& file) {
  Span<const uint64_t> meta;
  KF_RETURN_IF_ERROR(LoadColumn(file, BlockId::kShardMeta, 3, &meta));
  ShardFileColumns cols;
  cols.shard_id = meta[0];
  const uint64_t num_items = meta[1];
  const uint64_t num_claims = meta[2];
  // The meta counts size every other check; an absurd count must fail
  // here (the per-block row checks would catch it anyway, but with a
  // less direct message).
  if (num_items > 0xffffffffull || num_claims > 0xffffffffull) {
    return Status::InvalidArgument(
        "store: shard meta counts exceed 32 bits");
  }
  KF_RETURN_IF_ERROR(
      LoadColumn(file, BlockId::kShardItems, num_items, &cols.items));
  KF_RETURN_IF_ERROR(LoadColumn(file, BlockId::kShardItemOffsets,
                                num_items + 1, &cols.item_offsets));
  KF_RETURN_IF_ERROR(LoadColumn(file, BlockId::kShardItemMulti, num_items,
                                &cols.item_multi));
  KF_RETURN_IF_ERROR(LoadColumn(file, BlockId::kShardItemDistinct,
                                num_items, &cols.item_distinct));
  KF_RETURN_IF_ERROR(LoadColumn(file, BlockId::kShardClaimTriple,
                                num_claims, &cols.claim_triple));
  KF_RETURN_IF_ERROR(LoadColumn(file, BlockId::kShardClaimProv, num_claims,
                                &cols.claim_prov));
  KF_RETURN_IF_ERROR(LoadColumn(file, BlockId::kShardProvTriples,
                                num_claims, &cols.prov_triples));
  // The CSR must cover the claim columns exactly: Stage I walks
  // item_offsets straight into the claim arrays off the mapping.
  if (cols.item_offsets[0] != 0 ||
      cols.item_offsets[num_items] != num_claims) {
    return Status::InvalidArgument(
        "store: shard item offsets do not cover the claim columns");
  }
  for (size_t i = 0; i < num_items; ++i) {
    if (cols.item_offsets[i] > cols.item_offsets[i + 1]) {
      return Status::InvalidArgument(
          "store: shard item offsets are not non-decreasing");
    }
  }
  return cols;
}

Result<ShardMmapView> ShardMmapView::Open(const std::string& path) {
  Result<MmapFile> map = MmapFile::Open(path);
  if (!map.ok()) return map.status();
  ShardMmapView view;
  view.map_ = std::move(*map);
  Result<BlockFile> file =
      BlockFile::Parse(view.map_.data(), ContentKind::kClaimShard);
  if (!file.ok()) {
    return Status(file.status().code(),
                  path + ": " + file.status().message());
  }
  Result<ShardFileColumns> cols = ReadShardColumns(*file);
  if (!cols.ok()) {
    return Status(cols.status().code(),
                  path + ": " + cols.status().message());
  }
  view.cols_ = *cols;
  return view;
}

}  // namespace kf::store
