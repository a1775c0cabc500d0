// Claim-shard files (store/shard_store.h): the round-trip contract
// (columns in == columns out, in memory and mmap-backed) and the
// hostile-input contract — every crafted lie in a shard file (row counts,
// offsets, meta counts, member tags) loads to a clean Status, never a
// crash.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "store/shard_store.h"

namespace kf::store {
namespace {

/// A small in-memory shard whose columns the Span views point into.
struct OwnedShard {
  uint64_t shard_id = 0;
  std::vector<uint32_t> items;
  std::vector<uint32_t> item_offsets;
  std::vector<uint8_t> item_multi;
  std::vector<uint32_t> item_distinct;
  std::vector<uint32_t> claim_triple;
  std::vector<uint32_t> claim_prov;
  std::vector<float> claim_confidence;
  std::vector<uint32_t> prov_triples;

  ShardFileColumns Columns() const {
    ShardFileColumns c;
    c.shard_id = shard_id;
    c.items = {items.data(), items.size()};
    c.item_offsets = {item_offsets.data(), item_offsets.size()};
    c.item_multi = {item_multi.data(), item_multi.size()};
    c.item_distinct = {item_distinct.data(), item_distinct.size()};
    c.claim_triple = {claim_triple.data(), claim_triple.size()};
    c.claim_prov = {claim_prov.data(), claim_prov.size()};
    c.claim_confidence = {claim_confidence.data(), claim_confidence.size()};
    c.prov_triples = {prov_triples.data(), prov_triples.size()};
    return c;
  }
};

/// A deterministic shard with `items` items and 2 claims per item,
/// parameterized by `shard_id`.
OwnedShard MakeShard(uint64_t shard_id, uint32_t items) {
  OwnedShard s;
  s.shard_id = shard_id;
  s.item_offsets.push_back(0);
  for (uint32_t g = 0; g < items; ++g) {
    s.items.push_back(1000 * static_cast<uint32_t>(shard_id) + g);
    s.item_multi.push_back(g % 2);
    s.item_distinct.push_back(1 + g % 3);
    for (uint32_t k = 0; k < 2; ++k) {
      const uint32_t claim = 2 * g + k;
      s.claim_triple.push_back(100 + claim);
      s.claim_prov.push_back(claim % 5);
      s.claim_confidence.push_back(0.25f * (1 + claim % 3));
      s.prov_triples.push_back(100 + (claim * 7) % (2 * items));
    }
    s.item_offsets.push_back(2 * (g + 1));
  }
  return s;
}

template <typename T>
std::vector<T> ToVector(Span<const T> span) {
  return std::vector<T>(span.ptr, span.ptr + span.count);
}

void ExpectSameColumns(const OwnedShard& expect, const ShardFileColumns& got) {
  EXPECT_EQ(got.shard_id, expect.shard_id);
  EXPECT_EQ(ToVector(got.items), expect.items);
  EXPECT_EQ(ToVector(got.item_offsets), expect.item_offsets);
  EXPECT_EQ(ToVector(got.item_multi), expect.item_multi);
  EXPECT_EQ(ToVector(got.item_distinct), expect.item_distinct);
  EXPECT_EQ(ToVector(got.claim_triple), expect.claim_triple);
  EXPECT_EQ(ToVector(got.claim_prov), expect.claim_prov);
  EXPECT_EQ(ToVector(got.claim_confidence), expect.claim_confidence);
  EXPECT_EQ(ToVector(got.prov_triples), expect.prov_triples);
}

// ---- standalone shard files -------------------------------------------

TEST(ShardStoreTest, RoundTripInMemory) {
  const OwnedShard shard = MakeShard(7, 5);
  const std::string image = BuildShardFile(shard.Columns());
  auto file = BlockFile::Parse(image, ContentKind::kClaimShard);
  ASSERT_TRUE(file.ok()) << file.status().message();
  auto cols = ReadShardColumns(*file);
  ASSERT_TRUE(cols.ok()) << cols.status().message();
  ExpectSameColumns(shard, *cols);
}

TEST(ShardStoreTest, RoundTripEmptyShard) {
  // The degenerate shard every partitioned graph produces: zero items,
  // zero claims, and the mandatory lone [0] CSR offset.
  OwnedShard shard;
  shard.shard_id = 3;
  shard.item_offsets = {0};
  const std::string image = BuildShardFile(shard.Columns());
  auto file = BlockFile::Parse(image, ContentKind::kClaimShard);
  ASSERT_TRUE(file.ok()) << file.status().message();
  auto cols = ReadShardColumns(*file);
  ASSERT_TRUE(cols.ok()) << cols.status().message();
  EXPECT_EQ(cols->shard_id, 3u);
  EXPECT_EQ(cols->num_items(), 0u);
  EXPECT_EQ(cols->num_claims(), 0u);
  EXPECT_EQ(cols->item_offsets.size(), 1u);
  EXPECT_EQ(cols->item_offsets[0], 0u);
}

TEST(ShardStoreTest, MmapViewServesColumnsInPlace) {
  const OwnedShard shard = MakeShard(11, 8);
  const std::string path = ::testing::TempDir() + "shard_store_mmap.kfs";
  ASSERT_TRUE(WriteShardFile(shard.Columns(), path).ok());
  auto view = ShardMmapView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status().message();
  ExpectSameColumns(shard, view->columns());
  ::remove(path.c_str());
}

TEST(ShardStoreTest, WrongContentKindIsRejected) {
  const std::string image = BuildShardFile(MakeShard(1, 2).Columns());
  auto corpus = BlockFile::Parse(image, ContentKind::kCorpus);
  EXPECT_FALSE(corpus.ok());
}

// ---- crafted standalone corruption ------------------------------------

/// Applies `mutate` to the TOC entries of block `id` (all matching
/// entries) and re-stamps the TOC CRC so only semantic validation can
/// object.
template <typename Mutate>
std::string PatchToc(std::string bytes, BlockId id, Mutate mutate) {
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  BlockEntry* toc = reinterpret_cast<BlockEntry*>(&bytes[header.toc_offset]);
  for (uint32_t i = 0; i < header.toc_count; ++i) {
    if (toc[i].id == static_cast<uint32_t>(id)) mutate(&toc[i]);
  }
  header.toc_crc32 = Crc32(&bytes[header.toc_offset],
                           header.toc_count * sizeof(BlockEntry));
  std::memcpy(bytes.data(), &header, sizeof(header));
  return bytes;
}

/// Mutates the payload of the first block with `id` and re-stamps both
/// CRCs, so the corruption is checksum-consistent.
std::string PatchBlock(std::string bytes, BlockId id,
                       void (*mutate)(char* payload, size_t size)) {
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  BlockEntry* toc = reinterpret_cast<BlockEntry*>(&bytes[header.toc_offset]);
  for (uint32_t i = 0; i < header.toc_count; ++i) {
    if (toc[i].id == static_cast<uint32_t>(id)) {
      mutate(&bytes[toc[i].offset], toc[i].size);
      toc[i].crc32 = Crc32(&bytes[toc[i].offset], toc[i].size);
      break;
    }
  }
  header.toc_crc32 = Crc32(&bytes[header.toc_offset],
                           header.toc_count * sizeof(BlockEntry));
  std::memcpy(bytes.data(), &header, sizeof(header));
  return bytes;
}

Status ReadImage(const std::string& image) {
  auto file = BlockFile::Parse(image, ContentKind::kClaimShard);
  if (!file.ok()) return file.status();
  return ReadShardColumns(*file).status();
}

TEST(ShardStoreCorruptionTest, TruncationAtEveryPrefixFailsCleanly) {
  const std::string bytes = BuildShardFile(MakeShard(2, 6).Columns());
  for (size_t len = 0; len < bytes.size(); len += 7) {
    EXPECT_FALSE(ReadImage(bytes.substr(0, len)).ok());
  }
  EXPECT_FALSE(ReadImage(bytes.substr(0, bytes.size() - 1)).ok());
  EXPECT_FALSE(ReadImage(bytes + "trailing garbage").ok());
}

TEST(ShardStoreCorruptionTest, PayloadBitFlipFailsTheChecksum) {
  std::string bytes = BuildShardFile(MakeShard(2, 6).Columns());
  bytes[sizeof(FileHeader)] ^= 0x01;  // first payload byte (the meta block)
  Status st = ReadImage(bytes);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("checksum"), std::string::npos);
}

TEST(ShardStoreCorruptionTest, MissingBlockIsRejected) {
  // Renumber the meta block to an id no reader asks for: every CRC stays
  // consistent, so only the reader's presence check can object.
  const std::string image = BuildShardFile(MakeShard(2, 4).Columns());
  Status st = ReadImage(PatchToc(image, BlockId::kShardMeta,
                                 [](BlockEntry* e) { e->id = 9999; }));
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("missing block"), std::string::npos);
}

TEST(ShardStoreCorruptionTest, RowCountLieIsRejected) {
  // A rows lie breaks the rows x width == payload size invariant that
  // ColumnAt validates before anything reads the span.
  const std::string image = BuildShardFile(MakeShard(2, 4).Columns());
  Status st = ReadImage(PatchToc(image, BlockId::kShardClaimProv,
                                 [](BlockEntry* e) { e->rows = 3; }));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("unexpected encoding or element width"),
            std::string::npos);
}

TEST(ShardStoreCorruptionTest, CsrNotCoveringClaimsIsRejected) {
  const std::string image = BuildShardFile(MakeShard(2, 4).Columns());
  Status st = ReadImage(PatchBlock(
      image, BlockId::kShardItemOffsets, [](char* payload, size_t size) {
        uint32_t last = 999;  // != num_claims
        std::memcpy(payload + size - sizeof(last), &last, sizeof(last));
      }));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("offsets"), std::string::npos);
}

TEST(ShardStoreCorruptionTest, NonMonotoneOffsetsAreRejected) {
  const std::string image = BuildShardFile(MakeShard(2, 4).Columns());
  Status st = ReadImage(PatchBlock(
      image, BlockId::kShardItemOffsets, [](char* payload, size_t size) {
        (void)size;
        uint32_t spike = 1000000;  // offsets[1] > offsets[2]
        std::memcpy(payload + sizeof(uint32_t), &spike, sizeof(spike));
      }));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("non-decreasing"), std::string::npos);
}

TEST(ShardStoreCorruptionTest, NonzeroMemberTagIsRejected) {
  // BlockEntry.reserved is always zero in a claim shard: a block carrying
  // a member tag (as retired content kind 4 wrote them) must not be read
  // as one of this shard's columns, even with every CRC consistent.
  const std::string image = BuildShardFile(MakeShard(2, 4).Columns());
  Status st = ReadImage(PatchToc(image, BlockId::kShardClaimProv,
                                 [](BlockEntry* e) { e->reserved = 1; }));
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("member tag"), std::string::npos);
}

TEST(ShardStoreCorruptionTest, AbsurdMetaCountsAreRejected) {
  const std::string image = BuildShardFile(MakeShard(2, 4).Columns());
  Status st = ReadImage(PatchBlock(
      image, BlockId::kShardMeta, [](char* payload, size_t size) {
        (void)size;
        uint64_t huge = 1ull << 40;
        std::memcpy(payload + sizeof(uint64_t), &huge, sizeof(huge));
      }));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("32 bits"), std::string::npos);
}

}  // namespace
}  // namespace kf::store
