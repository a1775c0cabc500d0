// Unit tests for the generic container layer under kf::store: varints,
// CRC-32, and BlockBuilder/BlockFile framing (alignment, TOC, typed
// accessors, the packed integer encodings).
#include "store/format.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/varint.h"

namespace kf::store {
namespace {

TEST(VarintTest, RoundTripsBoundaryValues) {
  const uint64_t cases[] = {0,       1,         127,        128,
                            16383,   16384,     0xffffffff, 1ull << 32,
                            ~0ull >> 1, ~0ull};
  for (uint64_t v : cases) {
    std::string buf;
    AppendVarint64(&buf, v);
    uint64_t back = 0;
    const char* p = ParseVarint64(buf.data(), buf.data() + buf.size(), &back);
    ASSERT_NE(p, nullptr) << v;
    EXPECT_EQ(p, buf.data() + buf.size());
    EXPECT_EQ(back, v);
  }
}

TEST(VarintTest, RejectsTruncatedInput) {
  std::string buf;
  AppendVarint64(&buf, 1ull << 40);
  uint64_t v = 0;
  for (size_t len = 0; len < buf.size(); ++len) {
    EXPECT_EQ(ParseVarint64(buf.data(), buf.data() + len, &v), nullptr);
  }
}

TEST(VarintTest, RejectsOverlongEncoding) {
  // 11 continuation bytes never terminate a valid 64-bit varint.
  std::string buf(11, '\x80');
  uint64_t v = 0;
  EXPECT_EQ(ParseVarint64(buf.data(), buf.data() + buf.size(), &v), nullptr);
}

TEST(VarintTest, DeltaRoundTripAndOverflowCheck) {
  const std::vector<uint32_t> offsets = {0, 0, 3, 3, 10, 10000, 4000000000u};
  std::string buf;
  AppendDeltaVarints(&buf, offsets.begin(), offsets.end());
  std::vector<uint32_t> back(offsets.size());
  const char* p = ParseDeltaVarints(buf.data(), buf.data() + buf.size(),
                                    back.size(), back.data());
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(back, offsets);

  // A sequence summing past uint32 must be rejected, not wrapped.
  std::string big;
  AppendVarint64(&big, 0xffffffffull);
  AppendVarint64(&big, 1);
  uint32_t out[2];
  EXPECT_EQ(ParseDeltaVarints(big.data(), big.data() + big.size(), 2, out),
            nullptr);

  // A delta near 2^64 wraps the running sum back under the output limit,
  // faking a "non-decreasing" sequence that decreases — must be rejected
  // before the addition, for narrow and full-width outputs alike.
  std::string wrap;
  AppendVarint64(&wrap, 1);
  AppendVarint64(&wrap, ~0ull);  // 1 + (2^64 - 1) wraps to 0
  EXPECT_EQ(ParseDeltaVarints(wrap.data(), wrap.data() + wrap.size(), 2, out),
            nullptr);
  uint64_t wide[2];
  EXPECT_EQ(
      ParseDeltaVarints(wrap.data(), wrap.data() + wrap.size(), 2, wide),
      nullptr);
}

TEST(VarintTest, ZigzagIsAnInvolution) {
  const int64_t cases[] = {0, 1, -1, 63, -64, 1ll << 40, -(1ll << 40)};
  for (int64_t v : cases) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
  EXPECT_EQ(ZigzagEncode(-1), 1u);
  EXPECT_EQ(ZigzagEncode(1), 2u);
}

TEST(ChecksumTest, MatchesKnownCrc32Vector) {
  // The classic IEEE CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xcbf43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(ChecksumTest, SeedChainsPartialInput) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); split += 5) {
    uint32_t part = Crc32(data.data(), split);
    part = Crc32(data.data() + split, data.size() - split, part);
    EXPECT_EQ(part, whole) << "split " << split;
  }
}

TEST(BlockFileTest, BuildsAndReadsTypedColumns) {
  BlockBuilder builder;
  const std::vector<uint32_t> ids = {5, 6, 7};
  const std::vector<double> probs = {0.25, 0.5};
  builder.AddColumn(BlockId::kRecordTriple, ids);
  builder.AddColumn(BlockId::kKbProbability, probs);
  StringArena subjects;
  for (const char* s : {"", "a", "bcd"}) subjects.Append(s);
  builder.AddStrings(BlockId::kDictSubjects, subjects);
  const std::string bytes = builder.Finish(ContentKind::kCorpus);

  auto file = BlockFile::Parse(bytes, ContentKind::kCorpus);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  auto col = file->Column<uint32_t>(BlockId::kRecordTriple);
  ASSERT_TRUE(col.ok());
  ASSERT_EQ(col->size(), 3u);
  EXPECT_EQ((*col)[0], 5u);
  // Wrong element width is a clean error, not a misread.
  EXPECT_FALSE(file->Column<uint64_t>(BlockId::kRecordTriple).ok());

  auto dbl = file->Column<double>(BlockId::kKbProbability);
  ASSERT_TRUE(dbl.ok());
  EXPECT_EQ((*dbl)[1], 0.5);
  // Payloads are 8-aligned in the file for in-place doubles.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(dbl->begin()) % alignof(double), 0u);

  auto offsets = file->StringOffsets(BlockId::kDictSubjects);
  auto strbytes = file->StringBytes(BlockId::kDictSubjects);
  ASSERT_TRUE(offsets.ok());
  ASSERT_TRUE(strbytes.ok());
  ASSERT_EQ(offsets->size(), 4u);
  EXPECT_EQ(strbytes->substr((*offsets)[2], (*offsets)[3] - (*offsets)[2]),
            "bcd");

  EXPECT_FALSE(file->Column<uint32_t>(BlockId::kUrlSite).ok());  // absent
}

TEST(BlockFileTest, PackedColumnsRoundTripAtEveryWidth) {
  BlockBuilder builder;
  const std::vector<uint32_t> w1 = {0, 7, 255};
  const std::vector<uint32_t> w2 = {0, 256, 65535};
  const std::vector<uint32_t> w4 = {1, 65536, 4000000000u};
  const std::vector<uint64_t> w8 = {0, 42, 1ull << 40};
  const std::vector<uint32_t> empty;
  builder.AddPacked(BlockId::kRecordTriple, w1);
  builder.AddPacked(BlockId::kRecordExtractor, w2);
  builder.AddPacked(BlockId::kRecordUrl, w4);
  builder.AddPacked(BlockId::kValuePayload, w8);
  builder.AddPacked(BlockId::kUrlSite, empty);
  builder.AddColumn(BlockId::kItemSubject, w1);
  const std::string bytes = builder.Finish(ContentKind::kCorpus);

  auto file = BlockFile::Parse(bytes, ContentKind::kCorpus);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  struct Case {
    BlockId id;
    const std::vector<uint32_t>* expect;
    uint32_t width;
  };
  const Case cases[] = {{BlockId::kRecordTriple, &w1, 1},
                        {BlockId::kRecordExtractor, &w2, 2},
                        {BlockId::kRecordUrl, &w4, 4}};
  for (const Case& c : cases) {
    auto span = file->Packed(c.id);
    ASSERT_TRUE(span.ok()) << span.status().ToString();
    EXPECT_EQ(span->width, c.width);
    ASSERT_EQ(span->size(), c.expect->size());
    for (size_t i = 0; i < c.expect->size(); ++i) {
      EXPECT_EQ((*span)[i], (*c.expect)[i]) << "row " << i;
    }
  }
  auto wide = file->Packed(BlockId::kValuePayload);
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(wide->width, 8u);
  EXPECT_EQ((*wide)[2], 1ull << 40);
  auto none = file->Packed(BlockId::kUrlSite);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  // A raw column read through the packed accessor is a clean error, and
  // vice versa.
  EXPECT_FALSE(file->Packed(BlockId::kItemSubject).ok());
  EXPECT_FALSE(file->Column<uint32_t>(BlockId::kRecordUrl).ok());
}

TEST(BlockFileTest, VarintListRoundTripsUnsortedSpans) {
  BlockBuilder builder;
  const std::vector<uint32_t> offsets = {0, 3, 3, 7};
  const std::vector<uint32_t> values = {9, 2, 5, 0, 4000000000u, 1, 7};
  builder.AddDeltaVarint(BlockId::kKbSupportOffsets, offsets);
  builder.AddVarintLists(BlockId::kKbSupporters, offsets, values);
  const std::string bytes = builder.Finish(ContentKind::kFusedKb);

  auto file = BlockFile::Parse(bytes, ContentKind::kFusedKb);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  std::vector<uint32_t> off_back;
  ASSERT_TRUE(
      file->DecodeDeltaVarint(BlockId::kKbSupportOffsets, &off_back).ok());
  EXPECT_EQ(off_back, offsets);
  std::vector<uint32_t> val_back;
  ASSERT_TRUE(
      file->DecodeVarintLists(BlockId::kKbSupporters, off_back, &val_back)
          .ok());
  EXPECT_EQ(val_back, values);
}

/// Rewrites the `rows` of the first TOC entry (payload bytes untouched)
/// and re-stamps the TOC CRC, so only row-count validation can object.
std::string PatchFirstTocRows(std::string bytes, uint64_t rows) {
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  BlockEntry entry;
  std::memcpy(&entry, &bytes[header.toc_offset], sizeof(entry));
  entry.rows = rows;
  std::memcpy(&bytes[header.toc_offset], &entry, sizeof(entry));
  header.toc_crc32 = Crc32(&bytes[header.toc_offset],
                           header.toc_count * sizeof(BlockEntry));
  std::memcpy(bytes.data(), &header, sizeof(header));
  return bytes;
}

TEST(BlockFileTest, StringRowCountOverflowIsRejected) {
  BlockBuilder builder;
  StringArena subjects;
  for (const char* s : {"a", "bc"}) subjects.Append(s);
  builder.AddStrings(BlockId::kDictSubjects, subjects);
  const std::string bytes = builder.Finish(ContentKind::kCorpus);
  // rows = 2^62 - 1 wraps the (rows + 1) * 4 table sizing to 0 and
  // rows = UINT64_MAX wraps rows + 1 itself; both must fail the sizing
  // check instead of scanning a ~2^62-entry "offset table".
  for (const uint64_t rows : {(1ull << 62) - 1, ~0ull}) {
    const std::string patched = PatchFirstTocRows(bytes, rows);
    auto file = BlockFile::Parse(patched, ContentKind::kCorpus);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    EXPECT_FALSE(file->StringOffsets(BlockId::kDictSubjects).ok());
    EXPECT_FALSE(file->StringBytes(BlockId::kDictSubjects).ok());
  }
}

TEST(BlockFileTest, ColumnRowCountOverflowIsRejected) {
  BlockBuilder builder;
  const std::vector<double> probs = {0.25, 0.5};
  builder.AddColumn(BlockId::kKbProbability, probs);
  std::string bytes = builder.Finish(ContentKind::kFusedKb);
  // rows = 2^61 with sizeof(double) = 8 wraps rows * 8 to 0; paired with
  // a zero-size payload the old multiply-based check matched. The
  // division-based check must reject it.
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  BlockEntry entry;
  std::memcpy(&entry, &bytes[header.toc_offset], sizeof(entry));
  entry.rows = 1ull << 61;
  entry.size = 0;
  entry.crc32 = Crc32("", 0);
  std::memcpy(&bytes[header.toc_offset], &entry, sizeof(entry));
  header.toc_crc32 = Crc32(&bytes[header.toc_offset],
                           header.toc_count * sizeof(BlockEntry));
  std::memcpy(bytes.data(), &header, sizeof(header));

  auto file = BlockFile::Parse(bytes, ContentKind::kFusedKb);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_FALSE(file->Column<double>(BlockId::kKbProbability).ok());
}

TEST(BlockFileTest, DeltaVarintRowInflationIsRejected) {
  BlockBuilder builder;
  builder.AddDeltaVarint(BlockId::kKbSupportOffsets, {0, 1, 4});
  const std::string bytes = PatchFirstTocRows(
      builder.Finish(ContentKind::kFusedKb), 1ull << 62);
  auto file = BlockFile::Parse(bytes, ContentKind::kFusedKb);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  // Caught by the rows-vs-payload bound before the 2^62-entry assign.
  std::vector<uint32_t> out;
  EXPECT_FALSE(
      file->DecodeDeltaVarint(BlockId::kKbSupportOffsets, &out).ok());
}

TEST(BlockFileTest, VarintListNonMonotoneOffsetsAreRejected) {
  BlockBuilder builder;
  const std::vector<uint32_t> offsets = {0, 2, 3};
  const std::vector<uint32_t> values = {7, 9, 1};
  builder.AddDeltaVarint(BlockId::kKbSupportOffsets, offsets);
  builder.AddVarintLists(BlockId::kKbSupporters, offsets, values);
  const std::string bytes = builder.Finish(ContentKind::kFusedKb);
  auto file = BlockFile::Parse(bytes, ContentKind::kFusedKb);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  // A decreasing span table whose back() still equals the row count
  // would index the output vector out of bounds — rejected up front.
  std::vector<uint32_t> out;
  EXPECT_FALSE(
      file->DecodeVarintLists(BlockId::kKbSupporters, {0, 5, 3}, &out).ok());
  EXPECT_FALSE(
      file->DecodeVarintLists(BlockId::kKbSupporters, {3, 0, 3}, &out).ok());
}

TEST(BlockFileTest, ContentKindMismatchIsRejected) {
  BlockBuilder builder;
  const std::string bytes = builder.Finish(ContentKind::kFusedKb);
  auto file = BlockFile::Parse(bytes, ContentKind::kCorpus);
  ASSERT_FALSE(file.ok());
  EXPECT_NE(file.status().message().find("content kind"), std::string::npos);
}

TEST(BlockFileTest, EmptyFileWithNoBlocksParses) {
  BlockBuilder builder;
  const std::string bytes = builder.Finish(ContentKind::kCorpus);
  auto file = BlockFile::Parse(bytes, ContentKind::kCorpus);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->Find(BlockId::kCorpusMeta), nullptr);
}

}  // namespace
}  // namespace kf::store
