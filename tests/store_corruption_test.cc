// Hostile-input contract of kf::store: every corruption — flipped magic,
// wrong version, truncation at any byte, bit flips under the checksums,
// out-of-range dictionary ids, bogus enum values — loads to a clean
// Status, never a crash or out-of-bounds read. The suite runs under ASan
// in CI, so "never reads past the buffer" is machine-checked, not
// asserted by eyeball.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "extract/tsv_io.h"
#include "store/format.h"
#include "store/store.h"

namespace kf::store {
namespace {

constexpr const char* kTsv =
    "TomCruise\tbirth_date\t1962-07-03\tdom\thttps://en.wikipedia.org/tc\t"
    "0.95\n"
    "TomCruise\tbirth_date\t1963-07-03\ttxt\thttps://fan.example.com/tc\t"
    "0.40\n"
    "TopGun\trelease_year\t1986\ttbl\thttps://en.wikipedia.org/tg\n";

std::string ValidCorpusImage() {
  auto corpus = extract::ReadExtractionsTsv(kTsv);
  EXPECT_TRUE(corpus.ok());
  return WriteCorpus(*corpus);
}

/// Mutates the payload of block `id` in a serialized image via `mutate`,
/// then re-stamps the payload CRC and the TOC CRC so the corruption is
/// "consistent" — it must be caught by semantic validation, not by the
/// checksums.
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

/// Rewrites the TOC `rows` of block `id` (payload untouched) and
/// re-stamps the TOC CRC, so only row-count validation can object.
std::string PatchTocRows(std::string bytes, BlockId id, uint64_t rows) {
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  BlockEntry* toc = reinterpret_cast<BlockEntry*>(&bytes[header.toc_offset]);
  for (uint32_t i = 0; i < header.toc_count; ++i) {
    if (toc[i].id == static_cast<uint32_t>(id)) toc[i].rows = rows;
  }
  header.toc_crc32 = Crc32(&bytes[header.toc_offset],
                           header.toc_count * sizeof(BlockEntry));
  std::memcpy(bytes.data(), &header, sizeof(header));
  return bytes;
}

void ExpectCleanFailure(const std::string& bytes) {
  auto result = LoadCorpus(bytes);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.status().message().empty());
}

TEST(StoreCorruptionTest, FlippedMagicIsRejected) {
  std::string bytes = ValidCorpusImage();
  bytes[0] ^= 0x40;
  auto result = LoadCorpus(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("magic"), std::string::npos);
}

TEST(StoreCorruptionTest, UnsupportedVersionIsRejected) {
  std::string bytes = ValidCorpusImage();
  const uint32_t version = 99;
  std::memcpy(&bytes[8], &version, sizeof(version));  // FileHeader.version
  auto result = LoadCorpus(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("version 99"), std::string::npos);
}

TEST(StoreCorruptionTest, TruncationAtEveryPrefixFailsCleanly) {
  const std::string bytes = ValidCorpusImage();
  // Every 7-byte step plus the structurally interesting boundaries.
  for (size_t len = 0; len < bytes.size(); len += 7) {
    ExpectCleanFailure(bytes.substr(0, len));
  }
  ExpectCleanFailure(bytes.substr(0, sizeof(FileHeader) - 1));
  ExpectCleanFailure(bytes.substr(0, sizeof(FileHeader)));
  ExpectCleanFailure(bytes.substr(0, bytes.size() - 1));
  // And bytes appended past the recorded file size are equally rejected.
  ExpectCleanFailure(bytes + "trailing garbage");
}

TEST(StoreCorruptionTest, PayloadBitFlipFailsTheChecksum) {
  // Flip one bit inside an actual block payload (not the inter-block
  // padding, which carries no data) — the block CRC must catch it.
  std::string bytes = ValidCorpusImage();
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  const BlockEntry* toc =
      reinterpret_cast<const BlockEntry*>(&bytes[header.toc_offset]);
  for (uint32_t i = 0; i < header.toc_count; ++i) {
    if (toc[i].size > 0) {
      bytes[toc[i].offset] ^= 0x01;
      break;
    }
  }
  auto result = LoadCorpus(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_NE(result.status().message().find("checksum"), std::string::npos);
}

TEST(StoreCorruptionTest, TocBitFlipFailsTheChecksum) {
  std::string bytes = ValidCorpusImage();
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  bytes[header.toc_offset + 4] ^= 0x01;
  auto result = LoadCorpus(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_NE(result.status().message().find("block table"), std::string::npos);
}

TEST(StoreCorruptionTest, DictionaryIdOutOfRangeIsRejected) {
  // A record's URL id pointing past the URL dictionary, with all
  // checksums re-stamped: caught by the cross-reference validation.
  // (0xff every packed element — id 255+ in a 3-record corpus is always
  // out of range, whatever byte width the writer chose.)
  std::string bytes = PatchBlock(
      ValidCorpusImage(), BlockId::kRecordUrl,
      [](char* payload, size_t size) { std::memset(payload, 0xff, size); });
  auto result = LoadCorpus(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("out of range"),
            std::string::npos);
}

TEST(StoreCorruptionTest, TripleObjectOutOfRangeIsRejected) {
  std::string bytes = PatchBlock(
      ValidCorpusImage(), BlockId::kTripleObject,
      [](char* payload, size_t size) { std::memset(payload, 0xff, size); });
  auto result = LoadCorpus(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(StoreCorruptionTest, PackedWidthMismatchIsRejected) {
  // Shrink a packed block's row count so size no longer divides into
  // rows (re-stamping the TOC CRC): structural validation, not a crash.
  std::string bytes = ValidCorpusImage();
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  BlockEntry* toc = reinterpret_cast<BlockEntry*>(&bytes[header.toc_offset]);
  for (uint32_t i = 0; i < header.toc_count; ++i) {
    if (toc[i].id == static_cast<uint32_t>(BlockId::kRecordUrl)) {
      ASSERT_GT(toc[i].rows, 1u);
      toc[i].rows -= 1;  // 3 records -> 2 rows over a 3-element payload
    }
  }
  header.toc_crc32 = Crc32(&bytes[header.toc_offset],
                           header.toc_count * sizeof(BlockEntry));
  std::memcpy(bytes.data(), &header, sizeof(header));
  auto result = LoadCorpus(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(StoreCorruptionTest, FixedPointConfidenceAboveScaleIsRejected) {
  // The sample confidences fit the fixed-point encoding; 0xff-filling the
  // column produces values far above the 10000 scale.
  std::string bytes = PatchBlock(
      ValidCorpusImage(), BlockId::kRecordConfidence,
      [](char* payload, size_t size) { std::memset(payload, 0xff, size); });
  auto result = LoadCorpus(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("above scale"), std::string::npos);
}

TEST(StoreCorruptionTest, UnknownValueKindIsRejected) {
  std::string bytes = PatchBlock(ValidCorpusImage(), BlockId::kValueKind,
                                 [](char* payload, size_t) {
                                   payload[0] = 9;  // no such ValueKind
                                 });
  auto result = LoadCorpus(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("value kind"), std::string::npos);
}

TEST(StoreCorruptionTest, RepeatedNanValueIsRejected) {
  // Two number values whose payloads are patched to the same NaN bits:
  // values compare by bits, so the second interns onto the first and the
  // loader's duplicate check names it.
  auto corpus = extract::ReadExtractionsTsv(kTsv);
  ASSERT_TRUE(corpus.ok());
  const kb::ValueId first = corpus->values.Intern(kb::Value::OfNumber(1.0));
  corpus->values.Intern(kb::Value::OfNumber(2.0));
  std::string bytes = PatchBlock(
      WriteCorpus(*corpus), BlockId::kValuePayload,
      [](char* payload, size_t size) {
        // The double bits force 8-byte elements; the last two are ours.
        std::memset(payload + size - 16, 0xff, 16);
      });
  auto result = LoadCorpus(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(
                "value table has a duplicate entry at id " +
                std::to_string(first + 1)),
            std::string::npos)
      << result.status().ToString();
}

TEST(StoreCorruptionTest, UnknownRecordErrorClassIsRejected) {
  std::string bytes = PatchBlock(ValidCorpusImage(), BlockId::kRecordFlags,
                                 [](char* payload, size_t) {
                                   payload[0] = static_cast<char>(0xfe);
                                 });
  auto result = LoadCorpus(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("error class"),
            std::string::npos);
}

TEST(StoreCorruptionTest, StringOffsetsOutOfRangeAreRejected) {
  // First URL dictionary offset bumped past the bytes area: the offset
  // table validation must reject it before any substr.
  std::string bytes = PatchBlock(
      ValidCorpusImage(), BlockId::kDictUrls,
      [](char* payload, size_t size) {
        const uint32_t huge = static_cast<uint32_t>(size + 1000);
        std::memcpy(payload + sizeof(uint32_t), &huge, sizeof(huge));
      });
  auto result = LoadCorpus(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(StoreCorruptionTest, MissingBlockIsRejected) {
  // Retag the record-triple column as an unknown block id: readers skip
  // unknown blocks (forward compat), so the required one is now missing.
  std::string bytes = ValidCorpusImage();
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  BlockEntry* toc = reinterpret_cast<BlockEntry*>(&bytes[header.toc_offset]);
  for (uint32_t i = 0; i < header.toc_count; ++i) {
    if (toc[i].id == static_cast<uint32_t>(BlockId::kRecordTriple)) {
      toc[i].id = 9999;
    }
  }
  header.toc_crc32 = Crc32(&bytes[header.toc_offset],
                           header.toc_count * sizeof(BlockEntry));
  std::memcpy(bytes.data(), &header, sizeof(header));
  auto result = LoadCorpus(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("missing block"),
            std::string::npos);
}

TEST(StoreCorruptionTest, DictRowCountOverflowIsRejected) {
  // Huge dictionary row counts make the u32 offset-table sizing wrap
  // (2^62 - 1 wraps (rows + 1) * 4 to 0; UINT64_MAX wraps rows + 1) —
  // each once produced a ~2^62-entry "offset table" scanned far past the
  // mapping. Both must be rejected by the sizing check instead.
  for (const uint64_t rows : {(1ull << 62) - 1, ~0ull}) {
    std::string bytes =
        PatchTocRows(ValidCorpusImage(), BlockId::kDictUrls, rows);
    auto result = LoadCorpus(bytes);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("offset table"),
              std::string::npos);
  }
}

/// A one-triple "vote" KB over `num_provs` provenances ("a", "b", ...),
/// supported by provenance `supporter`.
FusedKbColumns OneTripleKb(uint32_t num_provs, uint32_t supporter) {
  FusedKbColumns kb;
  kb.method = "vote";
  for (uint32_t p = 0; p < num_provs; ++p) {
    kb.prov_descriptions.Append(std::string(1, static_cast<char>('a' + p)));
    kb.prov_accuracy.push_back(0.5);
    kb.prov_evaluated.push_back(0);
    kb.prov_claims.push_back(1);
  }
  kb.triple_subject.push_back(kb.subjects.Intern("s"));
  kb.triple_predicate.push_back(kb.predicates.Intern("p"));
  kb.triple_object.push_back(kb.objects.Intern("o"));
  kb.probability.push_back(0.5);
  kb.calibrated.push_back(0.5);
  kb.triple_flags.push_back(kKbHasProbability | kKbWinner);
  kb.supporters.push_back(supporter);
  kb.support_offsets.push_back(1);
  return kb;
}

TEST(StoreCorruptionTest, SupportOffsetRowInflationIsRejected) {
  const FusedKbColumns kb = OneTripleKb(1, 0);
  // An inflated delta-varint row count is caught by the rows-vs-payload
  // bound, not by attempting a 2^62-entry allocation.
  std::string bytes = PatchTocRows(WriteFusedKb(kb),
                                   BlockId::kKbSupportOffsets, 1ull << 62);
  auto result = LoadFusedKb(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(StoreCorruptionTest, FusedKbSupporterOutOfRangeIsRejected) {
  std::string bytes = WriteFusedKb(OneTripleKb(2, 1));

  // Patch the single supporter varint (value 1, one byte) to 99 — still
  // one varint byte, but past the two provenances.
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  BlockEntry* toc = reinterpret_cast<BlockEntry*>(&bytes[header.toc_offset]);
  for (uint32_t i = 0; i < header.toc_count; ++i) {
    if (toc[i].id == static_cast<uint32_t>(BlockId::kKbSupporters)) {
      ASSERT_EQ(toc[i].size, 1u);
      bytes[toc[i].offset] = 99;
      toc[i].crc32 = Crc32(&bytes[toc[i].offset], toc[i].size);
    }
  }
  header.toc_crc32 = Crc32(&bytes[header.toc_offset],
                           header.toc_count * sizeof(BlockEntry));
  std::memcpy(bytes.data(), &header, sizeof(header));

  auto result = LoadFusedKb(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("out of range"),
            std::string::npos);
}

TEST(StoreCorruptionTest, MmapOpenOnCorruptFileFailsCleanly) {
  const std::string path = testing::TempDir() + "store_corrupt.kfs";
  std::string bytes = ValidCorpusImage();
  bytes[0] ^= 0x40;
  ASSERT_TRUE(extract::WriteFile(path, bytes).ok());
  auto mapped = CorpusMmapView::Open(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.status().message().find(path), std::string::npos);
  std::remove(path.c_str());

  // And an empty file (mmap's zero-length special case).
  ASSERT_TRUE(extract::WriteFile(path, "").ok());
  auto empty = CorpusMmapView::Open(path);
  EXPECT_FALSE(empty.ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kf::store
