// The kf::store container format: a versioned, magic-numbered, CRC-32
// checksummed binary file holding typed, per-column blocks. One file is
//
//   [FileHeader | 8-aligned block payloads ... | block table (TOC)]
//
// with every payload located through the TOC at the tail, so writers
// stream blocks forward and readers (owning or mmap) resolve any block
// in O(blocks). All integers are little-endian; fixed-width columns are
// 8-byte aligned in the file so a mapped view can serve them in place.
//
// Encodings:
//   kRaw         fixed-width element array (u8/u32/f32/f64/u64)
//   kStrings     u32 offsets[rows + 1] then concatenated UTF-8 bytes —
//                the dictionary layout; O(1) zero-copy lookups
//   kDeltaVarint varint-packed deltas of a non-decreasing sequence
//                (CSR offset arrays)
//   kVarintList  per-span sorted id lists: within each CSR span the
//                first value is absolute, the rest are deltas
//   kPacked      unsigned column at the smallest byte width (1/2/4/8)
//                holding its maximum — id columns are mostly 1-2 bytes
//                wide; still O(1) random access off a mapping
//
// Versioning: readers reject any file whose major version differs
// (kFormatVersion bumps on incompatible layout changes); unknown block
// ids are ignored so minor additions stay forward-compatible.
#ifndef KF_STORE_FORMAT_H_
#define KF_STORE_FORMAT_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/interner.h"
#include "common/logging.h"
#include "common/status.h"

namespace kf::store {

inline constexpr uint8_t kMagic[8] = {'k', 'f', 's', 't', 'o', 'r', 'e', '1'};
inline constexpr uint32_t kFormatVersion = 1;

enum class ContentKind : uint32_t {
  kCorpus = 1,   // extract::TsvCorpus (full ExtractionDataset + dictionaries)
  kFusedKb = 2,  // kf::FusedKB (store::FusedKbColumns, the M/P/T schema)
  // One claim-graph shard's spillable columns (spill::ShardSpillManager).
  // All blocks are kRaw so a mapped file serves the columns in place.
  kClaimShard = 3,
  // 4 is retired (a bundle of claim shards); never reuse it.
};

enum class Encoding : uint32_t {
  kRaw = 0,
  kStrings = 1,
  kDeltaVarint = 2,
  kVarintList = 3,
  kPacked = 4,
};

/// Stable on-disk block identifiers. Values are part of the format:
/// never renumber, only append.
enum class BlockId : uint32_t {
  // ---- corpus sections ----
  kCorpusMeta = 1,  // kRaw u64[3]: num_sites, num_patterns, num_predicates
  kDictSubjects = 2,    // kStrings, one entry per interner id
  kDictPredicates = 3,  // kStrings
  kDictObjects = 4,     // kStrings
  kDictExtractors = 5,  // kStrings
  kDictUrls = 6,        // kStrings
  kDictSites = 7,       // kStrings
  kValueKind = 8,       // kRaw u8, per ValueId
  kValuePayload = 9,    // kPacked u64, per ValueId (id bits or double bits)
  kItemSubject = 10,    // kPacked u32, per DataItemId
  kItemPredicate = 11,  // kPacked u32
  kTripleItem = 12,     // kPacked u32, per TripleId
  kTripleObject = 13,   // kPacked u32 (ValueId)
  kTripleFlags = 14,    // kRaw u8: bit0 true_in_world, bit1 hierarchy_true
  kRecordTriple = 15,   // kPacked u32, per record
  kRecordExtractor = 16,  // kPacked u32
  kRecordUrl = 17,        // kPacked u32
  // Derivable record columns are written only when a record breaks the
  // invariant; absent means "derive on read":
  kRecordSite = 18,       // kPacked u32; absent: site = url_site[url]
  kRecordPattern = 19,    // kPacked u32; absent: pattern = extractor
  kRecordPredicate = 20,  // kPacked u32; absent: the triple's predicate
  // kPacked u16 fixed-point (value / 10000, verified bit-exact at write
  // time) when every confidence allows it, else kRaw f32.
  kRecordConfidence = 21,
  kRecordFlags = 22,  // kRaw u8: bit0 has_confidence, bits1-7 ErrorClass
  kExtractorName = 23,       // kStrings, per ExtractorMeta
  kExtractorContent = 24,    // kRaw u8 (ContentType)
  kExtractorHasConf = 25,    // kRaw u8
  kExtractorFramework = 26,  // kRaw u32 (int32 bits)
  kExtractorLinkage = 27,    // kRaw u32 (int32 bits)
  kUrlSite = 28,             // kPacked u32, per UrlId

  // ---- fused-KB sections (the M/P/T schema) ----
  kKbMethod = 40,       // kStrings, 1 row: registry method name
  kKbMeta = 41,         // kRaw u64[1]: num_rounds
  kProvDescription = 42,  // kStrings, per provenance
  kProvAccuracy = 43,     // kRaw f64
  kProvEvaluated = 44,    // kRaw u8
  kProvClaims = 45,       // kPacked u32
  kKbDictSubjects = 46,    // kStrings (deduplicated)
  kKbDictPredicates = 47,  // kStrings
  kKbDictObjects = 48,     // kStrings
  kKbTripleSubject = 49,    // kPacked u32, per triple, into kKbDictSubjects
  kKbTriplePredicate = 50,  // kPacked u32
  kKbTripleObject = 51,     // kPacked u32
  kKbProbability = 52,      // kRaw f64
  kKbCalibrated = 53,       // kRaw f64
  kKbTripleFlags = 54,  // kRaw u8: bit0 has_prob, bit1 fallback, bit2 winner
  kKbSupportOffsets = 55,  // kDeltaVarint, rows = triples + 1
  kKbSupporters = 56,      // kVarintList over the offsets above

  // ---- claim-shard sections (kClaimShard) ----
  // All kRaw: the spill layer reads these zero-copy off a mapping.
  kShardMeta = 70,        // kRaw u64[3]: shard_id, num_items, num_claims
  kShardItems = 71,       // kRaw u32 (DataItemId), per item group
  kShardItemOffsets = 72, // kRaw u32, CSR into claim columns (items + 1)
  kShardItemMulti = 73,   // kRaw u8, per item group
  kShardItemDistinct = 74,  // kRaw u32, per item group
  kShardClaimTriple = 75,   // kRaw u32 (TripleId), per claim
  kShardClaimProv = 76,     // kRaw u32, per claim
  // 77 is retired (the per-claim max-confidence column); never reuse it.
  kShardProvTriples = 78,   // kRaw u32 (TripleId), local prov cross-index
  // 79 is retired (the shard-bundle directory); never reuse it.
};

/// On-disk file header (40 bytes, little-endian).
struct FileHeader {
  uint8_t magic[8];
  uint32_t version;
  uint32_t content_kind;
  uint64_t file_size;   // total bytes incl. header + TOC: truncation check
  uint64_t toc_offset;  // absolute byte offset of the block table
  uint32_t toc_count;   // number of BlockEntry records at toc_offset
  uint32_t toc_crc32;   // CRC-32 of the raw TOC bytes
};
static_assert(sizeof(FileHeader) == 40, "FileHeader layout is part of the format");

/// One TOC record (40 bytes, little-endian).
struct BlockEntry {
  uint32_t id;        // BlockId
  uint32_t encoding;  // Encoding
  uint64_t rows;      // logical element count (kStrings: entry count)
  uint64_t offset;    // absolute payload offset, 8-aligned
  uint64_t size;      // payload bytes
  uint32_t crc32;     // CRC-32 of the payload bytes
  // Always zero; the claim-shard reader rejects a nonzero value (the
  // retired content kind 4 stored member tags here).
  uint32_t reserved;
};
static_assert(sizeof(BlockEntry) == 40, "BlockEntry layout is part of the format");

/// Minimal read-only span (C++17 has no std::span). Points into either a
/// mapped file or an owned buffer; the creator guarantees the lifetime.
template <typename T>
struct Span {
  const T* ptr = nullptr;
  size_t count = 0;

  const T* begin() const { return ptr; }
  const T* end() const { return ptr + count; }
  const T& operator[](size_t i) const { return ptr[i]; }
  size_t size() const { return count; }
  bool empty() const { return count == 0; }
};

/// A kPacked column: element i occupies `width` little-endian bytes at
/// ptr + i * width. Width-erased but still O(1) random access straight
/// off a mapped file — no materialization.
struct PackedSpan {
  const uint8_t* ptr = nullptr;
  size_t rows = 0;
  uint32_t width = 1;

  size_t size() const { return rows; }
  bool empty() const { return rows == 0; }
  uint64_t operator[](size_t i) const {
    uint64_t v = 0;
    // Copies into the low-order bytes — the format is little-endian,
    // like every other multi-byte read in this file.
    std::memcpy(&v, ptr + i * width, width);
    return v;
  }
};

/// Smallest of 1/2/4/8 bytes that holds `max`.
inline uint32_t PackedWidthFor(uint64_t max) {
  if (max < (1ull << 8)) return 1;
  if (max < (1ull << 16)) return 2;
  if (max < (1ull << 32)) return 4;
  return 8;
}

/// Serializes one store file: append typed blocks, then Finish() to get
/// the assembled bytes (header + payloads + checksummed TOC).
class BlockBuilder {
 public:
  /// Appends a fixed-width column. `elem_size` must divide `bytes`.
  void AddRaw(BlockId id, const void* data, size_t bytes, uint64_t rows);

  template <typename T>
  void AddColumn(BlockId id, const std::vector<T>& column) {
    static_assert(std::is_trivially_copyable<T>::value, "raw columns only");
    AddRaw(id, column.data(), column.size() * sizeof(T), column.size());
  }

  /// Appends an unsigned column at the smallest byte width that holds
  /// its maximum value (Encoding::kPacked). Read back via Packed().
  template <typename T>
  void AddPacked(BlockId id, const std::vector<T>& column) {
    static_assert(std::is_unsigned<T>::value, "packed columns are unsigned");
    uint64_t max = 0;
    for (T v : column) max = std::max<uint64_t>(max, v);
    const uint32_t width = PackedWidthFor(max);
    std::string payload(column.size() * width, '\0');
    for (size_t i = 0; i < column.size(); ++i) {
      const uint64_t v = column[i];
      std::memcpy(&payload[i * width], &v, width);  // little-endian
    }
    AddEncoded(id, Encoding::kPacked, payload, column.size());
  }

  /// Appends a string dictionary/list as a kStrings block
  /// (u32 offsets[rows+1] + bytes): an arena already is that layout, so
  /// this is two bulk copies.
  void AddStrings(BlockId id, const StringArena& strings);

  /// Appends a non-decreasing sequence (CSR offsets) delta+varint-packed.
  void AddDeltaVarint(BlockId id, const std::vector<uint32_t>& values);

  /// Appends per-span sorted lists (`values` partitioned by `offsets`):
  /// absolute first value per span, deltas after. rows = values.size().
  void AddVarintLists(BlockId id, const std::vector<uint32_t>& offsets,
                      const std::vector<uint32_t>& values);

  /// Assembles the final file. The builder is consumed.
  std::string Finish(ContentKind kind);

 private:
  void AddEncoded(BlockId id, Encoding encoding, std::string_view payload,
                  uint64_t rows);

  std::string payloads_;  // block bytes, each 8-aligned relative to 0
  std::vector<BlockEntry> toc_;  // offsets relative to payloads_ until Finish
};

/// Parses and validates a store file image (owning buffer or mmap): the
/// header, TOC bounds, and every block's bounds and CRC-32. Typed
/// accessors re-check element width and alignment, so a crafted file can
/// fail cleanly but never fault.
class BlockFile {
 public:
  /// `file` must outlive the BlockFile (readers keep the buffer or map).
  static Result<BlockFile> Parse(std::string_view file, ContentKind expected);

  const BlockEntry* Find(BlockId id) const;

  /// Raw payload bytes of `entry` (bounds were validated in Parse).
  std::string_view Payload(const BlockEntry& entry) const {
    return file_.substr(entry.offset, entry.size);
  }

  /// A required fixed-width column; validates presence, encoding,
  /// element width, and 8-byte file alignment.
  template <typename T>
  Result<Span<const T>> Column(BlockId id) const {
    const BlockEntry* entry = Find(id);
    if (entry == nullptr) return MissingBlock(id);
    return ColumnAt<T>(*entry);
  }

  /// Typed view of a specific TOC entry, for a caller that checks the
  /// entry itself (the claim-shard reader rejects a nonzero `reserved`)
  /// before reading the column.
  template <typename T>
  Result<Span<const T>> ColumnAt(const BlockEntry& entry) const {
    const BlockId id = static_cast<BlockId>(entry.id);
    // Divide instead of multiplying rows * sizeof(T): a huge rows value
    // must fail this check, not wrap uint64 into a matching product.
    if (static_cast<Encoding>(entry.encoding) != Encoding::kRaw ||
        entry.size % sizeof(T) != 0 ||
        entry.size / sizeof(T) != entry.rows) {
      return BadBlock(id, "unexpected encoding or element width");
    }
    const char* p = file_.data() + entry.offset;
    if (reinterpret_cast<uintptr_t>(p) % alignof(T) != 0) {
      return BadBlock(id, "misaligned column payload");
    }
    return Span<const T>{reinterpret_cast<const T*>(p),
                         static_cast<size_t>(entry.rows)};
  }

  /// A required packed unsigned column; validates that the payload size
  /// factors into rows x width for a width of 1/2/4/8.
  Result<PackedSpan> Packed(BlockId id) const;

  /// A required string dictionary/list; validates the offset table.
  Result<Span<const uint32_t>> StringOffsets(BlockId id) const;
  /// The concatenated bytes area of a kStrings block.
  Result<std::string_view> StringBytes(BlockId id) const;

  /// Decodes a kDeltaVarint block into `out` (rows values).
  Status DecodeDeltaVarint(BlockId id, std::vector<uint32_t>* out) const;
  /// Decodes a kVarintList block using the span structure in `offsets`.
  Status DecodeVarintLists(BlockId id, const std::vector<uint32_t>& offsets,
                           std::vector<uint32_t>* out) const;

  ContentKind content_kind() const { return kind_; }

 private:
  static Status MissingBlock(BlockId id);
  static Status BadBlock(BlockId id, const char* what);

  std::string_view file_;
  std::vector<BlockEntry> toc_;
  ContentKind kind_ = ContentKind::kCorpus;
};

/// A read-only memory-mapped file (POSIX). Movable; unmaps on
/// destruction. The mapping stays valid for the object's lifetime.
class MmapFile {
 public:
  static Result<MmapFile> Open(const std::string& path);

  MmapFile() = default;
  MmapFile(MmapFile&& other) noexcept { *this = std::move(other); }
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;
  ~MmapFile();

  std::string_view data() const {
    return std::string_view(static_cast<const char*>(addr_), size_);
  }

 private:
  void* addr_ = nullptr;
  size_t size_ = 0;
};

}  // namespace kf::store

#endif  // KF_STORE_FORMAT_H_
