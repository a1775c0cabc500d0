#include "store/format.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "common/varint.h"

namespace kf::store {

namespace {

constexpr size_t kAlign = 8;

size_t AlignUp(size_t n) { return (n + kAlign - 1) & ~(kAlign - 1); }

}  // namespace

// ---- BlockBuilder ----

void BlockBuilder::AddEncoded(BlockId id, Encoding encoding,
                              std::string_view payload, uint64_t rows) {
  payloads_.resize(AlignUp(payloads_.size()), '\0');
  BlockEntry entry;
  entry.id = static_cast<uint32_t>(id);
  entry.encoding = static_cast<uint32_t>(encoding);
  entry.rows = rows;
  entry.offset = payloads_.size();  // relative until Finish()
  entry.size = payload.size();
  entry.crc32 = Crc32(payload);
  entry.reserved = 0;
  payloads_.append(payload.data(), payload.size());
  toc_.push_back(entry);
}

void BlockBuilder::AddRaw(BlockId id, const void* data, size_t bytes,
                          uint64_t rows) {
  // An empty column's data pointer may legitimately be null (e.g. the
  // .data() of a never-populated vector); normalize it so the checksum
  // and the append never touch a null pointer.
  if (data == nullptr) {
    KF_CHECK(bytes == 0);
    data = "";
  }
  AddEncoded(id, Encoding::kRaw,
             std::string_view(static_cast<const char*>(data), bytes), rows);
}

void BlockBuilder::AddStrings(BlockId id, const StringArena& strings) {
  // An empty arena has no offsets yet; its block is the lone 0 offset.
  static constexpr uint32_t kNoStrings[1] = {0};
  const std::vector<uint32_t>& offsets = strings.offsets();
  const uint32_t* table = offsets.empty() ? kNoStrings : offsets.data();
  const size_t table_bytes =
      (offsets.empty() ? 1 : offsets.size()) * sizeof(uint32_t);
  std::string block;
  block.reserve(table_bytes + strings.bytes().size());
  block.append(reinterpret_cast<const char*>(table), table_bytes);
  block.append(strings.bytes());
  AddEncoded(id, Encoding::kStrings, block, strings.size());
}

void BlockBuilder::AddDeltaVarint(BlockId id,
                                  const std::vector<uint32_t>& values) {
  std::string packed;
  AppendDeltaVarints(&packed, values.begin(), values.end());
  AddEncoded(id, Encoding::kDeltaVarint, packed, values.size());
}

void BlockBuilder::AddVarintLists(BlockId id,
                                  const std::vector<uint32_t>& offsets,
                                  const std::vector<uint32_t>& values) {
  // Per span: absolute first value, then zigzag deltas — short varints
  // for the sorted lists FusedKB produces, lossless for any order.
  std::string packed;
  for (size_t span = 0; span + 1 < offsets.size(); ++span) {
    for (uint32_t i = offsets[span]; i < offsets[span + 1]; ++i) {
      if (i == offsets[span]) {
        AppendVarint64(&packed, values[i]);
      } else {
        AppendVarint64(&packed,
                       ZigzagEncode(static_cast<int64_t>(values[i]) -
                                    static_cast<int64_t>(values[i - 1])));
      }
    }
  }
  AddEncoded(id, Encoding::kVarintList, packed, values.size());
}

std::string BlockBuilder::Finish(ContentKind kind) {
  const size_t payload_base = AlignUp(sizeof(FileHeader));
  const size_t toc_offset = payload_base + AlignUp(payloads_.size());
  for (BlockEntry& entry : toc_) entry.offset += payload_base;

  std::string toc_bytes(reinterpret_cast<const char*>(toc_.data()),
                        toc_.size() * sizeof(BlockEntry));

  FileHeader header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kFormatVersion;
  header.content_kind = static_cast<uint32_t>(kind);
  header.file_size = toc_offset + toc_bytes.size();
  header.toc_offset = toc_offset;
  header.toc_count = static_cast<uint32_t>(toc_.size());
  header.toc_crc32 = Crc32(toc_bytes);

  std::string out;
  out.reserve(header.file_size);
  out.append(reinterpret_cast<const char*>(&header), sizeof(header));
  out.resize(payload_base, '\0');
  out += payloads_;
  out.resize(toc_offset, '\0');
  out += toc_bytes;
  return out;
}

// ---- BlockFile ----

Status BlockFile::MissingBlock(BlockId id) {
  return Status::InvalidArgument(
      StrFormat("store: missing block %u", static_cast<uint32_t>(id)));
}

Status BlockFile::BadBlock(BlockId id, const char* what) {
  return Status::InvalidArgument(StrFormat(
      "store: block %u: %s", static_cast<uint32_t>(id), what));
}

Result<BlockFile> BlockFile::Parse(std::string_view file,
                                   ContentKind expected) {
  if (file.size() < sizeof(FileHeader)) {
    return Status::InvalidArgument(
        StrFormat("store: file too small (%zu bytes) to hold a header",
                  file.size()));
  }
  FileHeader header;
  std::memcpy(&header, file.data(), sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(
        "store: bad magic — not a kf::store file");
  }
  if (header.version != kFormatVersion) {
    return Status::InvalidArgument(
        StrFormat("store: unsupported format version %u (this build reads "
                  "version %u)",
                  header.version, kFormatVersion));
  }
  if (header.content_kind != static_cast<uint32_t>(expected)) {
    return Status::InvalidArgument(
        StrFormat("store: content kind %u, expected %u (corpus=1, "
                  "fused-kb=2, claim-shard=3)",
                  header.content_kind,
                  static_cast<uint32_t>(expected)));
  }
  if (header.file_size != file.size()) {
    return Status::InvalidArgument(
        StrFormat("store: truncated file: header records %llu bytes, got "
                  "%zu",
                  static_cast<unsigned long long>(header.file_size),
                  file.size()));
  }
  const uint64_t toc_bytes =
      static_cast<uint64_t>(header.toc_count) * sizeof(BlockEntry);
  if (header.toc_offset > file.size() ||
      toc_bytes > file.size() - header.toc_offset) {
    return Status::InvalidArgument("store: block table out of bounds");
  }
  std::string_view toc_view = file.substr(header.toc_offset, toc_bytes);
  if (Crc32(toc_view) != header.toc_crc32) {
    return Status::IOError("store: block table checksum mismatch");
  }

  BlockFile parsed;
  parsed.file_ = file;
  parsed.kind_ = expected;
  parsed.toc_.resize(header.toc_count);
  if (header.toc_count > 0) {
    std::memcpy(parsed.toc_.data(), toc_view.data(), toc_bytes);
  }
  for (const BlockEntry& entry : parsed.toc_) {
    if (entry.offset > file.size() ||
        entry.size > file.size() - entry.offset ||
        entry.offset % kAlign != 0) {
      return BadBlock(static_cast<BlockId>(entry.id),
                      "payload out of bounds or misaligned");
    }
    std::string_view payload = file.substr(entry.offset, entry.size);
    if (Crc32(payload) != entry.crc32) {
      return Status::IOError(
          StrFormat("store: block %u: payload checksum mismatch "
                    "(corrupt or truncated file)",
                    entry.id));
    }
  }
  return parsed;
}

const BlockEntry* BlockFile::Find(BlockId id) const {
  for (const BlockEntry& entry : toc_) {
    if (entry.id == static_cast<uint32_t>(id)) return &entry;
  }
  return nullptr;
}

Result<PackedSpan> BlockFile::Packed(BlockId id) const {
  const BlockEntry* entry = Find(id);
  if (entry == nullptr) return MissingBlock(id);
  if (static_cast<Encoding>(entry->encoding) != Encoding::kPacked) {
    return BadBlock(id, "expected a packed column");
  }
  PackedSpan span;
  span.ptr = reinterpret_cast<const uint8_t*>(file_.data()) + entry->offset;
  span.rows = static_cast<size_t>(entry->rows);
  if (span.rows == 0) {
    if (entry->size != 0) return BadBlock(id, "zero-row block with payload");
    return span;
  }
  if (entry->size % entry->rows != 0) {
    return BadBlock(id, "packed payload does not divide into rows");
  }
  const uint64_t width = entry->size / entry->rows;
  if (width != 1 && width != 2 && width != 4 && width != 8) {
    return BadBlock(id, "unsupported packed element width");
  }
  span.width = static_cast<uint32_t>(width);
  return span;
}

Result<Span<const uint32_t>> BlockFile::StringOffsets(BlockId id) const {
  const BlockEntry* entry = Find(id);
  if (entry == nullptr) return MissingBlock(id);
  if (static_cast<Encoding>(entry->encoding) != Encoding::kStrings) {
    return BadBlock(id, "expected a string block");
  }
  // Overflow-safe sizing: rows + 1 u32 offsets must fit in the payload.
  // rows < size/4 also keeps the (rows + 1) * 4 below from wrapping, so
  // `table` provably lands inside the payload.
  if (entry->size < sizeof(uint32_t) ||
      entry->rows >= entry->size / sizeof(uint32_t)) {
    return BadBlock(id, "string offset table truncated");
  }
  const uint64_t table = (entry->rows + 1) * sizeof(uint32_t);
  const char* p = file_.data() + entry->offset;
  Span<const uint32_t> offsets{reinterpret_cast<const uint32_t*>(p),
                               static_cast<size_t>(entry->rows) + 1};
  // Offsets must be monotone and land inside the bytes area.
  const uint64_t bytes = entry->size - table;
  if (offsets[0] != 0) return BadBlock(id, "string offsets must start at 0");
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i + 1] < offsets[i] || offsets[i + 1] > bytes) {
      return BadBlock(id, "string offsets out of range");
    }
  }
  return offsets;
}

Result<std::string_view> BlockFile::StringBytes(BlockId id) const {
  const BlockEntry* entry = Find(id);
  if (entry == nullptr) return MissingBlock(id);
  if (static_cast<Encoding>(entry->encoding) != Encoding::kStrings) {
    return BadBlock(id, "expected a string block");
  }
  // Same overflow-safe sizing as StringOffsets.
  if (entry->size < sizeof(uint32_t) ||
      entry->rows >= entry->size / sizeof(uint32_t)) {
    return BadBlock(id, "string offset table truncated");
  }
  const uint64_t table = (entry->rows + 1) * sizeof(uint32_t);
  return file_.substr(entry->offset + table, entry->size - table);
}

Status BlockFile::DecodeDeltaVarint(BlockId id,
                                    std::vector<uint32_t>* out) const {
  const BlockEntry* entry = Find(id);
  if (entry == nullptr) return MissingBlock(id);
  if (static_cast<Encoding>(entry->encoding) != Encoding::kDeltaVarint) {
    return BadBlock(id, "expected a delta-varint block");
  }
  // Every varint is at least one byte, so rows > size is corrupt — and
  // this bounds the assign() below by the actual payload length.
  if (entry->rows > entry->size) {
    return BadBlock(id, "row count exceeds the payload size");
  }
  std::string_view payload = Payload(*entry);
  out->assign(static_cast<size_t>(entry->rows), 0);
  const char* p = ParseDeltaVarints(payload.data(),
                                    payload.data() + payload.size(),
                                    out->size(), out->data());
  if (p == nullptr || p != payload.data() + payload.size()) {
    return BadBlock(id, "malformed delta-varint payload");
  }
  return Status::OK();
}

Status BlockFile::DecodeVarintLists(BlockId id,
                                    const std::vector<uint32_t>& offsets,
                                    std::vector<uint32_t>* out) const {
  const BlockEntry* entry = Find(id);
  if (entry == nullptr) return MissingBlock(id);
  if (static_cast<Encoding>(entry->encoding) != Encoding::kVarintList) {
    return BadBlock(id, "expected a varint-list block");
  }
  if (entry->rows > entry->size) {
    return BadBlock(id, "row count exceeds the payload size");
  }
  if (offsets.empty() || offsets.back() != entry->rows) {
    return BadBlock(id, "span offsets disagree with the list length");
  }
  // Every offset below is a write index into `out` (and the span bounds
  // callers slice with), so re-verify monotonicity here rather than
  // trusting the caller: monotone + back() == rows bounds them all.
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return BadBlock(id, "span offsets are not non-decreasing");
    }
  }
  std::string_view payload = Payload(*entry);
  out->assign(static_cast<size_t>(entry->rows), 0);
  const char* p = payload.data();
  const char* end = payload.data() + payload.size();
  for (size_t span = 0; span + 1 < offsets.size(); ++span) {
    int64_t prev = 0;
    for (uint32_t i = offsets[span]; i < offsets[span + 1]; ++i) {
      uint64_t raw = 0;
      p = ParseVarint64(p, end, &raw);
      if (p == nullptr) {
        return BadBlock(id, "malformed varint-list payload");
      }
      const int64_t v = (i == offsets[span])
                            ? static_cast<int64_t>(raw)
                            : prev + ZigzagDecode(raw);
      if (v < 0 || v > 0xffffffffll) {
        return BadBlock(id, "varint-list value out of range");
      }
      (*out)[i] = static_cast<uint32_t>(v);
      prev = v;
    }
  }
  if (p != end) {
    return BadBlock(id, "trailing bytes after the varint lists");
  }
  return Status::OK();
}

// ---- MmapFile ----

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    if (addr_ != nullptr) ::munmap(addr_, size_);
    addr_ = other.addr_;
    size_ = other.size_;
    other.addr_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

MmapFile::~MmapFile() {
  if (addr_ != nullptr) ::munmap(addr_, size_);
}

Result<MmapFile> MmapFile::Open(const std::string& path) {
  if (const int e = fault::Inject("store.mmap")) {
    return Status::FromErrno("open", path, e);
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::FromErrno("open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status = Status::FromErrno("stat", path);
    ::close(fd);
    return status;
  }
  MmapFile mapped;
  mapped.size_ = static_cast<size_t>(st.st_size);
  if (mapped.size_ == 0) {
    // mmap rejects zero-length maps; an empty file parses (and fails
    // validation) as an empty view.
    ::close(fd);
    mapped.addr_ = nullptr;
    return mapped;
  }
  void* addr = ::mmap(nullptr, mapped.size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (addr == MAP_FAILED) return Status::FromErrno("mmap", path);
  mapped.addr_ = addr;
  return mapped;
}

}  // namespace kf::store
