// kf::store — the binary columnar on-disk format for corpora and fused
// KBs. Two content kinds share one container (see store/format.h):
//
//   corpus    extract::TsvCorpus — the six interner dictionaries, the
//             value table, item/triple/record columns, extractor metas
//   fused-kb  FusedKbColumns (the FusedKB's own layout) — dictionaries,
//             probability columns, delta+varint supporter CSR
//
// Both kinds read two ways:
//   - Owning load: materializes exactly the in-memory structs the TSV
//     path produces (bit-identical round-trip, operator==-verified).
//   - MmapView: validates the file once, then serves dictionary lookups
//     and column scans zero-copy off the mapping — for read-heavy
//     consumers and the substrate for out-of-core shard spilling.
//
// Compared to TSV this is ~3-4x smaller on disk and parses >5x faster
// (bench/bench_store.cc records both into BENCH_perf.json).
#ifndef KF_STORE_STORE_H_
#define KF_STORE_STORE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "extract/tsv_io.h"
#include "store/format.h"

namespace kf::store {

// ---- corpus ----------------------------------------------------------

/// Serializes a TSV-loaded corpus into the binary corpus format.
std::string WriteCorpus(const extract::TsvCorpus& corpus);

/// WriteCorpus straight to a file.
Status WriteCorpusFile(const extract::TsvCorpus& corpus,
                       const std::string& path);

/// Owning load: parses, validates, and materializes a TsvCorpus equal to
/// the one WriteCorpus serialized (same ids, same records, same
/// dictionaries). Every failure — bad magic, version, truncation,
/// checksum mismatch, out-of-range ids — is a clean Status.
Result<extract::TsvCorpus> LoadCorpus(std::string_view bytes);

/// Reads the file and LoadCorpus()es it. Errors carry the path.
Result<extract::TsvCorpus> LoadCorpusFile(const std::string& path);

/// The six corpus dictionaries, in the block order of the format.
enum class CorpusDict : uint32_t {
  kSubjects = 0,
  kPredicates = 1,
  kObjects = 2,
  kExtractors = 3,
  kUrls = 4,
  kSites = 5,
};
inline constexpr size_t kNumCorpusDicts = 6;

/// Denominator of the kPacked fixed-point confidence encoding (4 decimal
/// digits — the precision WriteExtractionsTsv emits). The writer uses it
/// only when decode(encode(c)) is bit-exact for every record.
inline constexpr uint32_t kConfFixedScale = 10000;

/// Zero-copy view over a corpus image: dictionary lookups and column
/// scans are served straight from `bytes` (no per-row materialization).
/// The backing bytes must outlive the view; CorpusMmapView bundles the
/// mapping with it.
class CorpusView {
 public:
  /// Validates structure + checksums once; accessors cannot fail after.
  static Result<CorpusView> Parse(std::string_view bytes);

  size_t dict_size(CorpusDict dict) const {
    return dicts_[static_cast<size_t>(dict)].offsets.size() - 1;
  }
  /// The interned string for `id`; points into the backing bytes.
  std::string_view dict_entry(CorpusDict dict, uint32_t id) const {
    const Dict& d = dicts_[static_cast<size_t>(dict)];
    return d.bytes.substr(d.offsets[id], d.offsets[id + 1] - d.offsets[id]);
  }

  size_t num_records() const { return record_triple_.size(); }
  size_t num_triples() const { return triple_item_.size(); }
  size_t num_items() const { return item_subject_.size(); }

  // Column scans (element i = record/triple/item i), O(1) random access
  // straight off the backing bytes.
  PackedSpan record_triples() const { return record_triple_; }
  PackedSpan record_extractors() const { return record_extractor_; }
  PackedSpan record_urls() const { return record_url_; }
  Span<const uint8_t> record_flags() const { return record_flag_; }
  PackedSpan triple_items() const { return triple_item_; }
  PackedSpan triple_objects() const { return triple_object_; }
  PackedSpan item_subjects() const { return item_subject_; }
  PackedSpan item_predicates() const { return item_predicate_; }

  // Per-record fields whose columns the writer omits when derivable
  // (see the BlockId comments in format.h).
  uint32_t record_site(size_t r) const {
    return static_cast<uint32_t>(record_site_.empty()
                                     ? url_site_[record_url_[r]]
                                     : record_site_[r]);
  }
  uint32_t record_pattern(size_t r) const {
    return static_cast<uint32_t>(record_pattern_.empty()
                                     ? record_extractor_[r]
                                     : record_pattern_[r]);
  }
  uint32_t record_predicate(size_t r) const {
    return static_cast<uint32_t>(
        record_predicate_.empty()
            ? item_predicate_[triple_item_[record_triple_[r]]]
            : record_predicate_[r]);
  }
  /// Decodes the fixed-point confidence column when the writer chose it
  /// (bit-exact by construction), else reads the raw f32.
  float record_confidence(size_t r) const {
    return conf_fixed4_ ? static_cast<float>(record_conf_fixed_[r]) /
                              static_cast<float>(kConfFixedScale)
                        : record_confidence_[r];
  }

  /// Materializes the owning structs from the view (the owning load is
  /// exactly Parse + Materialize).
  Result<extract::TsvCorpus> Materialize() const;

 private:
  friend Result<extract::TsvCorpus> LoadCorpus(std::string_view bytes);

  struct Dict {
    Span<const uint32_t> offsets;
    std::string_view bytes;
  };

  BlockFile blocks_;
  Dict dicts_[kNumCorpusDicts];
  Span<const uint64_t> meta_;  // num_sites, num_patterns, num_predicates
  Span<const uint8_t> value_kind_;
  PackedSpan value_payload_;
  PackedSpan item_subject_, item_predicate_;
  PackedSpan triple_item_, triple_object_;
  Span<const uint8_t> triple_flag_;
  PackedSpan record_triple_, record_extractor_, record_url_;
  // Empty when the writer omitted the derivable column.
  PackedSpan record_site_, record_pattern_, record_predicate_;
  bool conf_fixed4_ = false;
  PackedSpan record_conf_fixed_;
  Span<const float> record_confidence_;
  Span<const uint8_t> record_flag_;
  Dict extractor_name_;
  Span<const uint8_t> extractor_content_, extractor_has_conf_;
  Span<const uint32_t> extractor_framework_, extractor_linkage_;
  PackedSpan url_site_;
};

/// A corpus view bound to a live memory mapping of the file.
class CorpusMmapView {
 public:
  static Result<CorpusMmapView> Open(const std::string& path);

  const CorpusView& view() const { return view_; }

 private:
  MmapFile map_;
  CorpusView view_;
};

// ---- fused KB --------------------------------------------------------

/// kKbTripleFlags bits.
inline constexpr uint8_t kKbHasProbability = 1;
inline constexpr uint8_t kKbFromFallback = 2;
inline constexpr uint8_t kKbWinner = 4;

/// A fused KB in the store's layout: one member per fused-KB block, ids
/// and encodings aside. kf::FusedKB keeps its data in exactly this form,
/// so WriteFusedKb encodes straight from it and LoadFusedKb fills it
/// straight from the file. The container checks nothing about the KB
/// itself (supporter order, winner flags, duplicate triples) — FusedKB
/// validates those on import.
struct FusedKbColumns {
  std::string method;       // kKbMethod
  uint64_t num_rounds = 0;  // kKbMeta

  // Provenance table, one row per provenance.
  StringArena prov_descriptions;       // kProvDescription
  std::vector<double> prov_accuracy;   // kProvAccuracy
  std::vector<uint8_t> prov_evaluated;  // kProvEvaluated (0/1)
  std::vector<uint32_t> prov_claims;   // kProvClaims

  // Dictionaries (kKbDict*): deduplicated, referenced by id below.
  StringInterner subjects;
  StringInterner predicates;
  StringInterner objects;

  // Triple columns, one row per triple.
  std::vector<uint32_t> triple_subject;    // kKbTripleSubject
  std::vector<uint32_t> triple_predicate;  // kKbTriplePredicate
  std::vector<uint32_t> triple_object;     // kKbTripleObject
  std::vector<double> probability;         // kKbProbability
  std::vector<double> calibrated;          // kKbCalibrated
  std::vector<uint8_t> triple_flags;       // kKbTripleFlags (kKb* bits)

  // Supporter CSR: triple t's provenances are
  // supporters[support_offsets[t], support_offsets[t + 1]).
  std::vector<uint32_t> support_offsets{0};  // kKbSupportOffsets
  std::vector<uint32_t> supporters;          // kKbSupporters

  size_t num_triples() const { return triple_subject.size(); }
  size_t num_provenances() const { return prov_accuracy.size(); }
};

/// Serializes fused-KB columns into the binary fused-KB format. Every
/// column must have its block's row count.
std::string WriteFusedKb(const FusedKbColumns& kb);

Status WriteFusedKbFile(const FusedKbColumns& kb, const std::string& path);

/// Owning load; same validation guarantees as LoadCorpus. Ids are
/// range-checked against their dictionaries, supporters against the
/// provenance table, and a dictionary entry repeated under two ids is
/// rejected.
Result<FusedKbColumns> LoadFusedKb(std::string_view bytes);

Result<FusedKbColumns> LoadFusedKbFile(const std::string& path);

/// Zero-copy view over a fused-KB image. String columns resolve through
/// the on-file dictionaries; the varint-packed supporter CSR is decoded
/// into owned arrays at Parse (everything else stays on the mapping).
class FusedKbView {
 public:
  static Result<FusedKbView> Parse(std::string_view bytes);

  std::string_view method() const { return method_; }
  uint64_t num_rounds() const { return meta_[0]; }
  size_t num_triples() const { return t_subject_.size(); }
  size_t num_provenances() const { return prov_accuracy_.size(); }

  std::string_view subject(uint32_t t) const {
    return DictEntry(subjects_, static_cast<uint32_t>(t_subject_[t]));
  }
  std::string_view predicate(uint32_t t) const {
    return DictEntry(predicates_, static_cast<uint32_t>(t_predicate_[t]));
  }
  std::string_view object(uint32_t t) const {
    return DictEntry(objects_, static_cast<uint32_t>(t_object_[t]));
  }
  std::string_view prov_description(uint32_t p) const {
    return DictEntry(prov_description_, p);
  }

  Span<const double> probabilities() const { return probability_; }
  Span<const double> calibrated() const { return calibrated_; }
  /// kKbHasProbability | kKbFromFallback | kKbWinner.
  Span<const uint8_t> triple_flags() const { return triple_flag_; }
  Span<const double> prov_accuracies() const { return prov_accuracy_; }

  /// Supporting provenance indices of triple `t`, in file order.
  Span<const uint32_t> supporters(uint32_t t) const {
    return Span<const uint32_t>{
        supporters_.data() + support_offsets_[t],
        static_cast<size_t>(support_offsets_[t + 1] - support_offsets_[t])};
  }

  /// Copies the view into owning columns (the owning load is exactly
  /// Parse + Materialize): dictionaries as bulk copies, id columns
  /// widened from their packed width.
  Result<FusedKbColumns> Materialize() const;

 private:
  struct Dict {
    Span<const uint32_t> offsets;
    std::string_view bytes;
  };
  std::string_view DictEntry(const Dict& d, uint32_t id) const {
    return d.bytes.substr(d.offsets[id], d.offsets[id + 1] - d.offsets[id]);
  }

  BlockFile blocks_;
  std::string_view method_;
  Span<const uint64_t> meta_;
  Dict subjects_, predicates_, objects_, prov_description_;
  PackedSpan t_subject_, t_predicate_, t_object_;
  Span<const double> probability_, calibrated_;
  Span<const uint8_t> triple_flag_;
  Span<const double> prov_accuracy_;
  Span<const uint8_t> prov_evaluated_;
  PackedSpan prov_claims_;
  // The CSR is varint-packed on disk; decoded once here.
  std::vector<uint32_t> support_offsets_;
  std::vector<uint32_t> supporters_;
};

/// A fused-KB view bound to a live memory mapping of the file.
class FusedKbMmapView {
 public:
  static Result<FusedKbMmapView> Open(const std::string& path);

  const FusedKbView& view() const { return view_; }

 private:
  MmapFile map_;
  FusedKbView view_;
};

}  // namespace kf::store

#endif  // KF_STORE_STORE_H_
