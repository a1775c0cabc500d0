// The knowledge-fusion input: a bag of extraction records, each pairing a
// unique triple with a full provenance and an optional extractor confidence
// (Definition 3.1). Everything is interned: fusion hot loops see only dense
// ids.
#ifndef KF_EXTRACT_DATASET_H_
#define KF_EXTRACT_DATASET_H_

#include <string>
#include <vector>

#include "common/flat_table.h"
#include "common/status.h"
#include "extract/provenance.h"
#include "kb/ids.h"

namespace kf::extract {

/// Why an extraction deviates from the truth. The synthetic corpus records
/// the cause of every corruption, which lets the error-analysis bench
/// (Fig. 17) categorize false positives/negatives programmatically instead
/// of by manual inspection.
enum class ErrorClass : uint8_t {
  kNone = 0,                  // faithful extraction of a true source claim
  kSourceError = 1,           // source claimed a wrong value; extraction OK
  kTripleIdentification = 2,  // wrong words taken as the triple (Sec 3.1.3)
  kEntityLinkage = 3,         // subject linked to the wrong entity
  kPredicateLinkage = 4,      // relation mapped to the wrong predicate
  kMoreSpecificValue = 5,     // correct but more specific than the KB value
  kMoreGeneralValue = 6,      // correct but more general than the KB value
};

const char* ErrorClassName(ErrorClass e);

/// Per-unique-triple metadata.
struct TripleInfo {
  kb::DataItemId item = kb::kInvalidId;
  kb::ValueId object = kb::kInvalidId;
  /// Exactly matches a true triple of the synthetic world.
  bool true_in_world = false;
  /// Not an exact truth but hierarchy-compatible with one (more specific or
  /// more general value), i.e. actually correct under Section 5.4.
  bool hierarchy_true = false;

  friend bool operator==(const TripleInfo& a, const TripleInfo& b) {
    return a.item == b.item && a.object == b.object &&
           a.true_in_world == b.true_in_world &&
           a.hierarchy_true == b.hierarchy_true;
  }
};

/// One extraction event: extractor X extracted `triple` from URL Y.
struct ExtractionRecord {
  kb::TripleId triple = kb::kInvalidId;
  Provenance prov;
  float confidence = 0.0f;
  bool has_confidence = false;
  ErrorClass error = ErrorClass::kNone;

  friend bool operator==(const ExtractionRecord& a,
                         const ExtractionRecord& b) {
    return a.triple == b.triple && a.prov == b.prov &&
           a.confidence == b.confidence &&
           a.has_confidence == b.has_confidence && a.error == b.error;
  }
};

/// Static description of one extractor (name + content type), mirroring the
/// 12 systems of Table 2.
struct ExtractorMeta {
  std::string name;
  ContentType content = ContentType::kTxt;
  bool has_confidence = true;
  /// Extractors sharing an extraction framework (e.g. TXT2-TXT4) make
  /// correlated mistakes; Section 5.2.
  int framework_group = -1;
  /// Extractors sharing an entity-linkage component make common linkage
  /// errors even across content types.
  int linkage_group = -1;

  friend bool operator==(const ExtractorMeta& a, const ExtractorMeta& b) {
    return a.name == b.name && a.content == b.content &&
           a.has_confidence == b.has_confidence &&
           a.framework_group == b.framework_group &&
           a.linkage_group == b.linkage_group;
  }
};

/// The fully interned fusion input plus the side tables needed to project
/// provenances and to compute corpus statistics.
class ExtractionDataset {
 public:
  ExtractionDataset() = default;
  ExtractionDataset(const ExtractionDataset&) = delete;
  ExtractionDataset& operator=(const ExtractionDataset&) = delete;
  ExtractionDataset(ExtractionDataset&&) = default;
  ExtractionDataset& operator=(ExtractionDataset&&) = default;

  // -- construction (used by the corpus generator and TSV loader) --

  /// Pre-sizes the item/triple/record storage (vectors and hash
  /// indexes) for a bulk load of known counts — e.g. the binary corpus
  /// reader, which knows every column length up front.
  void Reserve(size_t num_items, size_t num_triples, size_t num_records) {
    items_.reserve(num_items);
    item_index_.Reserve(num_items);
    triples_.reserve(num_triples);
    triple_index_.Reserve(num_triples);
    records_.reserve(num_records);
  }

  kb::DataItemId InternItem(const kb::DataItem& item);

  /// Interns the unique triple (item, object), interning its item first.
  /// On first sight stores the truth flags; later sights OR them in (any
  /// faithful path marks it true).
  kb::TripleId InternTriple(const kb::DataItem& item, kb::ValueId object,
                            bool true_in_world, bool hierarchy_true);

  void AddRecord(const ExtractionRecord& record);

  /// Incremental ingest: appends a batch of extraction records whose
  /// triples are already interned (via InternTriple). Consumers holding a
  /// fusion::ClaimGraph over this dataset pick the new records up through
  /// ClaimGraph::Update / FusionEngine::Refresh, which rebuild only the
  /// shards the appended items touch. Rejects records referencing unknown
  /// triples; on error the dataset is unchanged.
  Status Append(const std::vector<ExtractionRecord>& records);

  void SetExtractors(std::vector<ExtractorMeta> extractors);
  void SetUrlSites(std::vector<SiteId> url_site);
  void SetCounts(size_t num_sites, size_t num_patterns,
                 size_t num_predicates);

  // -- read access --

  const std::vector<ExtractionRecord>& records() const { return records_; }
  const std::vector<TripleInfo>& triples() const { return triples_; }
  const std::vector<kb::DataItem>& items() const { return items_; }
  const std::vector<ExtractorMeta>& extractors() const { return extractors_; }

  const TripleInfo& triple(kb::TripleId id) const { return triples_[id]; }
  const kb::DataItem& item(kb::DataItemId id) const { return items_[id]; }

  size_t num_records() const { return records_.size(); }
  size_t num_triples() const { return triples_.size(); }
  size_t num_items() const { return items_.size(); }
  size_t num_extractors() const { return extractors_.size(); }
  size_t num_urls() const { return url_site_.size(); }
  size_t num_sites() const { return num_sites_; }
  size_t num_patterns() const { return num_patterns_; }
  size_t num_predicates() const { return num_predicates_; }

  SiteId site_of_url(UrlId url) const { return url_site_[url]; }

  /// Looks up a unique triple id; kInvalidId when absent.
  kb::TripleId FindTriple(const kb::DataItem& item, kb::ValueId object) const;

 private:
  std::vector<ExtractionRecord> records_;
  std::vector<TripleInfo> triples_;
  std::vector<kb::DataItem> items_;
  /// (subject, predicate) -> item id.
  KeyIndex item_index_;
  /// (item id, object) -> triple id.
  KeyIndex triple_index_;
  std::vector<ExtractorMeta> extractors_;
  std::vector<SiteId> url_site_;
  size_t num_sites_ = 0;
  size_t num_patterns_ = 0;
  size_t num_predicates_ = 0;
};

/// Re-interns the first `n` records of `src` into a fresh dataset (triple
/// ids assigned in record first-seen order, so two clones with the same
/// record sequence agree exactly). The standard way to carve a streaming
/// base out of an existing corpus: clone a prefix, then feed the tail
/// through ReinternTail + Append.
ExtractionDataset CloneRecordPrefix(const ExtractionDataset& src, size_t n);

/// Interns the tail records [n, end) of `src` against `dst` and returns
/// them as a batch ready for dst->Append().
std::vector<ExtractionRecord> ReinternTail(const ExtractionDataset& src,
                                           size_t n, ExtractionDataset* dst);

}  // namespace kf::extract

#endif  // KF_EXTRACT_DATASET_H_
