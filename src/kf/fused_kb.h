// kf::FusedKB — the fused knowledge base as a first-class API object. The
// paper's end product is not a vector of floats but a
// probability-annotated KB: a calibrated truth probability per triple,
// the winning value per data item, and the supporting/contradicting
// provenances (with their converged accuracies) behind each verdict.
// Session::Snapshot() materializes exactly that from the last run:
//
//   auto kb = session.Snapshot(naming);            // Result<FusedKB>
//   auto v = kb->Lookup("TomCruise", "birth_date");  // winning value
//   auto why = kb->Explain("TomCruise", "birth_date", "1962-07-03");
//   for (auto& v : kb->TopK(10)) ...               // ordered by probability
//   kb->ExportTsv("fused.tsv");                    // outlives the Session
//   auto back = FusedKB::ImportTsv("fused.tsv");   // *back == *kb
//
// A FusedKB is a compact, session-independent deep copy: it owns its
// string tables and indexes, so it stays valid and bit-identical after
// the Session appends, re-fuses, switches methods, or is destroyed — the
// serializable unit the scale-out roadmap ships between processes.
//
// Its data is flat columns in the kf::store fused-KB layout
// (store::FusedKbColumns: arena dictionaries, per-triple id and
// probability columns, the supporter CSR, the provenance table), so the
// binary export writes blocks straight from memory and dropping a KB
// frees a few dozen buffers, not one node per string. Lookups are
// O(group): hash the names to ids, find the data item in a flat table,
// and scan only that item's triples — never an O(corpus) scan.
#ifndef KF_KF_FUSED_KB_H_
#define KF_KF_FUSED_KB_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_table.h"
#include "common/hash.h"
#include "common/label.h"
#include "common/status.h"
#include "extract/dataset.h"
#include "extract/tsv_io.h"
#include "fusion/engine.h"
#include "store/store.h"

namespace kf {

/// Resolves interned dataset ids to the strings stored in a snapshot.
/// Every callback is optional: missing ones synthesize stable "s12"-style
/// names, so id-only datasets (e.g. synthetic corpora) snapshot fine.
/// Extractor names come from the dataset's ExtractorMeta table.
/// Callbacks are only invoked during the Snapshot() call and may borrow.
/// They must be pure functions of the id: Snapshot() calls each one once
/// per distinct id and reuses the name for every later occurrence.
struct SnapshotNaming {
  std::function<std::string(kb::EntityId)> subject;
  std::function<std::string(kb::PredicateId)> predicate;
  std::function<std::string(kb::ValueId)> object;
  std::function<std::string(extract::UrlId)> url;
  std::function<std::string(extract::SiteId)> site;
  std::function<std::string(extract::PatternId)> pattern;

  /// The name tables of a TSV-loaded corpus. Borrows `corpus`; use the
  /// returned naming before the corpus goes away.
  static SnapshotNaming FromCorpus(const extract::TsvCorpus& corpus);
};

/// One fused triple's verdict. The string_views point into the FusedKB's
/// own tables and stay valid for its lifetime.
struct KbVerdict {
  std::string_view subject;
  std::string_view predicate;
  std::string_view object;
  /// The raw fused probability, bit-identical to the FusionResult the
  /// snapshot was taken from. Meaningful only when has_probability.
  double probability = 0.0;
  /// Calibrated through the gold sample's calibration bins when the
  /// snapshot got gold labels; equal to `probability` otherwise.
  double calibrated = 0.0;
  bool has_probability = false;
  bool from_fallback = false;
  /// Whether this value won its data item (highest probability among the
  /// item's predicted values; ties break toward the earlier triple).
  bool winner = false;
  /// Triple index within the KB (== the dataset TripleId at snapshot).
  uint32_t index = 0;
};

/// One provenance row of the KB: the pseudo-source's rendered identity
/// and its converged accuracy. The description views the KB's own table.
struct KbProvenance {
  std::string_view description;
  double accuracy = 0.0;
  /// Whether the accuracy is data-driven (vs the default).
  bool evaluated = false;
  /// Claims the provenance made in the run.
  uint32_t num_claims = 0;
};

/// One provenance's contribution to a verdict (one Explain() row).
struct KbEvidence {
  /// Index into FusedKB::provenance().
  uint32_t provenance = 0;
  std::string_view description;
  /// The value this provenance actually claimed (== the queried object
  /// for supporting rows, a rival value for contradicting rows).
  std::string_view object;
  /// The provenance's converged accuracy after the run.
  double accuracy = 0.0;
  /// Its vote weight in the scorers' log-odds space: ln(a / (1 - a)).
  double vote = 0.0;
  /// Whether the accuracy is data-driven (vs the default).
  bool evaluated = false;
  /// True: claims the queried value. False: claims a rival value of the
  /// same data item, i.e. contradicts under the single-truth assumption.
  bool supports = false;
};

class FusedKB {
 public:
  static constexpr uint32_t kNone = 0xffffffffu;

  FusedKB() = default;
  /// Owns interners; movable like them, not copyable (export/import or
  /// re-snapshot to duplicate). Moves keep every heap buffer, so views
  /// handed out by queries stay valid in the moved-to KB.
  FusedKB(FusedKB&&) = default;
  FusedKB& operator=(FusedKB&&) = default;

  // ---- queries ----

  /// The winning value of data item (subject, predicate), with its
  /// probability. Empty when the item is unknown or none of its values
  /// received a probability.
  std::optional<KbVerdict> Lookup(std::string_view subject,
                                  std::string_view predicate) const;

  /// The verdict on one specific triple (which may be a losing value of
  /// its item). Empty when the triple is not in the KB. Scans the item's
  /// triples: O(group).
  std::optional<KbVerdict> Verdict(std::string_view subject,
                                   std::string_view predicate,
                                   std::string_view object) const;

  /// Why the KB believes what it believes about a triple: every
  /// provenance of the triple's data item, with its converged accuracy
  /// and vote weight — supporting rows first, then the contradicting
  /// claims on rival values. Empty when the triple is not in the KB.
  std::vector<KbEvidence> Explain(std::string_view subject,
                                  std::string_view predicate,
                                  std::string_view object) const;

  /// The k highest-probability predicted triples, probability descending
  /// (ties break toward the earlier triple).
  std::vector<KbVerdict> TopK(size_t k) const;

  /// Every predicted triple with probability >= min_probability, ordered
  /// as TopK.
  std::vector<KbVerdict> AboveThreshold(double min_probability) const;

  // ---- raw access (index order == snapshot TripleId order) ----

  size_t num_triples() const { return columns_.num_triples(); }
  size_t num_items() const { return item_winner_.size(); }
  size_t num_provenances() const { return columns_.num_provenances(); }
  /// Registry name of the method that produced the KB.
  const std::string& method() const { return columns_.method; }
  size_t num_rounds() const {
    return static_cast<size_t>(columns_.num_rounds);
  }

  KbVerdict verdict(uint32_t index) const;
  KbProvenance provenance(uint32_t p) const;
  /// Supporting provenance indices of one triple (strictly ascending).
  std::vector<uint32_t> supporters(uint32_t index) const;

  // ---- serialization ----
  //
  // Two wire formats: the row-tagged TSV of extract::FusedKbTsv (ToTsv)
  // and the kf::store binary columnar container (ToBinary) — ~3-4x
  // smaller and written straight from the columns. Both importers land in
  // one validated construction: unit-interval checks, strictly ascending
  // supporters, winner-flag consistency, duplicate detection, index build.

  std::string ToTsv() const;
  Status ExportTsv(const std::string& path) const;
  static Result<FusedKB> FromTsv(const std::string& text);
  static Result<FusedKB> ImportTsv(const std::string& path);

  /// The kf::store binary image (content kind fused-kb).
  std::string ToBinary() const;
  Status ExportBinary(const std::string& path) const;
  static Result<FusedKB> FromBinary(std::string_view bytes);
  static Result<FusedKB> ImportBinary(const std::string& path);

  /// Deep content equality: method, rounds, provenance table, and every
  /// triple's names, probabilities (bitwise), flags, and supporters.
  friend bool operator==(const FusedKB& a, const FusedKB& b);
  friend bool operator!=(const FusedKB& a, const FusedKB& b) {
    return !(a == b);
  }

  /// Builds the snapshot from retained engine state: `result` must be
  /// the engine's last run over `dataset` (kf::Session::Snapshot passes
  /// exactly that). With `gold` (sized like the result), raw scores are
  /// additionally mapped through the gold sample's calibration bins into
  /// KbVerdict::calibrated. Fails on an empty result or mis-sized gold,
  /// and with InvalidArgument naming the strings when `naming` renders
  /// two data items as one (subject, predicate) pair or two values of one
  /// item as one object (tab/newline sanitizing can cause either).
  static Result<FusedKB> Snapshot(const extract::ExtractionDataset& dataset,
                                  const fusion::FusionEngine& engine,
                                  const fusion::FusionResult& result,
                                  std::string method,
                                  const SnapshotNaming& naming,
                                  const std::vector<Label>* gold = nullptr);

 private:
  /// One (subject id, predicate id) -> item entry of item_table_.
  struct ItemSlot {
    uint32_t subject = 0;
    uint32_t predicate = 0;
    uint32_t item = kNone;  // kNone: empty
    bool empty() const { return item == kNone; }
    uint64_t hash() const { return ItemHash(subject, predicate); }
  };
  static uint64_t ItemHash(uint32_t subject, uint32_t predicate) {
    return Mix64((static_cast<uint64_t>(subject) << 32) | predicate);
  }

  /// Validated construction from imported columns (both importers).
  static Result<FusedKB> FromColumns(store::FusedKbColumns columns);
  /// Derives the item CSR, winners, and the probability order from the
  /// columns and each triple's item (`num_items` items, numbered
  /// first-seen, already in the table); fails on a duplicate triple.
  Status BuildIndexes(const std::vector<uint32_t>& triple_item,
                      size_t num_items);
  /// The triple of `item` whose object id is `object`, or kNone.
  uint32_t FindTriple(uint32_t item, uint32_t object) const;
  /// The item of (subject, predicate) ids; claims it for `item` when
  /// absent.
  uint32_t InsertItem(uint32_t subject, uint32_t predicate, uint32_t item);
  /// Item of (subject, predicate) names, or kNone.
  uint32_t FindItem(std::string_view subject,
                    std::string_view predicate) const;
  KbVerdict MakeVerdict(uint32_t t) const;

  store::FusedKbColumns columns_;

  // ---- derived lookup structures ----
  FlatTable<ItemSlot> item_table_;
  /// Item -> its triples in index order (CSR).
  std::vector<uint32_t> item_offsets_{0};
  std::vector<uint32_t> item_triples_;
  /// Item -> winning triple, kNone when nothing predicted.
  std::vector<uint32_t> item_winner_;
  /// Predicted triples by (probability desc, index asc).
  std::vector<uint32_t> by_probability_;
};

}  // namespace kf

#endif  // KF_KF_FUSED_KB_H_
