// TSV import/export for extraction datasets and fusion results, so the
// library can fuse extractions produced by external pipelines.
//
// Extraction TSV columns (header optional, '#' comments skipped):
//   subject <TAB> predicate <TAB> object <TAB> extractor <TAB> url
//   [<TAB> confidence] [<TAB> pattern]
// Lines end in LF or CRLF; the last needs no line end. Columns past the
// seventh are ignored. The confidence grammar is std::from_chars's decimal
// (no leading blank, no '+', no hex form), the whole column, and a value
// in [0,1]; one that underflows a float, like 1e-50, is out of range. An
// empty confidence column means the row has none.
//
// Result TSV columns written by WriteResultsTsv:
//   subject <TAB> predicate <TAB> object <TAB> probability
#ifndef KF_EXTRACT_TSV_IO_H_
#define KF_EXTRACT_TSV_IO_H_

#include <string>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "extract/dataset.h"
#include "kb/value.h"

namespace kf::extract {

/// Holds the dataset together with the string tables needed to resolve ids
/// back to the original names.
struct TsvCorpus {
  ExtractionDataset dataset;
  StringInterner subjects;
  StringInterner predicates;
  StringInterner objects;
  StringInterner extractors;
  StringInterner urls;
  StringInterner sites;
  kb::ValueTable values;
};

/// Parses extraction rows from TSV text in one pass, interning straight
/// from views of `text`; ids are first-seen. Returns InvalidArgument,
/// naming the 1-based line, on rows with fewer than 5 columns or a
/// confidence outside the grammar above.
Result<TsvCorpus> ReadExtractionsTsv(const std::string& text);

/// Reads a TSV file from disk and parses it.
Result<TsvCorpus> ReadExtractionsTsvFile(const std::string& path);

/// Serializes a dataset built by ReadExtractionsTsv back to TSV (lossless
/// for the columns above).
std::string WriteExtractionsTsv(const TsvCorpus& corpus);

/// Serializes per-triple probabilities. Triples without a probability are
/// skipped.
std::string WriteResultsTsv(const TsvCorpus& corpus,
                            const std::vector<double>& probability,
                            const std::vector<uint8_t>& has_probability);

// ---- the fused-KB schema ----
//
// A fused knowledge base (kf::FusedKB) serializes as a row-tagged TSV so
// it can outlive the Session that produced it and cross process
// boundaries (the unit the scale-out roadmap ships around). Lossless:
// doubles are written with 17 significant digits, so import -> export
// reproduces the file and the KB bit-exactly.
//
//   # kf-fused-kb v1                 (comment lines are skipped)
//   M <TAB> method <TAB> rounds
//   P <TAB> description <TAB> accuracy <TAB> evaluated <TAB> claims
//   T <TAB> subject <TAB> predicate <TAB> object <TAB> probability
//     <TAB> calibrated <TAB> has <TAB> fallback <TAB> winner
//     <TAB> supporters
//
// P rows are indexed by file order; a T row's `supporters` column is a
// comma-separated list of those indices (empty = no supporting
// provenance recorded).

/// One provenance row of the fused-KB schema.
struct FusedKbProvRow {
  std::string description;
  double accuracy = 0.0;
  bool evaluated = false;
  uint32_t num_claims = 0;

  friend bool operator==(const FusedKbProvRow& a, const FusedKbProvRow& b) {
    return a.description == b.description && a.accuracy == b.accuracy &&
           a.evaluated == b.evaluated && a.num_claims == b.num_claims;
  }
};

/// One triple row of the fused-KB schema.
struct FusedKbTripleRow {
  std::string subject;
  std::string predicate;
  std::string object;
  double probability = 0.0;
  double calibrated = 0.0;
  bool has_probability = false;
  bool from_fallback = false;
  bool winner = false;
  /// Indices into FusedKbTsv::provenances.
  std::vector<uint32_t> supporters;

  friend bool operator==(const FusedKbTripleRow& a,
                         const FusedKbTripleRow& b) {
    return a.subject == b.subject && a.predicate == b.predicate &&
           a.object == b.object && a.probability == b.probability &&
           a.calibrated == b.calibrated &&
           a.has_probability == b.has_probability &&
           a.from_fallback == b.from_fallback && a.winner == b.winner &&
           a.supporters == b.supporters;
  }
};

/// A fused KB in schema form: what ExportTsv writes and ImportTsv reads.
struct FusedKbTsv {
  std::string method;
  size_t num_rounds = 0;
  std::vector<FusedKbProvRow> provenances;
  std::vector<FusedKbTripleRow> triples;
};

/// Serializes a fused KB (header comment + M/P/T rows).
std::string WriteFusedKbTsv(const FusedKbTsv& kb);

/// Parses WriteFusedKbTsv output, reading numbers with std::from_chars
/// (which round-trips the 17-digit doubles bit-exactly). InvalidArgument
/// on rows with the wrong arity, unparsable numbers/flags, supporter
/// indices out of range, a missing/duplicate M row, or unknown row tags.
Result<FusedKbTsv> ReadFusedKbTsv(const std::string& text);

/// Writes text to a file.
Status WriteFile(const std::string& path, const std::string& text);

/// Reads a whole file into a string.
Result<std::string> ReadFile(const std::string& path);

}  // namespace kf::extract

#endif  // KF_EXTRACT_TSV_IO_H_
