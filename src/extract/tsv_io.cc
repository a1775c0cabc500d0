#include "extract/tsv_io.h"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "common/failpoint.h"
#include "common/string_util.h"

namespace kf::extract {
namespace {

/// Walks the pieces of `text` between `sep`s with memchr, empty pieces
/// included, the way a split would: "" is one empty piece, and "a\t" is
/// "a" then "". Pieces view `text`; nothing is copied. Both readers below
/// scan their lines (through Lines), columns and lists with it.
class Pieces {
 public:
  Pieces(std::string_view text, char sep) : rest_(text), sep_(sep) {}

  /// Sets `piece` to the next piece; false once the last was taken.
  bool Next(std::string_view* piece) {
    if (done_) return false;
    // An empty view may hold a null pointer, which memchr must not see.
    const void* hit = rest_.empty()
                          ? nullptr
                          : std::memchr(rest_.data(), sep_, rest_.size());
    if (hit == nullptr) {
      *piece = rest_;
      done_ = true;
      return true;
    }
    const auto n = static_cast<size_t>(static_cast<const char*>(hit) -
                                       rest_.data());
    *piece = rest_.substr(0, n);
    rest_.remove_prefix(n + 1);
    return true;
  }

 private:
  std::string_view rest_;
  char sep_;
  bool done_ = false;
};

/// Walks the lines of `text` with their 1-based numbers. A CRLF line
/// end's '\r' is not part of the line, so it never sticks to the last
/// column (a confidence, a round count, a supporter list).
class Lines {
 public:
  explicit Lines(std::string_view text) : pieces_(text, '\n') {}

  /// Sets `line` to the next line; false once the last was taken.
  bool Next(std::string_view* line) {
    if (!pieces_.Next(line)) return false;
    ++number_;
    if (!line->empty() && line->back() == '\r') line->remove_suffix(1);
    return true;
  }
  /// The number of the line the last Next() returned.
  size_t number() const { return number_; }

 private:
  Pieces pieces_;
  size_t number_ = 0;
};

/// Splits `line` at tabs: the first `max` columns land in `cols`, and the
/// return value counts them all.
size_t SplitColumns(std::string_view line, std::string_view* cols,
                    size_t max) {
  size_t n = 0;
  Pieces pieces(line, '\t');
  for (std::string_view col; pieces.Next(&col); ++n) {
    if (n < max) cols[n] = col;
  }
  return n;
}

/// Parses all of `s` with std::from_chars: no leading blank or '+', no
/// hex prefix, nothing left over, and in range for T.
template <typename T>
bool ParseWhole(std::string_view s, T* out) {
  const char* end = s.data() + s.size();
  const std::from_chars_result r = std::from_chars(s.data(), end, *out);
  return r.ec == std::errc() && r.ptr == end;
}

// Pattern strings share the extractors interner (they become prov.pattern
// ids), so the meta table must track the interner: extend it until
// index == interner id, keeping dataset.extractors()[prov.extractor] valid
// for every record even when pattern interns interleave with extractor ones.
void AlignExtractorMetas(const TsvCorpus& corpus,
                         std::vector<ExtractorMeta>* metas) {
  for (uint32_t i = static_cast<uint32_t>(metas->size());
       i < corpus.extractors.size(); ++i) {
    ExtractorMeta meta;
    meta.name = std::string(corpus.extractors.Get(i));
    meta.has_confidence = false;
    metas->push_back(std::move(meta));
  }
}

// Registers the extractor on first sight, so ids stay dense.
ExtractorId InternExtractor(TsvCorpus* corpus,
                            std::vector<ExtractorMeta>* metas,
                            std::string_view name, bool has_confidence) {
  uint32_t id = corpus->extractors.Intern(name);
  AlignExtractorMetas(*corpus, metas);
  if (has_confidence) (*metas)[id].has_confidence = true;
  return id;
}

}  // namespace

Result<TsvCorpus> ReadExtractionsTsv(const std::string& text) {
  TsvCorpus corpus;
  std::vector<ExtractorMeta> metas;
  std::vector<SiteId> url_site;
  std::string pattern;  // "<extractor>/<pattern>", reused row to row
  std::string_view cols[7];

  Lines lines(text);
  for (std::string_view line; lines.Next(&line);) {
    const size_t line_no = lines.number();
    if (line.empty() || line[0] == '#') continue;
    const size_t num_cols = SplitColumns(line, cols, 7);
    if (line_no == 1 && num_cols >= 5 && cols[0] == "subject") {
      continue;  // header row
    }
    if (num_cols < 5) {
      return Status::InvalidArgument(
          StrFormat("line %zu: expected >= 5 tab-separated columns, got %zu",
                    line_no, num_cols));
    }
    float confidence = 0.0f;
    const bool has_confidence = num_cols >= 6 && !cols[5].empty();
    // The whole column must parse to a value in [0,1] (NaN fails both).
    if (has_confidence && (!ParseWhole(cols[5], &confidence) ||
                           !(confidence >= 0.0f && confidence <= 1.0f))) {
      return Status::InvalidArgument(
          StrFormat("line %zu: bad confidence '%s'", line_no,
                    std::string(cols[5]).c_str()));
    }

    const kb::DataItem item{corpus.subjects.Intern(cols[0]),
                            corpus.predicates.Intern(cols[1])};
    const kb::ValueId object = corpus.values.Intern(
        kb::Value::OfString(corpus.objects.Intern(cols[2])));

    ExtractionRecord record;
    record.triple = corpus.dataset.InternTriple(item, object, false, false);
    record.prov.extractor =
        InternExtractor(&corpus, &metas, cols[3], has_confidence);
    record.prov.url = corpus.urls.Intern(cols[4]);
    // Ids are first-seen, so a new URL is the next one; a URL seen before
    // keeps the site it got then.
    if (record.prov.url == url_site.size()) {
      url_site.push_back(corpus.sites.Intern(SiteOfUrl(cols[4])));
    }
    record.prov.site = url_site[record.prov.url];
    record.prov.predicate = item.predicate;
    // Optional explicit pattern column; defaults to the extractor itself.
    record.prov.pattern = record.prov.extractor;
    if (num_cols >= 7 && !cols[6].empty()) {
      pattern.assign(cols[3]);
      pattern += '/';
      pattern += cols[6];
      record.prov.pattern = corpus.extractors.Intern(pattern);
    }
    record.confidence = confidence;
    record.has_confidence = has_confidence;
    corpus.dataset.AddRecord(record);
  }
  // A trailing pattern intern can leave the meta table short; align once
  // more so metas.size() == the extractors interner size.
  AlignExtractorMetas(corpus, &metas);
  corpus.dataset.SetExtractors(std::move(metas));
  corpus.dataset.SetUrlSites(std::move(url_site));
  corpus.dataset.SetCounts(corpus.sites.size(), corpus.extractors.size(),
                           corpus.predicates.size());
  return corpus;
}

Result<TsvCorpus> ReadExtractionsTsvFile(const std::string& path) {
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  Result<TsvCorpus> corpus = ReadExtractionsTsv(*text);
  if (!corpus.ok()) {
    // Parse errors carry a 1-based line number; add the file they name.
    return Status(corpus.status().code(),
                  path + ": " + corpus.status().message());
  }
  return corpus;
}

std::string WriteExtractionsTsv(const TsvCorpus& corpus) {
  std::string out = "subject\tpredicate\tobject\textractor\turl\tconfidence\n";
  for (const ExtractionRecord& r : corpus.dataset.records()) {
    const TripleInfo& info = corpus.dataset.triple(r.triple);
    const kb::DataItem& item = corpus.dataset.item(info.item);
    out += corpus.subjects.Get(item.subject);
    out += '\t';
    out += corpus.predicates.Get(item.predicate);
    out += '\t';
    out += corpus.objects.Get(corpus.values.Get(info.object).string_id);
    out += '\t';
    out += corpus.extractors.Get(r.prov.extractor);
    out += '\t';
    out += corpus.urls.Get(r.prov.url);
    out += '\t';
    if (r.has_confidence) AppendFixed(&out, r.confidence, 4);
    out += '\n';
  }
  return out;
}

std::string WriteResultsTsv(const TsvCorpus& corpus,
                            const std::vector<double>& probability,
                            const std::vector<uint8_t>& has_probability) {
  std::string out = "subject\tpredicate\tobject\tprobability\n";
  for (kb::TripleId t = 0; t < corpus.dataset.num_triples(); ++t) {
    if (t >= has_probability.size() || !has_probability[t]) continue;
    const TripleInfo& info = corpus.dataset.triple(t);
    const kb::DataItem& item = corpus.dataset.item(info.item);
    out += corpus.subjects.Get(item.subject);
    out += '\t';
    out += corpus.predicates.Get(item.predicate);
    out += '\t';
    out += corpus.objects.Get(corpus.values.Get(info.object).string_id);
    out += '\t';
    AppendFixed(&out, probability[t], 6);
    out += '\n';
  }
  return out;
}

Status WriteFile(const std::string& path, const std::string& text) {
  if (const int e = fault::Inject("tsv.write.open")) {
    return Status::FromErrno("open", path, e);
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::FromErrno("open", path);
  size_t written = 0;
  if (const int e = fault::Inject("tsv.write.write")) {
    // Model a partial write: the file exists and may hold a prefix.
    std::fclose(f);
    return Status::FromErrno("write", path, e);
  }
  written = std::fwrite(text.data(), 1, text.size(), f);
  const int write_errno = errno;
  if (std::fclose(f) != 0 && written == text.size()) {
    return Status::FromErrno("close", path);
  }
  if (written != text.size()) {
    return Status::FromErrno("write", path, write_errno);
  }
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  if (const int e = fault::Inject("tsv.read.open")) {
    return Status::FromErrno("open", path, e);
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::FromErrno("open", path);
  std::string text;
  char buffer[1 << 16];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    text.append(buffer, n);
  }
  // fread returning 0 means EOF or error; only ferror distinguishes a
  // truncated read from a complete one.
  const bool read_error =
      std::ferror(f) != 0 || fault::Inject("tsv.read.read") != 0;
  std::fclose(f);
  if (read_error) return Status::FromErrno("read", path, EIO);
  return text;
}

// ---- the fused-KB schema ----

namespace {

/// %.17g round-trips every finite double bit-exactly through from_chars.
void AppendDouble(std::string* out, double v) { AppendDouble17(out, v); }

bool ParseFlag(std::string_view s, bool* out) {
  if (s == "0") {
    *out = false;
    return true;
  }
  if (s == "1") {
    *out = true;
    return true;
  }
  return false;
}

}  // namespace

std::string WriteFusedKbTsv(const FusedKbTsv& kb) {
  std::string out = "# kf-fused-kb v1\n";
  out += StrFormat("M\t%s\t%zu\n", kb.method.c_str(), kb.num_rounds);
  for (const FusedKbProvRow& p : kb.provenances) {
    out += "P\t";
    out += p.description;
    out += '\t';
    AppendDouble(&out, p.accuracy);
    out += p.evaluated ? "\t1\t" : "\t0\t";
    AppendU32(&out, p.num_claims);
    out += '\n';
  }
  for (const FusedKbTripleRow& t : kb.triples) {
    out += "T\t";
    out += t.subject;
    out += '\t';
    out += t.predicate;
    out += '\t';
    out += t.object;
    out += '\t';
    AppendDouble(&out, t.probability);
    out += '\t';
    AppendDouble(&out, t.calibrated);
    out += t.has_probability ? "\t1" : "\t0";
    out += t.from_fallback ? "\t1" : "\t0";
    out += t.winner ? "\t1\t" : "\t0\t";
    for (size_t i = 0; i < t.supporters.size(); ++i) {
      if (i > 0) out += ',';
      AppendU32(&out, t.supporters[i]);
    }
    out += '\n';
  }
  return out;
}

Result<FusedKbTsv> ReadFusedKbTsv(const std::string& text) {
  FusedKbTsv kb;
  bool saw_meta = false;
  std::string_view cols[10];
  Lines lines(text);
  for (std::string_view line; lines.Next(&line);) {
    const size_t line_no = lines.number();
    if (line.empty() || line[0] == '#') continue;
    const size_t num_cols = SplitColumns(line, cols, 10);
    const std::string_view tag = cols[0];
    if (tag == "M") {
      if (saw_meta) {
        return Status::InvalidArgument(
            StrFormat("line %zu: duplicate M row", line_no));
      }
      if (num_cols != 3) {
        return Status::InvalidArgument(
            StrFormat("line %zu: M row expects 3 columns, got %zu", line_no,
                      num_cols));
      }
      uint32_t rounds = 0;
      if (!ParseWhole(cols[2], &rounds)) {
        return Status::InvalidArgument(
            StrFormat("line %zu: bad round count '%s'", line_no,
                      std::string(cols[2]).c_str()));
      }
      kb.method = cols[1];
      kb.num_rounds = rounds;
      saw_meta = true;
    } else if (tag == "P") {
      if (num_cols != 5) {
        return Status::InvalidArgument(
            StrFormat("line %zu: P row expects 5 columns, got %zu", line_no,
                      num_cols));
      }
      FusedKbProvRow row;
      row.description = cols[1];
      if (!ParseWhole(cols[2], &row.accuracy) ||
          !ParseFlag(cols[3], &row.evaluated) ||
          !ParseWhole(cols[4], &row.num_claims)) {
        return Status::InvalidArgument(
            StrFormat("line %zu: bad P row", line_no));
      }
      kb.provenances.push_back(std::move(row));
    } else if (tag == "T") {
      if (num_cols != 10) {
        return Status::InvalidArgument(
            StrFormat("line %zu: T row expects 10 columns, got %zu",
                      line_no, num_cols));
      }
      FusedKbTripleRow row;
      row.subject = cols[1];
      row.predicate = cols[2];
      row.object = cols[3];
      if (!ParseWhole(cols[4], &row.probability) ||
          !ParseWhole(cols[5], &row.calibrated) ||
          !ParseFlag(cols[6], &row.has_probability) ||
          !ParseFlag(cols[7], &row.from_fallback) ||
          !ParseFlag(cols[8], &row.winner)) {
        return Status::InvalidArgument(
            StrFormat("line %zu: bad T row", line_no));
      }
      if (!cols[9].empty()) {
        Pieces supporters(cols[9], ',');
        for (std::string_view s; supporters.Next(&s);) {
          uint32_t prov = 0;
          if (!ParseWhole(s, &prov)) {
            return Status::InvalidArgument(
                StrFormat("line %zu: bad supporter index '%s'", line_no,
                          std::string(s).c_str()));
          }
          row.supporters.push_back(prov);
        }
      }
      kb.triples.push_back(std::move(row));
    } else {
      return Status::InvalidArgument(
          StrFormat("line %zu: unknown row tag '%s'", line_no,
                    std::string(tag).c_str()));
    }
  }
  if (!saw_meta) {
    return Status::InvalidArgument(
        "not a fused-KB TSV (missing the M metadata row)");
  }
  // Supporter indices must reference P rows (P rows may legally follow T
  // rows of a hand-edited file, so validate after the full pass).
  for (const FusedKbTripleRow& t : kb.triples) {
    for (uint32_t p : t.supporters) {
      if (p >= kb.provenances.size()) {
        return Status::InvalidArgument(
            StrFormat("triple (%s, %s, %s): supporter index %u out of "
                      "range (%zu provenances)",
                      t.subject.c_str(), t.predicate.c_str(),
                      t.object.c_str(), p, kb.provenances.size()));
      }
    }
  }
  return kb;
}

}  // namespace kf::extract
