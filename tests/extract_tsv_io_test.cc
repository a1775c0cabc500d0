#include "extract/tsv_io.h"

#include <gtest/gtest.h>

#include <charconv>
#include <cstring>
#include <sstream>

#include "common/checksum.h"
#include "common/random.h"
#include "common/string_util.h"
#include "fusion/engine.h"
#include "synth/corpus.h"

namespace kf::extract {
namespace {

constexpr const char* kSample =
    "subject\tpredicate\tobject\textractor\turl\tconfidence\n"
    "# a comment line\n"
    "TomCruise\tbirth_date\t1962-07-03\tdom\thttps://a.org/p1\t0.9\n"
    "TomCruise\tbirth_date\t1962-07-03\ttxt\thttps://b.org/p2\t0.7\n"
    "TomCruise\tbirth_date\t1963-07-03\ttxt\thttps://c.org/p3\t0.2\n"
    "TopGun\trelease_year\t1986\ttbl\thttps://a.org/p4\n";

TEST(TsvIoTest, ParsesRowsAndInterning) {
  auto result = ReadExtractionsTsv(kSample);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const TsvCorpus& corpus = *result;
  EXPECT_EQ(corpus.dataset.num_records(), 4u);
  EXPECT_EQ(corpus.dataset.num_triples(), 3u);
  EXPECT_EQ(corpus.dataset.num_items(), 2u);
  EXPECT_EQ(corpus.dataset.num_extractors(), 3u);
  EXPECT_EQ(corpus.dataset.num_urls(), 4u);
  // Site extraction groups a.org pages together.
  EXPECT_EQ(corpus.dataset.num_sites(), 3u);
  EXPECT_EQ(corpus.dataset.site_of_url(0), corpus.dataset.site_of_url(3));
}

TEST(TsvIoTest, ConfidenceOptionalPerRow) {
  auto result = ReadExtractionsTsv(kSample);
  ASSERT_TRUE(result.ok());
  const auto& records = result->dataset.records();
  EXPECT_TRUE(records[0].has_confidence);
  EXPECT_FLOAT_EQ(records[0].confidence, 0.9f);
  EXPECT_FALSE(records[3].has_confidence);
}

TEST(TsvIoTest, RejectsShortRows) {
  auto result = ReadExtractionsTsv("a\tb\tc\n");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TsvIoTest, RejectsBadConfidence) {
  auto result =
      ReadExtractionsTsv("s\tp\to\te\tu\tnot_a_number\n");
  EXPECT_FALSE(result.ok());
  auto result2 = ReadExtractionsTsv("s\tp\to\te\tu\t1.7\n");
  EXPECT_FALSE(result2.ok());
  // NaN fails both range comparisons, and a parsed prefix is not a number.
  // The grammar is std::from_chars's: no leading blank, no '+', no hex,
  // and a decimal that underflows a float is out of range.
  for (const char* bad :
       {"nan", "-nan", "0.5junk", " 0.5", "+0.5", "0x1p-1", "1e-50"}) {
    auto rejected =
        ReadExtractionsTsv(std::string("s\tp\to\te\tu\t") + bad + "\n");
    ASSERT_FALSE(rejected.ok()) << bad;
    EXPECT_NE(rejected.status().message().find("line 1: bad confidence"),
              std::string::npos)
        << rejected.status().ToString();
  }
}

TEST(TsvIoTest, CrlfLineEndsParseLikeLf) {
  std::string crlf = kSample;
  for (size_t at = crlf.find('\n'); at != std::string::npos;
       at = crlf.find('\n', at + 2)) {
    crlf.insert(at, 1, '\r');
  }
  auto lf = ReadExtractionsTsv(kSample);
  auto result = ReadExtractionsTsv(crlf);
  ASSERT_TRUE(lf.ok());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->dataset.num_records(), lf->dataset.num_records());
  for (size_t i = 0; i < lf->dataset.num_records(); ++i) {
    EXPECT_EQ(result->dataset.records()[i].confidence,
              lf->dataset.records()[i].confidence);
  }
  EXPECT_EQ(result->urls.Get(3), lf->urls.Get(3));  // the last, 5-column row
}

TEST(TsvIoTest, RoundTrip) {
  auto first = ReadExtractionsTsv(kSample);
  ASSERT_TRUE(first.ok());
  std::string serialized = WriteExtractionsTsv(*first);
  auto second = ReadExtractionsTsv(serialized);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->dataset.num_records(), first->dataset.num_records());
  EXPECT_EQ(second->dataset.num_triples(), first->dataset.num_triples());
  EXPECT_EQ(second->dataset.num_extractors(),
            first->dataset.num_extractors());
}

TEST(TsvIoTest, FuseAndExportResults) {
  auto corpus = ReadExtractionsTsv(kSample);
  ASSERT_TRUE(corpus.ok());
  fusion::FusionOptions opts = fusion::FusionOptions::PopAccu();
  opts.granularity = Granularity::ExtractorSite();
  auto fused = fusion::Fuse(corpus->dataset, opts);
  std::string tsv = WriteResultsTsv(*corpus, fused.probability,
                                    fused.has_probability);
  // Header + 3 unique triples.
  EXPECT_EQ(std::count(tsv.begin(), tsv.end(), '\n'), 4);
  EXPECT_NE(tsv.find("1962-07-03"), std::string::npos);
  // The supported birth date outranks the conflicting one.
  size_t good = tsv.find("1962-07-03");
  size_t bad = tsv.find("1963-07-03");
  ASSERT_NE(bad, std::string::npos);
  double p_good = std::stod(tsv.substr(tsv.find('\t', good) + 1));
  (void)p_good;
  ASSERT_NE(good, std::string::npos);
}

TEST(TsvIoTest, FileRoundTrip) {
  auto corpus = ReadExtractionsTsv(kSample);
  ASSERT_TRUE(corpus.ok());
  std::string path = ::testing::TempDir() + "/kf_tsv_io_test.tsv";
  ASSERT_TRUE(WriteFile(path, WriteExtractionsTsv(*corpus)).ok());
  auto loaded = ReadExtractionsTsvFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->dataset.num_records(), corpus->dataset.num_records());
}

TEST(TsvIoTest, MissingFileIsIOError) {
  auto result = ReadExtractionsTsvFile("/nonexistent/path/file.tsv");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(TsvIoTest, FileParseErrorsNameFileAndLine) {
  // Row 3 (1-based) is short; the error must say which file and line.
  std::string path = ::testing::TempDir() + "/kf_tsv_io_badrow.tsv";
  ASSERT_TRUE(WriteFile(path,
                        "s\tp\to\te\tu\t0.5\n"
                        "# comment\n"
                        "only\ttwo\n")
                  .ok());
  auto result = ReadExtractionsTsvFile(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find(path), std::string::npos)
      << result.status().message();
  EXPECT_NE(result.status().message().find("line 3"), std::string::npos)
      << result.status().message();
  std::remove(path.c_str());
}

TEST(TsvIoTest, FileBadConfidenceNamesFileAndLine) {
  std::string path = ::testing::TempDir() + "/kf_tsv_io_badconf.tsv";
  ASSERT_TRUE(WriteFile(path, "s\tp\to\te\tu\t7.5\n").ok());
  auto result = ReadExtractionsTsvFile(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(path), std::string::npos);
  EXPECT_NE(result.status().message().find("line 1"), std::string::npos)
      << result.status().message();
  std::remove(path.c_str());
}

// ---- the parsed corpus, bit for bit ----

// CRC-32 over everything a parse produces: records, triples, items,
// extractor metas, URL -> site, values and the six interner arenas. Fields
// are added one by one, so struct padding never reaches the checksum.
uint32_t CorpusCrc(const TsvCorpus& corpus) {
  uint32_t crc = 0;
  auto add = [&crc](const auto& field) {
    crc = Crc32(&field, sizeof(field), crc);
  };
  auto add_bytes = [&crc](std::string_view bytes) { crc = Crc32(bytes, crc); };
  const ExtractionDataset& d = corpus.dataset;
  for (const ExtractionRecord& r : d.records()) {
    add(r.triple);
    add(r.prov.extractor);
    add(r.prov.url);
    add(r.prov.site);
    add(r.prov.pattern);
    add(r.prov.predicate);
    add(r.confidence);
    add(r.has_confidence);
    add(r.error);
  }
  for (const TripleInfo& t : d.triples()) {
    add(t.item);
    add(t.object);
    add(t.true_in_world);
    add(t.hierarchy_true);
  }
  for (const kb::DataItem& item : d.items()) {
    add(item.subject);
    add(item.predicate);
  }
  for (const ExtractorMeta& m : d.extractors()) {
    add_bytes(m.name);
    add(m.content);
    add(m.has_confidence);
    add(m.framework_group);
    add(m.linkage_group);
  }
  for (UrlId u = 0; u < d.num_urls(); ++u) add(d.site_of_url(u));
  add(d.num_sites());
  add(d.num_patterns());
  add(d.num_predicates());
  for (kb::ValueId v = 0; v < corpus.values.size(); ++v) {
    const kb::Value& value = corpus.values.Get(v);
    uint64_t number_bits;
    std::memcpy(&number_bits, &value.number, sizeof(number_bits));
    add(value.kind);
    add(value.entity);
    add(value.string_id);
    add(number_bits);
  }
  for (const StringInterner* interner :
       {&corpus.subjects, &corpus.predicates, &corpus.objects,
        &corpus.extractors, &corpus.urls, &corpus.sites}) {
    const StringArena& arena = interner->strings();
    crc = Crc32(arena.offsets().data(),
                arena.offsets().size() * sizeof(uint32_t), crc);
    add_bytes(arena.bytes());
  }
  return crc;
}

// Every awkward shape at once: a header, comments, CRLF and LF line ends,
// blank lines, an empty confidence, pattern columns (one empty), a row
// wider than 7 columns, URLs with and without scheme or path, an
// extractor named like an earlier pattern key, and no final newline.
constexpr const char* kAwkward =
    "subject\tpredicate\tobject\textractor\turl\tconfidence\tpattern\r\n"
    "# a comment\r\n"
    "TomCruise\tbirth_date\t1962-07-03\tdom\thttps://a.org/p1\t0.9\r\n"
    "TomCruise\tbirth_date\t1962-07-03\ttxt\thttps://b.org/p2\t\tpat1\n"
    "TomCruise\tbirth_date\t1963-07-03\ttxt\thttps://c.org/p3\t0.25\tpat1"
    "\textra\tmore\r\n"
    "\n"
    "\r\n"
    "#another\n"
    "TopGun\trelease_year\t1986\ttbl\ta.org/p4\n"
    "TopGun\trelease_year\t1986\tdom\thttps://a.org\t1\t\r\n"
    "TopGun\tdirector\tTonyScott\tann\thttps://d.org/x/y\t0\tp2\n"
    "TomCruise\tdirector\t\ttxt/pat1\t\t0.000\tq";

// The constants were recorded with the split-based reader the zero-copy
// one replaced, so they pin first-seen ids and every parsed byte across
// that rewrite. A deliberate change to what a parse produces re-records
// them.
TEST(TsvIoTest, ParsedCorpusMatchesRecordedOutput) {
  const synth::SynthCorpus synth =
      synth::GenerateCorpus(synth::SynthConfig::Small());
  const std::string rendered = synth::RenderExtractionsTsv(synth.dataset);
  const struct {
    const char* name;
    std::string text;
    size_t records;
    uint32_t crc;
  } inputs[] = {{"synth Small()", rendered, 5627, 0xd335d964u},
                {"awkward document", kAwkward, 7, 0x46fa22cdu}};
  for (const auto& input : inputs) {
    auto corpus = ReadExtractionsTsv(input.text);
    ASSERT_TRUE(corpus.ok()) << input.name << ": "
                             << corpus.status().ToString();
    const uint32_t crc = CorpusCrc(*corpus);
    std::ostringstream hex;
    hex << std::hex << "0x" << crc;
    EXPECT_EQ(corpus->dataset.num_records(), input.records) << input.name;
    EXPECT_EQ(crc, input.crc) << input.name << ": got " << hex.str();
  }
}

// ---- the reader against the split-based reference ----

// The split-based tokenizer the zero-copy reader replaced: every piece
// between `sep`s, empty ones included.
std::vector<std::string> SplitReference(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t begin = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  return out;
}

// The extraction reader as it read before the zero-copy rewrite: lines and
// columns split into strings, the pattern key built by concatenation, and
// the confidence parsed under today's rule (the whole column through
// std::from_chars, in [0,1]).
Result<TsvCorpus> ReadReference(const std::string& text) {
  TsvCorpus corpus;
  std::vector<ExtractorMeta> metas;
  std::vector<SiteId> url_site;
  const auto align = [&corpus, &metas] {
    for (uint32_t i = static_cast<uint32_t>(metas.size());
         i < corpus.extractors.size(); ++i) {
      ExtractorMeta meta;
      meta.name = std::string(corpus.extractors.Get(i));
      meta.has_confidence = false;
      metas.push_back(std::move(meta));
    }
  };
  size_t line_no = 0;
  for (std::string& line : SplitReference(text, '\n')) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> cols = SplitReference(line, '\t');
    if (line_no == 1 && cols.size() >= 5 && cols[0] == "subject") continue;
    if (cols.size() < 5) {
      return Status::InvalidArgument(
          StrFormat("line %zu: expected >= 5 tab-separated columns, got %zu",
                    line_no, cols.size()));
    }
    float confidence = 0.0f;
    bool has_confidence = false;
    if (cols.size() >= 6 && !cols[5].empty()) {
      const char* end = cols[5].data() + cols[5].size();
      const auto r = std::from_chars(cols[5].data(), end, confidence);
      if (r.ec != std::errc() || r.ptr != end ||
          !(confidence >= 0.0f && confidence <= 1.0f)) {
        return Status::InvalidArgument(StrFormat(
            "line %zu: bad confidence '%s'", line_no, cols[5].c_str()));
      }
      has_confidence = true;
    }
    kb::DataItem item{corpus.subjects.Intern(cols[0]),
                      corpus.predicates.Intern(cols[1])};
    kb::ValueId object = corpus.values.Intern(
        kb::Value::OfString(corpus.objects.Intern(cols[2])));
    ExtractionRecord record;
    record.triple = corpus.dataset.InternTriple(item, object, false, false);
    record.prov.extractor = corpus.extractors.Intern(cols[3]);
    align();
    if (has_confidence) metas[record.prov.extractor].has_confidence = true;
    record.prov.url = corpus.urls.Intern(cols[4]);
    record.prov.site = corpus.sites.Intern(SiteOfUrl(cols[4]));
    record.prov.predicate = item.predicate;
    record.prov.pattern =
        cols.size() >= 7 && !cols[6].empty()
            ? corpus.extractors.Intern(cols[3] + "/" + cols[6])
            : record.prov.extractor;
    record.confidence = confidence;
    record.has_confidence = has_confidence;
    corpus.dataset.AddRecord(record);
    if (record.prov.url >= url_site.size()) {
      url_site.resize(record.prov.url + 1, 0);
    }
    url_site[record.prov.url] = record.prov.site;
  }
  align();
  corpus.dataset.SetExtractors(std::move(metas));
  corpus.dataset.SetUrlSites(std::move(url_site));
  corpus.dataset.SetCounts(corpus.sites.size(), corpus.extractors.size(),
                           corpus.predicates.size());
  return corpus;
}

// One small random document: rows of 1-9 columns drawn from a few names
// (so interning repeats), good and bad confidences, comments, headers,
// blank lines, stray tabs and '\r's, CRLF or LF ends, and sometimes no
// final newline.
std::string RandomDocument(Rng* rng) {
  static const char* const kNames[] = {"a", "b", "s1", "x y", "", "#c",
                                       "subject", "a/b", "\r"};
  static const char* const kUrls[] = {"https://a.org/p1", "https://a.org/p2",
                                      "a.org", "http://b.org/x/y", "",
                                      "://", "c.org/", "b.org/x"};
  static const char* const kConfidences[] = {
      "",     "0.5",  "1",     "0",    "0.25",   ".5",   "1.",
      "-0",   "1e0",  "1.5",   "-0.1", "nan",    "-nan", "inf",
      " 0.5", "+0.5", "0x1p-1", "0.5junk", "1e-50", "0.5 ", "\r",
      "0,5"};
  const auto pick = [rng](const auto& table) {
    return std::string(table[rng->NextBelow(std::size(table))]);
  };
  std::string doc;
  const uint64_t num_lines = rng->NextBelow(8);
  for (uint64_t l = 0; l < num_lines; ++l) {
    std::string line;
    switch (rng->NextBelow(10)) {
      case 0:
        break;  // a blank line
      case 1:
        line = "# comment\twith tab";
        break;
      case 2:
        line = "subject\tpredicate\tobject\textractor\turl\tconfidence";
        break;
      case 3:  // bytes from the separators and a few letters
        for (uint64_t i = rng->NextBelow(12); i > 0; --i) {
          line += "\t\t\r#a0.5"[rng->NextBelow(9)];
        }
        break;
      default: {
        const uint64_t num_cols = 1 + rng->NextBelow(9);
        for (uint64_t c = 0; c < num_cols; ++c) {
          if (c > 0) line += '\t';
          line += c == 4 ? pick(kUrls) : c == 5 ? pick(kConfidences)
                                               : pick(kNames);
        }
        if (rng->Bernoulli(0.1)) {
          line.insert(rng->NextBelow(line.size() + 1), 1,
                      rng->Bernoulli(0.5) ? '\t' : '\r');
        }
      }
    }
    doc += line;
    if (l + 1 < num_lines || rng->Bernoulli(0.7)) {
      doc += rng->Bernoulli(0.3) ? "\r\n" : "\n";
    }
  }
  return doc;
}

TEST(TsvIoTest, ReaderMatchesSplitReference) {
  Rng rng(20260527);
  size_t parsed = 0;
  size_t rejected = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::string doc = RandomDocument(&rng);
    const Result<TsvCorpus> got = ReadExtractionsTsv(doc);
    const Result<TsvCorpus> want = ReadReference(doc);
    std::string shown;
    for (char c : doc) {
      shown += c == '\t' ? std::string("\\t")
               : c == '\n' ? std::string("\\n")
               : c == '\r' ? std::string("\\r")
                           : std::string(1, c);
    }
    ASSERT_EQ(got.ok(), want.ok())
        << "document " << i << ": \"" << shown << "\"\n  reader: "
        << got.status().ToString() << "\n  reference: "
        << want.status().ToString();
    if (got.ok()) {
      ++parsed;
      ASSERT_EQ(CorpusCrc(*got), CorpusCrc(*want))
          << "document " << i << ": \"" << shown << "\"";
    } else {
      ++rejected;
      ASSERT_EQ(got.status().code(), want.status().code()) << shown;
      ASSERT_EQ(got.status().message(), want.status().message()) << shown;
    }
  }
  // Both outcomes are well exercised.
  EXPECT_GT(parsed, 1000u);
  EXPECT_GT(rejected, 1000u);
}

// ---- the fused-KB schema ----

FusedKbTsv SampleKb() {
  FusedKbTsv kb;
  kb.method = "popaccu";
  kb.num_rounds = 7;
  kb.provenances.push_back({"extractor=dom|site=a.org", 0.91, true, 3});
  kb.provenances.push_back({"extractor=txt|site=c.org", 0.2, false, 1});
  FusedKbTripleRow t;
  t.subject = "TomCruise";
  t.predicate = "birth_date";
  t.object = "1962-07-03";
  // An awkward double that must survive the text round-trip bit-exactly.
  t.probability = 0.1 + 0.2;
  t.calibrated = 1.0 / 3.0;
  t.has_probability = true;
  t.winner = true;
  t.supporters = {0};
  kb.triples.push_back(t);
  FusedKbTripleRow u;
  u.subject = "TomCruise";
  u.predicate = "birth_date";
  u.object = "1963-07-03";
  u.has_probability = false;
  u.supporters = {0, 1};
  kb.triples.push_back(u);
  return kb;
}

TEST(FusedKbTsvTest, WriteReadRoundTripsLosslessly) {
  FusedKbTsv kb = SampleKb();
  std::string text = WriteFusedKbTsv(kb);
  auto back = ReadFusedKbTsv(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->method, kb.method);
  EXPECT_EQ(back->num_rounds, kb.num_rounds);
  ASSERT_EQ(back->provenances.size(), kb.provenances.size());
  EXPECT_TRUE(back->provenances[0] == kb.provenances[0]);
  EXPECT_TRUE(back->provenances[1] == kb.provenances[1]);
  ASSERT_EQ(back->triples.size(), kb.triples.size());
  EXPECT_TRUE(back->triples[0] == kb.triples[0]);  // incl. bitwise doubles
  EXPECT_TRUE(back->triples[1] == kb.triples[1]);
  // Serialization is a fixed point.
  EXPECT_EQ(WriteFusedKbTsv(*back), text);
}

TEST(FusedKbTsvTest, ReadRejectsMalformedRows) {
  EXPECT_FALSE(ReadFusedKbTsv("").ok());  // no M row
  EXPECT_FALSE(ReadFusedKbTsv("M\taccu\t3\nM\taccu\t3\n").ok());
  EXPECT_FALSE(ReadFusedKbTsv("M\taccu\tmany\n").ok());
  EXPECT_FALSE(ReadFusedKbTsv("M\taccu\t3\nX\twhat\n").ok());
  EXPECT_FALSE(ReadFusedKbTsv("M\taccu\t3\nP\tsrc\t0.8\t1\n").ok());
  EXPECT_FALSE(
      ReadFusedKbTsv("M\taccu\t3\nP\tsrc\thigh\t1\t3\n").ok());
  EXPECT_FALSE(
      ReadFusedKbTsv("M\taccu\t3\nT\ts\tp\to\t0.9\t0.9\t1\t0\t1\n").ok());
  EXPECT_FALSE(
      ReadFusedKbTsv("M\taccu\t3\nT\ts\tp\to\t0.9\t0.9\t2\t0\t1\t\n")
          .ok());
  // Supporter referencing a provenance that never appears.
  EXPECT_FALSE(
      ReadFusedKbTsv("M\taccu\t3\nT\ts\tp\to\t0.9\t0.9\t1\t0\t1\t4\n")
          .ok());
  // Comments and blank lines are fine.
  auto ok = ReadFusedKbTsv("# kf-fused-kb v1\n\nM\taccu\t3\n");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->method, "accu");
  EXPECT_TRUE(ok->triples.empty());
}

TEST(FusedKbTsvTest, ReadRejectsRowsWiderThanTheirTag) {
  // Every column counts, however many there are.
  const struct {
    const char* text;
    const char* message;
  } rows[] = {
      {"M\taccu\t3\tx\n", "line 1: M row expects 3 columns, got 4"},
      {"M\taccu\t3\nP\tsrc\t0.8\t1\t3\t\t\n",
       "line 2: P row expects 5 columns, got 7"},
      {"M\taccu\t3\nP\tsrc\t0.8\t1\t3\nT\ts\tp\to\t0.9\t0.9\t1\t0\t1\t0\t"
       "x\n",
       "line 3: T row expects 10 columns, got 11"},
  };
  for (const auto& row : rows) {
    auto result = ReadFusedKbTsv(row.text);
    ASSERT_FALSE(result.ok()) << row.text;
    EXPECT_EQ(result.status().message(), row.message);
  }
}

}  // namespace
}  // namespace kf::extract
