#include "extract/tsv_io.h"

#include <gtest/gtest.h>

#include "fusion/engine.h"

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
  for (const char* bad : {"nan", "-nan", "0.5junk"}) {
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

}  // namespace
}  // namespace kf::extract
