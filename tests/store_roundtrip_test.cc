// The kf::store contract: a corpus or fused KB serialized to the binary
// columnar format loads back bit-identically — same interner ids, same
// records, same doubles — through both the owning load and the mmap
// zero-copy view, and the binary image is smaller than the TSV it came
// from.
#include "store/store.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/checksum.h"
#include "extract/tsv_io.h"
#include "kf/fused_kb.h"
#include "kf/session.h"
#include "synth/corpus.h"

namespace kf::store {
namespace {

/// Exercises every column: optional confidences, an explicit pattern
/// column (which interns "extractor/pattern" ids), shared URLs/sites.
constexpr const char* kTsv =
    "subject\tpredicate\tobject\textractor\turl\tconfidence\tpattern\n"
    "TomCruise\tbirth_date\t1962-07-03\tdom\thttps://en.wikipedia.org/tc\t"
    "0.95\tinfobox\n"
    "TomCruise\tbirth_date\t1962-07-03\ttxt\thttps://www.imdb.com/tc\t0.80\n"
    "TomCruise\tbirth_date\t1963-07-03\ttxt\thttps://fan.example.com/tc\t"
    "0.40\tregex7\n"
    "TopGun\trelease_year\t1986\ttbl\thttps://en.wikipedia.org/tg\t0.90\n"
    "TopGun\trelease_year\t1996\ttbl\thttps://bad.example.com/tg\n";

void ExpectInternerEq(const StringInterner& a, const StringInterner& b) {
  ASSERT_EQ(a.size(), b.size());
  for (uint32_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.Get(i), b.Get(i)) << "interner id " << i;
  }
}

void ExpectCorpusEq(const extract::TsvCorpus& a,
                    const extract::TsvCorpus& b) {
  ExpectInternerEq(a.subjects, b.subjects);
  ExpectInternerEq(a.predicates, b.predicates);
  ExpectInternerEq(a.objects, b.objects);
  ExpectInternerEq(a.extractors, b.extractors);
  ExpectInternerEq(a.urls, b.urls);
  ExpectInternerEq(a.sites, b.sites);

  ASSERT_EQ(a.values.size(), b.values.size());
  for (kb::ValueId v = 0; v < a.values.size(); ++v) {
    EXPECT_TRUE(a.values.Get(v) == b.values.Get(v)) << "value id " << v;
  }

  const extract::ExtractionDataset& da = a.dataset;
  const extract::ExtractionDataset& db = b.dataset;
  EXPECT_EQ(da.items(), db.items());
  EXPECT_EQ(da.triples(), db.triples());
  EXPECT_EQ(da.records(), db.records());
  EXPECT_EQ(da.extractors(), db.extractors());
  ASSERT_EQ(da.num_urls(), db.num_urls());
  for (extract::UrlId u = 0; u < da.num_urls(); ++u) {
    EXPECT_EQ(da.site_of_url(u), db.site_of_url(u)) << "url " << u;
  }
  EXPECT_EQ(da.num_sites(), db.num_sites());
  EXPECT_EQ(da.num_patterns(), db.num_patterns());
  EXPECT_EQ(da.num_predicates(), db.num_predicates());
}

TEST(StoreRoundtripTest, CorpusOwningLoadIsLossless) {
  auto corpus = extract::ReadExtractionsTsv(kTsv);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();

  std::string bytes = WriteCorpus(*corpus);
  auto back = LoadCorpus(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectCorpusEq(*corpus, *back);

  // Serialization is a fixed point: re-serializing the loaded corpus
  // reproduces the byte image.
  EXPECT_EQ(WriteCorpus(*back), bytes);
}

TEST(StoreRoundtripTest, EmptyCorpusRoundTrips) {
  auto corpus = extract::ReadExtractionsTsv("");
  ASSERT_TRUE(corpus.ok());
  auto back = LoadCorpus(WriteCorpus(*corpus));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectCorpusEq(*corpus, *back);
  EXPECT_EQ(back->dataset.num_records(), 0u);
}

TEST(StoreRoundtripTest, CorpusMmapViewServesAndMaterializes) {
  auto corpus = extract::ReadExtractionsTsv(kTsv);
  ASSERT_TRUE(corpus.ok());
  const std::string path = testing::TempDir() + "store_rt_corpus.kfs";
  ASSERT_TRUE(WriteCorpusFile(*corpus, path).ok());

  auto mapped = CorpusMmapView::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const CorpusView& view = mapped->view();

  // Zero-copy dictionary lookups match the interners.
  ASSERT_EQ(view.dict_size(CorpusDict::kSubjects), corpus->subjects.size());
  for (uint32_t i = 0; i < corpus->subjects.size(); ++i) {
    EXPECT_EQ(view.dict_entry(CorpusDict::kSubjects, i),
              corpus->subjects.Get(i));
  }
  ASSERT_EQ(view.dict_size(CorpusDict::kUrls), corpus->urls.size());
  for (uint32_t i = 0; i < corpus->urls.size(); ++i) {
    EXPECT_EQ(view.dict_entry(CorpusDict::kUrls, i), corpus->urls.Get(i));
  }

  // Column scans match the dataset.
  const extract::ExtractionDataset& ds = corpus->dataset;
  ASSERT_EQ(view.num_records(), ds.num_records());
  ASSERT_EQ(view.num_triples(), ds.num_triples());
  ASSERT_EQ(view.num_items(), ds.num_items());
  for (size_t r = 0; r < ds.num_records(); ++r) {
    EXPECT_EQ(view.record_triples()[r], ds.records()[r].triple);
    EXPECT_EQ(view.record_extractors()[r], ds.records()[r].prov.extractor);
    EXPECT_EQ(view.record_urls()[r], ds.records()[r].prov.url);
    EXPECT_EQ(view.record_confidence(r), ds.records()[r].confidence);
    // Derived-or-explicit per-record fields (kTsv mixes records with and
    // without a pattern column, so the explicit pattern block is present
    // while site and predicate come from the derivation path).
    EXPECT_EQ(view.record_site(r), ds.records()[r].prov.site);
    EXPECT_EQ(view.record_pattern(r), ds.records()[r].prov.pattern);
    EXPECT_EQ(view.record_predicate(r), ds.records()[r].prov.predicate);
  }
  for (size_t t = 0; t < ds.num_triples(); ++t) {
    EXPECT_EQ(view.triple_items()[t], ds.triples()[t].item);
    EXPECT_EQ(view.triple_objects()[t], ds.triples()[t].object);
  }

  // And the mmap path materializes the same corpus as the owning path.
  auto back = view.Materialize();
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectCorpusEq(*corpus, *back);
  std::remove(path.c_str());
}

TEST(StoreRoundtripTest, Scale1SynthCorpusIsLosslessAndSmaller) {
  synth::SynthCorpus synth = synth::GenerateCorpus(synth::SynthConfig{});
  const std::string tsv = synth::RenderExtractionsTsv(synth.dataset);
  auto corpus = extract::ReadExtractionsTsv(tsv);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  ASSERT_GT(corpus->dataset.num_records(), 100000u)
      << "scale-1 corpus unexpectedly small";

  const std::string bytes = WriteCorpus(*corpus);
  // The columnar image must be well under the TSV size (the bench gates
  // the full >= 3x claim; this keeps the direction honest in debug too).
  EXPECT_LT(bytes.size(), tsv.size());

  auto owning = LoadCorpus(bytes);
  ASSERT_TRUE(owning.ok()) << owning.status().ToString();
  ExpectCorpusEq(*corpus, *owning);

  const std::string path = testing::TempDir() + "store_rt_scale1.kfs";
  ASSERT_TRUE(extract::WriteFile(path, bytes).ok());
  auto mapped = CorpusMmapView::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  auto via_map = mapped->view().Materialize();
  ASSERT_TRUE(via_map.ok()) << via_map.status().ToString();
  ExpectCorpusEq(*corpus, *via_map);
  std::remove(path.c_str());
}

// ---- fused KB --------------------------------------------------------

/// A hand-built fused KB in the store layout, column by column.
FusedKbColumns SampleKb() {
  FusedKbColumns kb;
  kb.method = "popaccu";
  kb.num_rounds = 7;
  struct Prov {
    const char* description;
    double accuracy;
    uint8_t evaluated;
    uint32_t claims;
  };
  for (const Prov& p : {Prov{"dom@en.wikipedia.org", 0.9375, 1, 12},
                        Prov{"txt@www.imdb.com", 0.5, 0, 3},
                        Prov{"tbl@bad.example.com", 1.0 / 3.0, 1, 1}}) {
    kb.prov_descriptions.Append(p.description);
    kb.prov_accuracy.push_back(p.accuracy);
    kb.prov_evaluated.push_back(p.evaluated);
    kb.prov_claims.push_back(p.claims);
  }
  struct Triple {
    const char* subject;
    const char* predicate;
    const char* object;
    double probability;
    double calibrated;
    uint8_t flags;
    std::vector<uint32_t> supporters;
  };
  const Triple triples[] = {
      {"TomCruise", "birth_date", "1962-07-03", 0.99981232, 0.97,
       kKbHasProbability | kKbWinner, {0, 2}},
      // Deliberately unsorted supporters: the varint-list encoding must
      // not assume ascending ids.
      {"TomCruise", "birth_date", "1963-07-03", 0.25, 0.25,
       kKbHasProbability, {2, 0, 1}},
      {"TopGun", "release_year", "1986", 0.0, 0.0, kKbFromFallback, {}},
  };
  for (const Triple& t : triples) {
    kb.triple_subject.push_back(kb.subjects.Intern(t.subject));
    kb.triple_predicate.push_back(kb.predicates.Intern(t.predicate));
    kb.triple_object.push_back(kb.objects.Intern(t.object));
    kb.probability.push_back(t.probability);
    kb.calibrated.push_back(t.calibrated);
    kb.triple_flags.push_back(t.flags);
    kb.supporters.insert(kb.supporters.end(), t.supporters.begin(),
                         t.supporters.end());
    kb.support_offsets.push_back(
        static_cast<uint32_t>(kb.supporters.size()));
  }
  return kb;
}

TEST(StoreRoundtripTest, FusedKbRowsRoundTrip) {
  const FusedKbColumns kb = SampleKb();
  auto back = LoadFusedKb(WriteFusedKb(kb));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->method, kb.method);
  EXPECT_EQ(back->num_rounds, kb.num_rounds);
  // The provenance table.
  ASSERT_EQ(back->num_provenances(), kb.num_provenances());
  for (uint32_t p = 0; p < kb.num_provenances(); ++p) {
    EXPECT_EQ(back->prov_descriptions.Get(p), kb.prov_descriptions.Get(p));
  }
  EXPECT_EQ(back->prov_accuracy, kb.prov_accuracy);
  EXPECT_EQ(back->prov_evaluated, kb.prov_evaluated);
  EXPECT_EQ(back->prov_claims, kb.prov_claims);
  // The triples: same dictionaries and ids, bit-identical doubles, flags,
  // and supporter lists in their written (unsorted) order.
  ExpectInternerEq(back->subjects, kb.subjects);
  ExpectInternerEq(back->predicates, kb.predicates);
  ExpectInternerEq(back->objects, kb.objects);
  EXPECT_EQ(back->triple_subject, kb.triple_subject);
  EXPECT_EQ(back->triple_predicate, kb.triple_predicate);
  EXPECT_EQ(back->triple_object, kb.triple_object);
  EXPECT_EQ(back->probability, kb.probability);
  EXPECT_EQ(back->calibrated, kb.calibrated);
  EXPECT_EQ(back->triple_flags, kb.triple_flags);
  EXPECT_EQ(back->support_offsets, kb.support_offsets);
  EXPECT_EQ(back->supporters, kb.supporters);
}

TEST(StoreRoundtripTest, FusedKbViewServesColumns) {
  const FusedKbColumns kb = SampleKb();
  const std::string path = testing::TempDir() + "store_rt_kb.kfs";
  ASSERT_TRUE(WriteFusedKbFile(kb, path).ok());

  auto mapped = FusedKbMmapView::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const FusedKbView& view = mapped->view();
  EXPECT_EQ(view.method(), "popaccu");
  EXPECT_EQ(view.num_rounds(), 7u);
  ASSERT_EQ(view.num_triples(), 3u);
  ASSERT_EQ(view.num_provenances(), 3u);
  EXPECT_EQ(view.subject(0), "TomCruise");
  EXPECT_EQ(view.object(2), "1986");
  EXPECT_EQ(view.prov_description(1), "txt@www.imdb.com");
  EXPECT_EQ(view.probabilities()[0], 0.99981232);
  EXPECT_EQ(view.prov_accuracies()[2], 1.0 / 3.0);
  ASSERT_EQ(view.supporters(1).size(), 3u);
  EXPECT_EQ(view.supporters(1)[0], 2u);
  EXPECT_EQ(view.supporters(1)[1], 0u);
  EXPECT_EQ(view.supporters(2).size(), 0u);
  std::remove(path.c_str());
}

FusedKB SnapshotDemo() {
  auto corpus = extract::ReadExtractionsTsv(kTsv);
  EXPECT_TRUE(corpus.ok());
  Session session = Session::Borrow(corpus->dataset);
  fusion::FusionOptions options;
  options.method = fusion::Method::kPopAccu;
  EXPECT_TRUE(session.Fuse(options).ok());
  Result<FusedKB> kb = session.Snapshot(SnapshotNaming::FromCorpus(*corpus));
  EXPECT_TRUE(kb.ok());
  return std::move(kb).value();
}

TEST(StoreRoundtripTest, FusedKbBinaryEqualsTsvImport) {
  FusedKB kb = SnapshotDemo();

  Result<FusedKB> via_bin = FusedKB::FromBinary(kb.ToBinary());
  ASSERT_TRUE(via_bin.ok()) << via_bin.status().ToString();
  EXPECT_TRUE(kb == *via_bin);

  Result<FusedKB> via_tsv = FusedKB::FromTsv(kb.ToTsv());
  ASSERT_TRUE(via_tsv.ok());
  EXPECT_TRUE(*via_bin == *via_tsv);
}

TEST(StoreRoundtripTest, FusedKbExportImportBinaryFile) {
  FusedKB kb = SnapshotDemo();
  const std::string path = testing::TempDir() + "store_rt_export.kfs";
  ASSERT_TRUE(kb.ExportBinary(path).ok());
  Result<FusedKB> back = FusedKB::ImportBinary(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(kb == *back);
  std::remove(path.c_str());
}

/// A hand-written fused KB: a contested item, an unpredicted fallback
/// triple, and shared provenances.
constexpr const char* kGoldenKbTsv =
    "M\tpopaccu\t7\n"
    "P\tdom@en.wikipedia.org\t0.9375\t1\t12\n"
    "P\ttxt@www.imdb.com\t0.5\t0\t3\n"
    "P\ttbl@bad.example.com\t0.33333333333333331\t1\t1\n"
    "T\tTomCruise\tbirth_date\t1962-07-03\t0.99981232\t0.97\t1\t0\t1\t0,2\n"
    "T\tTomCruise\tbirth_date\t1963-07-03\t0.25\t0.25\t1\t0\t0\t0,1,2\n"
    "T\tTopGun\trelease_year\t1986\t0\t0\t0\t1\t0\t\n"
    "T\tTopGun\tdirector\tTony Scott\t0.5\t0.5\t1\t0\t1\t1\n";

TEST(StoreRoundtripTest, FusedKbImagesMatchTheFormatGolden) {
  // Length and CRC-32 of two fixed KBs' images. A change to either is a
  // change of the on-disk format (bump kFormatVersion), never a refactor.
  struct Golden {
    const char* name;
    std::string image;
    size_t size;
    uint32_t crc;
  };
  Result<FusedKB> hand = FusedKB::FromTsv(kGoldenKbTsv);
  ASSERT_TRUE(hand.ok()) << hand.status().ToString();
  const Golden goldens[] = {
      {"kTsv snapshot", SnapshotDemo().ToBinary(), 1280, 0x4d88c27du},
      {"hand-written TSV", hand->ToBinary(), 1104, 0x7cdf6520u},
  };
  for (const Golden& g : goldens) {
    EXPECT_EQ(g.image.size(), g.size) << g.name;
    EXPECT_EQ(Crc32(g.image), g.crc) << g.name;
    // Byte stability: an imported image exports to the same bytes.
    Result<FusedKB> back = FusedKB::FromBinary(g.image);
    ASSERT_TRUE(back.ok()) << g.name << ": " << back.status().ToString();
    EXPECT_TRUE(back->ToBinary() == g.image) << g.name;
  }
}

TEST(StoreRoundtripTest, FileLoadErrorsNameThePath) {
  auto missing = LoadCorpusFile("/nonexistent/dir/corpus.kfs");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("/nonexistent/dir/corpus.kfs"),
            std::string::npos);

  const std::string path = testing::TempDir() + "store_rt_badkind.kfs";
  ASSERT_TRUE(WriteFusedKbFile(SampleKb(), path).ok());
  // A fused-KB image fed to the corpus loader: clean kind mismatch that
  // names the offending file.
  auto wrong_kind = LoadCorpusFile(path);
  ASSERT_FALSE(wrong_kind.ok());
  EXPECT_NE(wrong_kind.status().message().find(path), std::string::npos);
  EXPECT_NE(wrong_kind.status().message().find("content kind"),
            std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kf::store
