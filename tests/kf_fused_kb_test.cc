// The kf::FusedKB contract: Snapshot() verdicts are bit-identical to the
// raw fusion::FusionResult they were taken from (for every engine method
// via the registry), queries resolve through the KB's own indexes,
// snapshots are deep session-independent copies, and ExportTsv/ImportTsv
// round-trips to an equal KB.
#include "kf/fused_kb.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "eval/calibration.h"
#include "eval/gold_standard.h"
#include "extract/tsv_io.h"
#include "fusion/registry.h"
#include "kf/session.h"
#include "store/store.h"
#include "synth/corpus.h"

namespace kf {
namespace {

const synth::SynthCorpus& SmallCorpus() {
  static const synth::SynthCorpus& corpus = *new synth::SynthCorpus(
      synth::GenerateCorpus(synth::SynthConfig::Small()));
  return corpus;
}

const std::vector<Label>& SmallLabels() {
  static const std::vector<Label>& labels = *new std::vector<Label>(
      eval::BuildGoldStandard(SmallCorpus().dataset, SmallCorpus().freebase));
  return labels;
}

/// A hand-sized TSV corpus with real names, a clear conflict, and a
/// corroborated winner.
constexpr const char* kTsv =
    "TomCruise\tbirth_date\t1962-07-03\tdom\thttps://en.wikipedia.org/tc\t0.95\n"
    "TomCruise\tbirth_date\t1962-07-03\ttxt\thttps://www.imdb.com/tc\t0.80\n"
    "TomCruise\tbirth_date\t1963-07-03\ttxt\thttps://fansite.example.com/tc\t0.40\n"
    "TopGun\trelease_year\t1986\ttbl\thttps://en.wikipedia.org/tg\t0.90\n"
    "TopGun\trelease_year\t1986\tdom\thttps://www.imdb.com/tg\t0.93\n"
    "TopGun\trelease_year\t1996\ttbl\thttps://badmoviedb.example.com/tg\t0.30\n";

FusedKB SnapshotTsv(extract::TsvCorpus* corpus, fusion::Method method) {
  Session session = Session::Borrow(corpus->dataset);
  fusion::FusionOptions options;
  options.method = method;
  options.granularity = extract::Granularity::ExtractorSite();
  EXPECT_TRUE(session.Fuse(options).ok());
  Result<FusedKB> kb =
      session.Snapshot(SnapshotNaming::FromCorpus(*corpus));
  EXPECT_TRUE(kb.ok()) << kb.status().ToString();
  return std::move(kb).value();
}

// ---- verdict fidelity (the acceptance criterion) ----

TEST(FusedKbTest, VerdictsBitIdenticalToRawResultForEveryEngineMethod) {
  for (fusion::Method m : {fusion::Method::kVote, fusion::Method::kAccu,
                           fusion::Method::kPopAccu}) {
    const char* method = fusion::Registry::NameOf(m);
    Session session = Session::Borrow(SmallCorpus().dataset);
    fusion::FusionOptions options;
    options.method = m;
    options.num_shards = 16;
    Result<fusion::FusionResult> result = session.Fuse(options);
    ASSERT_TRUE(result.ok()) << method;
    Result<FusedKB> kb = session.Snapshot();
    ASSERT_TRUE(kb.ok()) << method << ": " << kb.status().ToString();
    ASSERT_EQ(kb->num_triples(), result->probability.size()) << method;
    ASSERT_EQ(kb->method(), method);
    EXPECT_EQ(kb->num_rounds(), result->num_rounds);
    for (uint32_t t = 0; t < kb->num_triples(); ++t) {
      KbVerdict v = kb->verdict(t);
      ASSERT_EQ(v.index, t);
      // Bitwise equality, not approximate: the snapshot copies verdicts
      // verbatim.
      ASSERT_EQ(v.probability, result->probability[t]) << method;
      ASSERT_EQ(v.has_probability, result->has_probability[t] != 0);
      ASSERT_EQ(v.from_fallback, result->from_fallback[t] != 0);
    }
  }
}

TEST(FusedKbTest, SnapshotCountsMatchTheEngineState) {
  Session session = Session::Borrow(SmallCorpus().dataset);
  ASSERT_TRUE(session.Fuse(fusion::FusionOptions::PopAccu()).ok());
  Result<FusedKB> kb = session.Snapshot();
  ASSERT_TRUE(kb.ok());
  EXPECT_EQ(kb->num_provenances(), session.last_result()->num_provenances);
  EXPECT_GT(kb->num_items(), 0u);
  EXPECT_LE(kb->num_items(), kb->num_triples());
  // Every provenance row carries its claim count and an accuracy in the
  // engine's clamp range.
  size_t claims = 0;
  for (uint32_t p = 0; p < kb->num_provenances(); ++p) {
    const KbProvenance row = kb->provenance(p);
    EXPECT_GT(row.num_claims, 0u);
    EXPECT_GE(row.accuracy, 0.0);
    EXPECT_LE(row.accuracy, 1.0);
    EXPECT_FALSE(row.description.empty());
    claims += row.num_claims;
  }
  // Claim mass is conserved: the supporters CSR holds the same claims the
  // provenance table counts.
  size_t supporters = 0;
  for (uint32_t t = 0; t < kb->num_triples(); ++t) {
    supporters += kb->supporters(t).size();
  }
  EXPECT_EQ(claims, supporters);
}

// ---- queries ----

TEST(FusedKbTest, LookupReturnsTheWinningValue) {
  Result<extract::TsvCorpus> corpus = extract::ReadExtractionsTsv(kTsv);
  ASSERT_TRUE(corpus.ok());
  FusedKB kb = SnapshotTsv(&*corpus, fusion::Method::kAccu);

  std::optional<KbVerdict> winner = kb.Lookup("TomCruise", "birth_date");
  ASSERT_TRUE(winner.has_value());
  EXPECT_EQ(winner->object, "1962-07-03");
  EXPECT_TRUE(winner->winner);
  EXPECT_TRUE(winner->has_probability);

  // The losing value is reachable through Verdict(), ranked strictly
  // below the winner.
  std::optional<KbVerdict> loser =
      kb.Verdict("TomCruise", "birth_date", "1963-07-03");
  ASSERT_TRUE(loser.has_value());
  EXPECT_FALSE(loser->winner);
  EXPECT_LT(loser->probability, winner->probability);

  // Unknown keys are empty, not errors.
  EXPECT_FALSE(kb.Lookup("TomCruise", "shoe_size").has_value());
  EXPECT_FALSE(kb.Lookup("Nobody", "birth_date").has_value());
  EXPECT_FALSE(
      kb.Verdict("TomCruise", "birth_date", "1999-01-01").has_value());
}

TEST(FusedKbTest, ExplainListsSupportAndContradictionWithVoteWeights) {
  Result<extract::TsvCorpus> corpus = extract::ReadExtractionsTsv(kTsv);
  ASSERT_TRUE(corpus.ok());
  FusedKB kb = SnapshotTsv(&*corpus, fusion::Method::kAccu);

  std::vector<KbEvidence> evidence =
      kb.Explain("TomCruise", "birth_date", "1962-07-03");
  ASSERT_EQ(evidence.size(), 3u);  // 2 supporting + 1 contradicting
  size_t supporting = 0, contradicting = 0;
  for (const KbEvidence& e : evidence) {
    EXPECT_FALSE(e.description.empty());
    EXPECT_LT(e.provenance, kb.num_provenances());
    EXPECT_EQ(e.accuracy, kb.provenance(e.provenance).accuracy);
    // The vote weight is the scorers' log-odds of the accuracy.
    EXPECT_NEAR(e.vote, std::log(e.accuracy / (1.0 - e.accuracy)), 1e-9);
    if (e.supports) {
      ++supporting;
      EXPECT_EQ(e.object, "1962-07-03");
    } else {
      ++contradicting;
      EXPECT_EQ(e.object, "1963-07-03");
    }
  }
  EXPECT_EQ(supporting, 2u);
  EXPECT_EQ(contradicting, 1u);
  // Supporting rows come first.
  EXPECT_TRUE(evidence[0].supports);
  EXPECT_TRUE(evidence[1].supports);
  EXPECT_FALSE(evidence[2].supports);

  // Explaining an unknown triple yields no evidence.
  EXPECT_TRUE(kb.Explain("TomCruise", "birth_date", "nope").empty());
}

TEST(FusedKbTest, TopKAndAboveThresholdMatchTheRawVectors) {
  Session session = Session::Borrow(SmallCorpus().dataset);
  ASSERT_TRUE(session.Fuse(fusion::FusionOptions::PopAccu()).ok());
  const fusion::FusionResult result = *session.last_result();
  Result<FusedKB> kb = session.Snapshot();
  ASSERT_TRUE(kb.ok());

  size_t predicted = 0;
  for (uint8_t h : result.has_probability) predicted += h;

  std::vector<KbVerdict> top = kb->TopK(25);
  ASSERT_EQ(top.size(), std::min<size_t>(25, predicted));
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].probability, top[i].probability);
  }
  // TopK(huge) enumerates every predicted triple.
  EXPECT_EQ(kb->TopK(result.probability.size() + 1).size(), predicted);

  const double threshold = 0.9;
  std::vector<KbVerdict> above = kb->AboveThreshold(threshold);
  size_t expected = 0;
  for (size_t t = 0; t < result.probability.size(); ++t) {
    if (result.has_probability[t] && result.probability[t] >= threshold) {
      ++expected;
    }
  }
  EXPECT_EQ(above.size(), expected);
  for (const KbVerdict& v : above) EXPECT_GE(v.probability, threshold);
  // Thresholding at 0 is exactly "every predicted triple".
  EXPECT_EQ(kb->AboveThreshold(0.0).size(), predicted);
}

// ---- calibrated probabilities ----

TEST(FusedKbTest, GoldSnapshotCarriesCalibratedProbabilities) {
  Session session = Session::Borrow(SmallCorpus().dataset);
  ASSERT_TRUE(session.Fuse(fusion::FusionOptions::PopAccu()).ok());
  const fusion::FusionResult result = *session.last_result();
  Result<FusedKB> kb = session.Snapshot({}, &SmallLabels());
  ASSERT_TRUE(kb.ok());

  eval::CalibrationCurve curve = eval::ComputeCalibration(
      result.probability, result.has_probability, SmallLabels());
  bool some_differ = false;
  for (uint32_t t = 0; t < kb->num_triples(); ++t) {
    KbVerdict v = kb->verdict(t);
    if (!v.has_probability) continue;
    EXPECT_EQ(v.calibrated, eval::Calibrate(curve, v.probability));
    EXPECT_GE(v.calibrated, 0.0);
    EXPECT_LE(v.calibrated, 1.0);
    if (v.calibrated != v.probability) some_differ = true;
  }
  EXPECT_TRUE(some_differ);  // calibration actually moved something

  // Without gold, calibrated == raw.
  Result<FusedKB> uncalibrated = session.Snapshot();
  ASSERT_TRUE(uncalibrated.ok());
  for (uint32_t t = 0; t < uncalibrated->num_triples(); ++t) {
    KbVerdict v = uncalibrated->verdict(t);
    if (v.has_probability) {
      EXPECT_EQ(v.calibrated, v.probability);
    }
  }
}

// ---- snapshot semantics: deep, session-independent ----

TEST(FusedKbTest, SnapshotSurvivesAppendRefuseAndSessionDestruction) {
  const auto& src = SmallCorpus().dataset;
  // Hold back enough of the corpus that the tail carries unseen triples.
  const size_t base = src.num_records() * 2 / 3;
  fusion::FusionOptions options;
  options.method = fusion::Method::kAccu;
  options.max_rounds = 100;
  options.convergence_epsilon = 1e-3;
  options.num_shards = 16;

  std::optional<FusedKB> kb;
  std::string before;
  {
    Session session(extract::CloneRecordPrefix(src, base));
    ASSERT_TRUE(session.Fuse(options).ok());
    Result<FusedKB> snap = session.Snapshot();
    ASSERT_TRUE(snap.ok());
    kb = std::move(snap).value();
    before = kb->ToTsv();

    // Mutate the session: append (new triples + provenances) and
    // re-fuse. The snapshot must not move.
    std::vector<extract::ExtractionRecord> batch =
        extract::ReinternTail(src, base, &session.mutable_dataset());
    ASSERT_GT(session.dataset().num_triples(), kb->num_triples());
    ASSERT_TRUE(session.Append(batch).ok());
    ASSERT_TRUE(session.Refuse().ok());
    EXPECT_EQ(kb->ToTsv(), before);
    EXPECT_LT(kb->num_triples(), session.dataset().num_triples());

    // A fresh snapshot sees the grown dataset; the old one still not.
    Result<FusedKB> fresh = session.Snapshot();
    ASSERT_TRUE(fresh.ok());
    EXPECT_GT(fresh->num_triples(), kb->num_triples());
    EXPECT_FALSE(*fresh == *kb);
  }  // session destroyed

  // The snapshot owns everything it references.
  EXPECT_EQ(kb->ToTsv(), before);
  EXPECT_TRUE(kb->Lookup(kb->verdict(0).subject,
                         kb->verdict(0).predicate)
                  .has_value());
}

// ---- export / import ----

TEST(FusedKbTest, ExportImportRoundTripsToAnEqualKb) {
  Result<extract::TsvCorpus> corpus = extract::ReadExtractionsTsv(kTsv);
  ASSERT_TRUE(corpus.ok());
  FusedKB kb = SnapshotTsv(&*corpus, fusion::Method::kPopAccu);

  std::string tsv = kb.ToTsv();
  Result<FusedKB> back = FusedKB::FromTsv(tsv);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(*back == kb);
  // Serialization is a fixed point: re-export reproduces the bytes.
  EXPECT_EQ(back->ToTsv(), tsv);
  // The imported KB answers queries identically.
  std::optional<KbVerdict> a = kb.Lookup("TopGun", "release_year");
  std::optional<KbVerdict> b = back->Lookup("TopGun", "release_year");
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->object, b->object);
  EXPECT_EQ(a->probability, b->probability);
  EXPECT_EQ(kb.Explain("TopGun", "release_year", "1996").size(),
            back->Explain("TopGun", "release_year", "1996").size());
}

TEST(FusedKbTest, ExportImportThroughAFileRoundTrips) {
  Session session = Session::Borrow(SmallCorpus().dataset);
  ASSERT_TRUE(session.Fuse(fusion::FusionOptions::PopAccu()).ok());
  Result<FusedKB> kb = session.Snapshot({}, &SmallLabels());
  ASSERT_TRUE(kb.ok());

  std::string path = testing::TempDir() + "/fused_kb_roundtrip.tsv";
  ASSERT_TRUE(kb->ExportTsv(path).ok());
  Result<FusedKB> back = FusedKB::ImportTsv(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(*back == *kb);
  std::remove(path.c_str());
}

TEST(FusedKbTest, BinaryExportImportRoundTripsToAnEqualKb) {
  Session session = Session::Borrow(SmallCorpus().dataset);
  ASSERT_TRUE(session.Fuse(fusion::FusionOptions::PopAccu()).ok());
  Result<FusedKB> kb = session.Snapshot({}, &SmallLabels());
  ASSERT_TRUE(kb.ok());

  // In-memory: ToBinary/FromBinary is an identity, and agrees with TSV.
  const std::string image = kb->ToBinary();
  Result<FusedKB> via_bin = FusedKB::FromBinary(image);
  ASSERT_TRUE(via_bin.ok()) << via_bin.status().ToString();
  EXPECT_TRUE(*via_bin == *kb);
  // Byte-stable: the imported KB re-exports the very same image.
  EXPECT_TRUE(via_bin->ToBinary() == image);

  // On disk, and noticeably smaller than the TSV.
  std::string path = testing::TempDir() + "/fused_kb_roundtrip.kfs";
  ASSERT_TRUE(kb->ExportBinary(path).ok());
  Result<FusedKB> back = FusedKB::ImportBinary(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(*back == *kb);
  EXPECT_LT(kb->ToBinary().size(), kb->ToTsv().size());
  std::remove(path.c_str());
}

TEST(FusedKbTest, ImportTsvErrorsNameTheFile) {
  std::string path = testing::TempDir() + "/fused_kb_malformed.tsv";
  ASSERT_TRUE(extract::WriteFile(path, "M\tvote\tnot_a_number\n").ok());
  Result<FusedKB> kb = FusedKB::ImportTsv(path);
  ASSERT_FALSE(kb.ok());
  EXPECT_NE(kb.status().message().find(path), std::string::npos)
      << kb.status().message();
  EXPECT_NE(kb.status().message().find("line 1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FusedKbTest, ImportRejectsMalformedTsv) {
  // Not the fused-KB schema at all.
  EXPECT_FALSE(FusedKB::FromTsv("subject\tpredicate\n").ok());
  // Missing the M row.
  EXPECT_FALSE(
      FusedKB::FromTsv("P\tsrc\t0.8\t1\t3\n").ok());
  // Supporter index out of range.
  EXPECT_FALSE(
      FusedKB::FromTsv("M\taccu\t3\n"
                       "P\tsrc\t0.8\t1\t1\n"
                       "T\ts\tp\to\t0.9\t0.9\t1\t0\t1\t7\n")
          .ok());
  // Probability out of range.
  EXPECT_FALSE(
      FusedKB::FromTsv("M\taccu\t3\n"
                       "T\ts\tp\to\t1.5\t0.9\t1\t0\t1\t\n")
          .ok());
  // Winner flag contradicting the probabilities (the lower value marked
  // winner).
  EXPECT_FALSE(
      FusedKB::FromTsv("M\taccu\t3\n"
                       "T\ts\tp\to1\t0.9\t0.9\t1\t0\t0\t\n"
                       "T\ts\tp\to2\t0.1\t0.1\t1\t0\t1\t\n")
          .ok());
  // Duplicate triple.
  EXPECT_FALSE(
      FusedKB::FromTsv("M\taccu\t3\n"
                       "T\ts\tp\to\t0.9\t0.9\t1\t0\t1\t\n"
                       "T\ts\tp\to\t0.9\t0.9\t1\t0\t1\t\n")
          .ok());
  // Supporters out of order, or one provenance listed twice (Explain
  // would show it twice).
  EXPECT_FALSE(
      FusedKB::FromTsv("M\taccu\t3\n"
                       "P\tsrc\t0.8\t1\t1\n"
                       "P\tsrc2\t0.7\t1\t1\n"
                       "T\ts\tp\to\t0.9\t0.9\t1\t0\t1\t1,0\n")
          .ok());
  EXPECT_FALSE(
      FusedKB::FromTsv("M\taccu\t3\n"
                       "P\tsrc\t0.8\t1\t2\n"
                       "T\ts\tp\to\t0.9\t0.9\t1\t0\t1\t0,0\n")
          .ok());
  // A consistent hand-written KB imports fine.
  Result<FusedKB> ok =
      FusedKB::FromTsv("M\taccu\t3\n"
                       "P\tsrc\t0.8\t1\t2\n"
                       "T\ts\tp\to1\t0.9\t0.9\t1\t0\t1\t0\n"
                       "T\ts\tp\to2\t0.1\t0.1\t1\t0\t0\t0\n");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->num_triples(), 2u);
  ASSERT_TRUE(ok->Lookup("s", "p").has_value());
  EXPECT_EQ(ok->Lookup("s", "p")->object, "o1");
}

/// `lf` with every "\n" line end written as "\r\n".
std::string WithCrlf(const std::string& lf) {
  std::string out;
  for (char c : lf) {
    if (c == '\n') out += '\r';
    out += c;
  }
  return out;
}

TEST(FusedKbTsvTest, CrlfLineEndsParseLikeLf) {
  Result<extract::TsvCorpus> corpus = extract::ReadExtractionsTsv(kTsv);
  ASSERT_TRUE(corpus.ok());
  // An exported KB plus a T row whose last column, the supporters, is
  // empty: the line end's '\r' would be all that column holds.
  const std::string lf =
      SnapshotTsv(&*corpus, fusion::Method::kPopAccu).ToTsv() +
      "T\tStarWars\trelease_year\t1977\t0.5\t0.5\t1\t0\t1\t\n";
  Result<FusedKB> from_lf = FusedKB::FromTsv(lf);
  ASSERT_TRUE(from_lf.ok()) << from_lf.status().ToString();
  Result<FusedKB> from_crlf = FusedKB::FromTsv(WithCrlf(lf));
  ASSERT_TRUE(from_crlf.ok()) << from_crlf.status().ToString();
  EXPECT_TRUE(*from_crlf == *from_lf);
  EXPECT_EQ(from_crlf->ToTsv(), lf);
}

TEST(FusedKbTest, BinaryImportRejectsSupportersNotStrictlyAscending) {
  // The container stores any supporter order (store_roundtrip_test pins
  // that); the KB import is what enforces the ascending invariant.
  Result<FusedKB> kb =
      FusedKB::FromTsv("M\taccu\t3\n"
                       "P\tsrc\t0.8\t1\t1\n"
                       "P\tsrc2\t0.7\t1\t1\n"
                       "T\ts\tp\to\t0.9\t0.9\t1\t0\t1\t0,1\n");
  ASSERT_TRUE(kb.ok()) << kb.status().ToString();
  store::FusedKbColumns swapped =
      std::move(store::LoadFusedKb(kb->ToBinary())).value();
  std::swap(swapped.supporters[0], swapped.supporters[1]);
  Result<FusedKB> back = FusedKB::FromBinary(store::WriteFusedKb(swapped));
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(back.status().message().find("strictly ascending"),
            std::string::npos)
      << back.status().message();
}

TEST(FusedKbTest, QueryViewsSurviveMovingTheKb) {
  // A one-triple KB: every string is short, exactly what an inline
  // small-string buffer would have carried along on a move.
  Result<FusedKB> one = FusedKB::FromTsv(
      "M\taccu\t3\n"
      "P\tsrc\t0.8\t1\t1\n"
      "T\ts\tp\to\t0.9\t0.9\t1\t0\t1\t0\n");
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  auto check = [](FusedKB kb) {
    const KbVerdict v = kb.verdict(0);
    const std::string subject(v.subject), object(v.object);
    const std::vector<KbEvidence> why =
        kb.Explain(v.subject, v.predicate, v.object);
    ASSERT_FALSE(why.empty());
    const std::string description(why[0].description);

    FusedKB moved(std::move(kb));
    FusedKB assigned;
    assigned = std::move(moved);
    // The views taken before the moves still read the same bytes, which
    // the moved-to KB now owns.
    EXPECT_EQ(v.subject, subject);
    EXPECT_EQ(v.object, object);
    EXPECT_EQ(why[0].description, description);
    EXPECT_EQ(why[0].object, object);
    EXPECT_EQ(assigned.verdict(0).subject.data(), v.subject.data());
    EXPECT_TRUE(assigned.Lookup(subject, v.predicate).has_value());
  };
  check(std::move(one).value());
  Result<extract::TsvCorpus> corpus = extract::ReadExtractionsTsv(kTsv);
  ASSERT_TRUE(corpus.ok());
  check(SnapshotTsv(&*corpus, fusion::Method::kAccu));
}

// ---- error paths ----

TEST(FusedKbTest, SnapshotRejectsNamingThatMergesDataItems) {
  Session session = Session::Borrow(SmallCorpus().dataset);
  ASSERT_TRUE(session.Fuse(fusion::FusionOptions::PopAccu()).ok());
  SnapshotNaming naming;
  naming.subject = [](kb::EntityId) { return std::string("same"); };
  Result<FusedKB> kb = session.Snapshot(naming);
  ASSERT_FALSE(kb.ok());
  EXPECT_EQ(kb.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(kb.status().message().find("(same, p"), std::string::npos)
      << kb.status().message();
}

TEST(FusedKbTest, SnapshotRejectsNamingThatMergesValuesOfOneItem) {
  Session session = Session::Borrow(SmallCorpus().dataset);
  ASSERT_TRUE(session.Fuse(fusion::FusionOptions::PopAccu()).ok());
  // Distinct names that only sanitizing merges: every item with two
  // values now has two triples rendered (s, p, "x y").
  SnapshotNaming naming;
  naming.object = [](kb::ValueId v) {
    return std::string(v % 2 == 0 ? "x\ty" : "x y");
  };
  Result<FusedKB> kb = session.Snapshot(naming);
  ASSERT_FALSE(kb.ok());
  EXPECT_EQ(kb.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(kb.status().message().find("duplicate triple"),
            std::string::npos)
      << kb.status().message();
  EXPECT_NE(kb.status().message().find("x y)"), std::string::npos);
}

TEST(FusedKbTest, SnapshotNamesEachDistinctIdOnce) {
  Session session = Session::Borrow(SmallCorpus().dataset);
  fusion::FusionOptions options = fusion::FusionOptions::PopAccu();
  // Every naming hook feeds the provenance descriptions too.
  options.granularity.use_site = true;
  options.granularity.use_predicate = true;
  options.granularity.use_pattern = true;
  ASSERT_TRUE(session.Fuse(options).ok());

  std::map<std::string, std::map<uint32_t, int>> calls;
  auto counted = [&calls](const char* kind) {
    return [&calls, kind](uint32_t id) {
      ++calls[kind][id];
      return std::string(kind) + std::to_string(id);
    };
  };
  SnapshotNaming naming;
  naming.subject = counted("s");
  naming.predicate = counted("p");
  naming.object = counted("o");
  naming.url = counted("u");
  naming.site = counted("w");
  naming.pattern = counted("r");
  Result<FusedKB> kb = session.Snapshot(naming);
  ASSERT_TRUE(kb.ok()) << kb.status().ToString();

  for (const char* kind : {"s", "p", "o", "u", "w", "r"}) {
    ASSERT_FALSE(calls[kind].empty()) << kind;
    for (const auto& [id, n] : calls[kind]) {
      EXPECT_EQ(n, 1) << kind << id;
    }
  }
  // Names still reach the KB: the synthesized ones of the default
  // naming and these agree on subjects.
  Result<FusedKB> synthesized = session.Snapshot();
  ASSERT_TRUE(synthesized.ok());
  EXPECT_EQ(kb->verdict(0).subject, synthesized->verdict(0).subject);
}

TEST(FusedKbTest, SnapshotBeforeFuseFails) {
  Session session = Session::Borrow(SmallCorpus().dataset);
  Result<FusedKB> kb = session.Snapshot();
  ASSERT_FALSE(kb.ok());
  EXPECT_EQ(kb.status().code(), StatusCode::kFailedPrecondition);
}

TEST(FusedKbTest, SnapshotAfterBaselineMethodFails) {
  Session session = Session::Borrow(SmallCorpus().dataset);
  fusion::FusionOptions options;
  options.method = fusion::Method::kTruthFinder;
  ASSERT_TRUE(session.Fuse(options).ok());
  Result<FusedKB> kb = session.Snapshot();
  ASSERT_FALSE(kb.ok());
  EXPECT_EQ(kb.status().code(), StatusCode::kFailedPrecondition);
}

TEST(FusedKbTest, SnapshotOfEmptyDatasetFails) {
  extract::ExtractionDataset empty;
  Session session(std::move(empty));
  ASSERT_TRUE(session.Fuse(fusion::FusionOptions::PopAccu()).ok());
  Result<FusedKB> kb = session.Snapshot();
  ASSERT_FALSE(kb.ok());
  EXPECT_EQ(kb.status().code(), StatusCode::kFailedPrecondition);
}

TEST(FusedKbTest, SnapshotRejectsMisSizedGold) {
  Session session = Session::Borrow(SmallCorpus().dataset);
  ASSERT_TRUE(session.Fuse(fusion::FusionOptions::PopAccu()).ok());
  std::vector<Label> short_gold(3, Label::kTrue);
  Result<FusedKB> kb = session.Snapshot({}, &short_gold);
  ASSERT_FALSE(kb.ok());
  EXPECT_EQ(kb.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace kf
