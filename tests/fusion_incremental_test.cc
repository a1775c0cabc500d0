// The incremental ingest contract: ExtractionDataset::Append followed by a
// re-run (which triggers a shard-local ClaimGraph rebuild) produces results
// identical to a full rebuild over the concatenated dataset.
#include <gtest/gtest.h>

#include "fusion/engine.h"
#include "synth/corpus.h"

namespace kf::fusion {
namespace {

const synth::SynthCorpus& SmallCorpus() {
  static const synth::SynthCorpus& corpus = *new synth::SynthCorpus(
      synth::GenerateCorpus(synth::SynthConfig::Small()));
  return corpus;
}

// The prefix-clone / tail-re-intern helpers moved into extract/dataset.h
// (CloneRecordPrefix / ReinternTail) so the streaming benches, session
// tests, and docs share one implementation.
using extract::CloneRecordPrefix;
using extract::ReinternTail;

/// Each provenance's triples: its shard-local groups concatenated in
/// ascending shard order.
std::vector<std::vector<kb::TripleId>> ProvSequences(const ClaimGraph& graph) {
  std::vector<std::vector<kb::TripleId>> out(graph.num_provs());
  for (size_t s = 0; s < graph.num_shards(); ++s) {
    const ClaimGraph::Shard& sh = graph.shard(s);
    for (size_t k = 0; k < sh.num_prov_groups(); ++k) {
      out[sh.prov_ids[k]].insert(
          out[sh.prov_ids[k]].end(),
          sh.prov_triples.begin() + sh.prov_offsets[k],
          sh.prov_triples.begin() + sh.prov_offsets[k + 1]);
    }
  }
  return out;
}

void ExpectIdentical(const FusionResult& a, const FusionResult& b) {
  EXPECT_EQ(a.probability, b.probability);
  EXPECT_EQ(a.has_probability, b.has_probability);
  EXPECT_EQ(a.from_fallback, b.from_fallback);
  EXPECT_EQ(a.num_rounds, b.num_rounds);
  EXPECT_EQ(a.num_provenances, b.num_provenances);
  EXPECT_EQ(a.num_unevaluated_provenances, b.num_unevaluated_provenances);
}

class IncrementalSweep : public ::testing::TestWithParam<Method> {};

TEST_P(IncrementalSweep, AppendThenRunMatchesFullRebuild) {
  const auto& src = SmallCorpus().dataset;
  const size_t base = src.num_records() * 2 / 3;

  FusionOptions opts;
  opts.method = GetParam();
  opts.num_shards = 16;

  // Incremental path: engine built over the base, then Append + re-Run.
  extract::ExtractionDataset incr = CloneRecordPrefix(src, base);
  FusionEngine engine(incr, opts);
  FusionResult warm = engine.Run();
  EXPECT_GT(warm.probability.size(), 0u);
  size_t claims_before = engine.num_claims();

  std::vector<extract::ExtractionRecord> batch =
      ReinternTail(src, base, &incr);
  KF_CHECK_OK(incr.Append(batch));
  FusionResult incremental = engine.Run();  // Refresh() happens inside
  EXPECT_GT(engine.num_claims(), claims_before);

  // Full-rebuild path: identical record sequence, fresh engine.
  extract::ExtractionDataset full =
      CloneRecordPrefix(src, src.num_records());
  FusionEngine fresh(full, opts);
  FusionResult rebuilt = fresh.Run();

  ExpectIdentical(incremental, rebuilt);
  EXPECT_EQ(engine.provenance_accuracy(), fresh.provenance_accuracy());
  EXPECT_EQ(engine.provenance_claims(), fresh.provenance_claims());
}

INSTANTIATE_TEST_SUITE_P(Methods, IncrementalSweep,
                         ::testing::Values(Method::kVote, Method::kAccu,
                                           Method::kPopAccu));

TEST(IncrementalTest, EmptyAppendIsANoOp) {
  const auto& src = SmallCorpus().dataset;
  extract::ExtractionDataset d = CloneRecordPrefix(src, src.num_records());
  FusionOptions opts = FusionOptions::PopAccu();
  opts.num_shards = 16;
  FusionEngine engine(d, opts);
  FusionResult before = engine.Run();

  KF_CHECK_OK(d.Append({}));
  EXPECT_EQ(engine.Refresh(), 0u);  // no shard rebuilt
  FusionResult after = engine.Run();
  ExpectIdentical(before, after);
}

TEST(IncrementalTest, AppendWithNewProvenanceGrowsAccuracies) {
  const auto& src = SmallCorpus().dataset;
  const size_t base = src.num_records();
  extract::ExtractionDataset incr = CloneRecordPrefix(src, base);
  FusionOptions opts = FusionOptions::PopAccu();
  opts.num_shards = 16;
  FusionEngine engine(incr, opts);
  FusionResult warm = engine.Run();

  // A record from a brand-new pseudo-source (unseen URL id) for an
  // existing triple: the provenance side must grow by exactly one.
  extract::ExtractionRecord novel = incr.records()[0];
  novel.prov.url = static_cast<extract::UrlId>(src.num_urls() + 100);
  KF_CHECK_OK(incr.Append({novel}));
  FusionResult grown = engine.Run();
  EXPECT_EQ(grown.num_provenances, warm.num_provenances + 1);
  EXPECT_EQ(engine.provenance_accuracy().size(),
            warm.num_provenances + 1);

  // And the incremental result still matches a from-scratch engine.
  FusionEngine fresh(incr, opts);
  ExpectIdentical(grown, fresh.Run());
}

TEST(IncrementalTest, StreamingRefreshHandlesNewProvenances) {
  // The warm-start pattern: drive stages directly, append a record from a
  // new pseudo-source for an EXISTING triple, Refresh, and keep sweeping
  // with the same result. The new provenance must enter at the default
  // accuracy (no re-Prepare needed when no new triples were interned).
  const auto& src = SmallCorpus().dataset;
  extract::ExtractionDataset d = CloneRecordPrefix(src, src.num_records());
  FusionOptions opts = FusionOptions::PopAccu();
  opts.num_shards = 16;
  FusionEngine engine(d, opts);
  FusionResult result = engine.Prepare();
  engine.StageI(1, &result);
  engine.StageII(result);
  const size_t provs_before = engine.num_provenances();

  extract::ExtractionRecord novel = d.records()[0];
  novel.prov.url = static_cast<extract::UrlId>(src.num_urls() + 500);
  KF_CHECK_OK(d.Append({novel}));
  EXPECT_GT(engine.Refresh(), 0u);
  EXPECT_EQ(engine.num_provenances(), provs_before + 1);
  EXPECT_EQ(engine.provenance_accuracy().size(), provs_before + 1);
  EXPECT_DOUBLE_EQ(engine.provenance_accuracy().back(),
                   opts.default_accuracy);

  engine.StageI(2, &result);
  double delta = engine.StageII(result);
  EXPECT_GE(delta, 0.0);
  EXPECT_GT(result.Coverage(), 0.0);
}

TEST(IncrementalTest, SplicedCrossIndexMatchesRebuildAcrossManyBatches) {
  // Regression guard for the cross-index splice: Update() no longer
  // re-counts every claim but retires/re-adds only the dirty shards' local
  // groups. Drip the corpus in many small batches (each Update splices
  // against a different dirty set) and require the per-prov sequences
  // (local groups concatenated in shard order), counts, and claim totals
  // to match a from-scratch build after every batch.
  const auto& src = SmallCorpus().dataset;
  const size_t total = src.num_records();
  const size_t base = total / 3;
  auto gran = extract::Granularity::ExtractorUrl();

  extract::ExtractionDataset incr = CloneRecordPrefix(src, base);
  ClaimGraph graph(incr, gran, /*num_shards=*/16);

  const size_t kBatches = 10;
  size_t next = base;
  for (size_t b = 0; b < kBatches; ++b) {
    const size_t upto =
        b + 1 == kBatches ? total : next + (total - base) / kBatches;
    // ReinternTail interns the whole remaining tail's triples (idempotent
    // across batches); keep only this batch's records for the Append.
    std::vector<extract::ExtractionRecord> batch =
        ReinternTail(src, next, &incr);
    batch.resize(upto - next);
    KF_CHECK_OK(incr.Append(batch));
    graph.Update(incr);
    next = upto;

    ClaimGraph fresh(incr, gran, /*num_shards=*/16);
    ASSERT_EQ(graph.num_claims(), fresh.num_claims()) << "batch " << b;
    ASSERT_EQ(graph.prov_claims(), fresh.prov_claims()) << "batch " << b;
    const auto a = ProvSequences(graph);
    const auto e = ProvSequences(fresh);
    for (size_t p = 0; p < fresh.num_provs(); ++p) {
      ASSERT_EQ(a[p], e[p]) << "batch " << b << " prov " << p;
    }
  }
  EXPECT_EQ(next, total);
}

TEST(IncrementalTest, AppendRejectsUninternedTriples) {
  const auto& src = SmallCorpus().dataset;
  extract::ExtractionDataset d = CloneRecordPrefix(src, 10);
  extract::ExtractionRecord bad = d.records()[0];
  bad.triple = static_cast<kb::TripleId>(d.num_triples() + 7);
  size_t before = d.num_records();
  Status status = d.Append({d.records()[0], bad});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(d.num_records(), before);  // all-or-nothing
}

}  // namespace
}  // namespace kf::fusion
