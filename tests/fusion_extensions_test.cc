#include "fusion/ext/extensions.h"

#include <gtest/gtest.h>

#include "eval/gold_standard.h"
#include "eval/pr_curve.h"
#include "synth/corpus.h"

namespace kf::fusion {
namespace {

/// The (Extractor, Site, Predicate, Pattern) provenances latent-truth and
/// confidence-weighted fusion are run at.
FusionOptions FineOptions() {
  FusionOptions options;
  options.granularity =
      extract::Granularity::ExtractorSitePredicatePattern();
  return options;
}

class ExtensionsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new synth::SynthCorpus(
        synth::GenerateCorpus(synth::SynthConfig::Small()));
    labels_ = new std::vector<Label>(
        eval::BuildGoldStandard(corpus_->dataset, corpus_->freebase));
  }
  static void TearDownTestSuite() {
    delete corpus_;
    delete labels_;
  }
  static synth::SynthCorpus* corpus_;
  static std::vector<Label>* labels_;
};

synth::SynthCorpus* ExtensionsTest::corpus_ = nullptr;
std::vector<Label>* ExtensionsTest::labels_ = nullptr;

TEST_F(ExtensionsTest, LatentTruthProducesValidProbabilities) {
  auto result =
      RunLatentTruth(corpus_->dataset, FineOptions(), FuseContext());
  for (kb::TripleId t = 0; t < corpus_->dataset.num_triples(); ++t) {
    ASSERT_TRUE(result.has_probability[t]);
    ASSERT_GE(result.probability[t], 0.0);
    ASSERT_LE(result.probability[t], 1.0);
  }
  EXPECT_GT(eval::AucPr(result.probability, result.has_probability,
                        *labels_),
            0.3);
}

TEST_F(ExtensionsTest, LatentTruthAllowsMultipleTruthsPerItem) {
  auto result =
      RunLatentTruth(corpus_->dataset, FineOptions(), FuseContext());
  // Unlike the single-truth engine, per-item probability mass may exceed 1
  // for some multi-truth item.
  std::vector<double> item_sum(corpus_->dataset.num_items(), 0.0);
  for (kb::TripleId t = 0; t < corpus_->dataset.num_triples(); ++t) {
    item_sum[corpus_->dataset.triple(t).item] += result.probability[t];
  }
  size_t over_one = 0;
  for (double s : item_sum) {
    if (s > 1.05) ++over_one;
  }
  EXPECT_GT(over_one, 0u);
}

TEST_F(ExtensionsTest, HierarchyAwareNeverLowersAncestorProbability) {
  FusionOptions opts = FusionOptions::PopAccu();
  auto base = Fuse(corpus_->dataset, opts);
  FuseContext ctx;
  ctx.hierarchy = &corpus_->world.hierarchy;
  auto hier = HierarchyAwareFuse(corpus_->dataset, opts, ctx);
  for (kb::TripleId t = 0; t < corpus_->dataset.num_triples(); ++t) {
    if (!base.has_probability[t]) continue;
    ASSERT_GE(hier.probability[t], base.probability[t] - 1e-9);
    ASSERT_LE(hier.probability[t], 1.0 + 1e-9);
  }
}

TEST_F(ExtensionsTest, HierarchyAwareBoostsGeneralValues) {
  // Hand-built: item with claims on a city and its state. The state's
  // probability must absorb the city's mass.
  extract::ExtractionDataset d;
  d.SetExtractors({extract::ExtractorMeta{"E", extract::ContentType::kTxt,
                                          true, 0, 0}});
  d.SetUrlSites({0, 1, 2, 3});
  d.SetCounts(4, 1, 1);
  kb::ValueHierarchy hierarchy;
  hierarchy.SetParent(/*city=*/10, /*state=*/11);
  auto add = [&](kb::ValueId v, uint32_t url) {
    kb::TripleId t = d.InternTriple(kb::DataItem{1, 0}, v, false, false);
    extract::ExtractionRecord r;
    r.triple = t;
    r.prov.url = url;
    r.prov.site = url;
    d.AddRecord(r);
    return t;
  };
  kb::TripleId city = add(10, 0);
  add(10, 1);
  kb::TripleId state = add(11, 2);
  add(11, 3);
  FusionOptions opts = FusionOptions::PopAccu();
  auto base = Fuse(d, opts);
  FuseContext ctx;
  ctx.hierarchy = &hierarchy;
  auto hier = HierarchyAwareFuse(d, opts, ctx);
  // Base splits mass between city and state; hierarchy-aware folds the
  // city's mass into the state (city true => state true).
  EXPECT_NEAR(hier.probability[state],
              base.probability[state] + base.probability[city], 1e-9);
  EXPECT_DOUBLE_EQ(hier.probability[city], base.probability[city]);
}

TEST_F(ExtensionsTest, ConfidenceWeightedRunsAndRanks) {
  FuseContext ctx;
  ctx.gold = labels_;
  auto result = RunConfidenceWeighted(corpus_->dataset, FineOptions(), ctx);
  size_t predicted = 0;
  for (kb::TripleId t = 0; t < corpus_->dataset.num_triples(); ++t) {
    if (!result.has_probability[t]) continue;
    ++predicted;
    ASSERT_GE(result.probability[t], 0.0);
    ASSERT_LE(result.probability[t], 1.0);
  }
  EXPECT_GT(predicted, corpus_->dataset.num_triples() / 2);
  EXPECT_GT(eval::AucPr(result.probability, result.has_probability,
                        *labels_),
            0.3);
}

TEST_F(ExtensionsTest, SourceExtractorSeparationRuns) {
  auto result =
      RunSourceExtractor(corpus_->dataset, FusionOptions(), FuseContext());
  size_t predicted = 0;
  for (kb::TripleId t = 0; t < corpus_->dataset.num_triples(); ++t) {
    if (!result.has_probability[t]) continue;
    ++predicted;
    ASSERT_GE(result.probability[t], 0.0);
    ASSERT_LE(result.probability[t], 1.0);
  }
  EXPECT_EQ(predicted, corpus_->dataset.num_triples());
  EXPECT_GT(eval::AucPr(result.probability, result.has_probability,
                        *labels_),
            0.35);
}

TEST_F(ExtensionsTest, SourceExtractorRewardsMultiExtractorSupport) {
  // Two triples with identical URL support; one reported by 1 extractor,
  // the other by 3. The multi-extractor triple must score higher.
  extract::ExtractionDataset d;
  std::vector<extract::ExtractorMeta> metas;
  for (int i = 0; i < 3; ++i) {
    metas.push_back(extract::ExtractorMeta{
        "E" + std::to_string(i), extract::ContentType::kTxt, true, i, 0});
  }
  d.SetExtractors(std::move(metas));
  d.SetUrlSites({0, 1, 2, 3});
  d.SetCounts(4, 3, 1);
  auto add = [&](kb::EntityId s, kb::ValueId v, uint32_t ext, uint32_t url) {
    kb::TripleId t = d.InternTriple(kb::DataItem{s, 0}, v, false, false);
    extract::ExtractionRecord r;
    r.triple = t;
    r.prov.extractor = ext;
    r.prov.url = url;
    r.prov.site = url;
    d.AddRecord(r);
    return t;
  };
  // Triple A: urls {0,1}, only extractor 0. Triple B: urls {2,3}, all
  // three extractors.
  kb::TripleId a = add(1, 10, 0, 0);
  add(1, 10, 0, 1);
  kb::TripleId b = add(2, 20, 0, 2);
  add(2, 20, 1, 2);
  add(2, 20, 2, 2);
  add(2, 20, 0, 3);
  add(2, 20, 1, 3);
  add(2, 20, 2, 3);
  auto result = RunSourceExtractor(d, FusionOptions(), FuseContext());
  EXPECT_GT(result.probability[b], result.probability[a]);
}

TEST_F(ExtensionsTest, SourceExtractorHandlesExtractorIdsPast31) {
  // TSV import interns extractor and pattern names into one id space, so
  // extractor ids grow with the input. The same records under ids 32-34
  // (ids 0-31 registered but unused) must fuse exactly as under ids 0-2.
  auto build = [](uint32_t first) {
    extract::ExtractionDataset d;
    std::vector<extract::ExtractorMeta> metas;
    for (uint32_t i = 0; i < first + 3; ++i) {
      metas.push_back(extract::ExtractorMeta{"E" + std::to_string(i),
                                             extract::ContentType::kTxt,
                                             true, static_cast<int>(i), 0});
    }
    d.SetExtractors(std::move(metas));
    d.SetUrlSites({0, 1, 2, 3});
    d.SetCounts(4, first + 3, 1);
    auto add = [&](kb::EntityId s, kb::ValueId v, uint32_t ext,
                   uint32_t url) {
      extract::ExtractionRecord r;
      r.triple = d.InternTriple(kb::DataItem{s, 0}, v, false, false);
      r.prov.extractor = first + ext;
      r.prov.url = url;
      r.prov.site = url;
      d.AddRecord(r);
    };
    // Six triples on three items, each URL claim backed by one to three
    // extractors.
    add(1, 10, 0, 0);
    add(1, 10, 1, 0);
    add(1, 10, 2, 1);
    add(1, 11, 0, 2);
    add(2, 20, 1, 0);
    add(2, 20, 2, 1);
    add(2, 21, 0, 3);
    add(2, 21, 1, 3);
    add(3, 30, 0, 1);
    add(3, 30, 1, 2);
    add(3, 30, 2, 3);
    add(3, 31, 2, 0);
    return d;
  };
  const FusionResult low = RunSourceExtractor(build(0), {}, {});
  const FusionResult high = RunSourceExtractor(build(32), {}, {});
  ASSERT_EQ(low.probability.size(), 6u);
  EXPECT_EQ(high.probability, low.probability);
  EXPECT_EQ(high.has_probability, low.has_probability);
  // Four URLs and three extractors make claims; the unused ids do not
  // count as provenances.
  EXPECT_EQ(low.num_provenances, 7u);
  EXPECT_EQ(high.num_provenances, 7u);
}

class LatentTruthRounds : public ::testing::TestWithParam<size_t> {};

TEST_P(LatentTruthRounds, StableAcrossRoundCounts) {
  static const synth::SynthCorpus& corpus = *new synth::SynthCorpus(
      synth::GenerateCorpus(synth::SynthConfig::Small()));
  FusionOptions opts = FineOptions();
  opts.max_rounds = GetParam();
  auto result = RunLatentTruth(corpus.dataset, opts, FuseContext());
  for (kb::TripleId t = 0; t < corpus.dataset.num_triples(); ++t) {
    ASSERT_GE(result.probability[t], 0.0);
    ASSERT_LE(result.probability[t], 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Rounds, LatentTruthRounds,
                         ::testing::Values(1, 3, 8));

}  // namespace
}  // namespace kf::fusion
