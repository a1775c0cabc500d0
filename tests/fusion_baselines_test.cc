#include "fusion/baselines/baselines.h"

#include <gtest/gtest.h>

#include "eval/gold_standard.h"
#include "eval/pr_curve.h"
#include "synth/corpus.h"

namespace kf::fusion {
namespace {

class BaselinesTest : public ::testing::Test {
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
  static void CheckValid(const FusionResult& result) {
    size_t predicted = 0;
    for (kb::TripleId t = 0; t < corpus_->dataset.num_triples(); ++t) {
      if (!result.has_probability[t]) continue;
      ++predicted;
      ASSERT_GE(result.probability[t], 0.0);
      ASSERT_LE(result.probability[t], 1.0);
    }
    EXPECT_EQ(predicted, corpus_->dataset.num_triples());
  }
  static double Auc(const FusionResult& result) {
    return eval::AucPr(result.probability, result.has_probability, *labels_);
  }
  static synth::SynthCorpus* corpus_;
  static std::vector<Label>* labels_;
};

synth::SynthCorpus* BaselinesTest::corpus_ = nullptr;
std::vector<Label>* BaselinesTest::labels_ = nullptr;

TEST_F(BaselinesTest, TruthFinderRanksAboveRandom) {
  auto result =
      RunTruthFinder(corpus_->dataset, FusionOptions(), FuseContext());
  CheckValid(result);
  // Base rate of true triples is ~0.25; a meaningful ranker beats it.
  EXPECT_GT(Auc(result), 0.3);
}

TEST_F(BaselinesTest, TwoEstimatesRanksAboveRandom) {
  auto result =
      RunTwoEstimates(corpus_->dataset, FusionOptions(), FuseContext());
  CheckValid(result);
  // 2-Estimates is the weakest of the four baselines (as in the original
  // comparison papers); it must still clear the ~0.2 base rate.
  EXPECT_GT(Auc(result), 0.2);
}

TEST_F(BaselinesTest, InvestmentRanksAboveRandom) {
  auto result = RunInvestment(corpus_->dataset, FusionOptions(), FuseContext());
  CheckValid(result);
  EXPECT_GT(Auc(result), 0.3);
}

TEST_F(BaselinesTest, PooledInvestmentRanksAboveRandom) {
  auto result = RunPooledInvestment(corpus_->dataset, FusionOptions(),
                                    FuseContext());
  CheckValid(result);
  EXPECT_GT(Auc(result), 0.3);
}

TEST_F(BaselinesTest, TruthFinderAgreementRaisesConfidence) {
  // Micro-check of the sigma accumulation: more claimants => higher score.
  extract::ExtractionDataset d;
  d.SetExtractors({extract::ExtractorMeta{"E", extract::ContentType::kTxt,
                                          true, 0, 0}});
  d.SetUrlSites({0, 1, 2});
  d.SetCounts(3, 1, 1);
  kb::TripleId popular =
      d.InternTriple(kb::DataItem{1, 0}, 10, false, false);
  kb::TripleId lone = d.InternTriple(kb::DataItem{2, 0}, 11, false, false);
  for (uint32_t url = 0; url < 3; ++url) {
    extract::ExtractionRecord r;
    r.triple = popular;
    r.prov.url = url;
    r.prov.site = url;
    d.AddRecord(r);
  }
  extract::ExtractionRecord r;
  r.triple = lone;
  r.prov.url = 0;
  r.prov.site = 0;
  d.AddRecord(r);
  auto result = RunTruthFinder(d, FusionOptions(), FuseContext());
  EXPECT_GT(result.probability[popular], result.probability[lone]);
}

TEST_F(BaselinesTest, InvestmentPerItemScoresNormalized) {
  auto result = RunInvestment(corpus_->dataset, FusionOptions(), FuseContext());
  // Per data item, scores sum to ~1 (they are shares of the item's pool).
  std::vector<double> item_sum(corpus_->dataset.num_items(), 0.0);
  for (kb::TripleId t = 0; t < corpus_->dataset.num_triples(); ++t) {
    item_sum[corpus_->dataset.triple(t).item] += result.probability[t];
  }
  for (double s : item_sum) {
    ASSERT_LE(s, 1.0 + 1e-6);
  }
}

class BaselineRoundsSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(BaselineRoundsSweep, StableAcrossRoundCounts) {
  static const synth::SynthCorpus& corpus = *new synth::SynthCorpus(
      synth::GenerateCorpus(synth::SynthConfig::Small()));
  FusionOptions opts;
  opts.max_rounds = GetParam();
  auto result = RunTruthFinder(corpus.dataset, opts, FuseContext());
  for (kb::TripleId t = 0; t < corpus.dataset.num_triples(); ++t) {
    ASSERT_GE(result.probability[t], 0.0);
    ASSERT_LE(result.probability[t], 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Rounds, BaselineRoundsSweep,
                         ::testing::Values(1, 3, 10));

}  // namespace
}  // namespace kf::fusion
