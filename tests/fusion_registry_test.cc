// The method-registry contract: every Method has one name that parses
// back to it, unknown names fail with the full list of valid names, and
// every stateless row is bit-identical to the direct call it wraps (with
// equivalently filled per-method options).
#include "fusion/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "eval/gold_standard.h"
#include "fusion/baselines/baselines.h"
#include "fusion/ext/extensions.h"
#include "synth/corpus.h"

namespace kf::fusion {
namespace {

class RegistryTest : public ::testing::Test {
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

  /// Runs `method`'s registry row with `options` + context.
  static FusionResult ViaRegistry(Method method, FusionOptions options,
                                  bool with_gold = false,
                                  bool with_hierarchy = false) {
    options.method = method;
    FuseContext ctx;
    if (with_gold) ctx.gold = labels_;
    if (with_hierarchy) ctx.hierarchy = &corpus_->world.hierarchy;
    KF_CHECK_OK(Registry::ValidateContext(corpus_->dataset, options, ctx));
    return Registry::Run(corpus_->dataset, options, ctx);
  }

  static void ExpectBitIdentical(const FusionResult& a,
                                 const FusionResult& b) {
    EXPECT_EQ(a.probability, b.probability);
    EXPECT_EQ(a.has_probability, b.has_probability);
    EXPECT_EQ(a.from_fallback, b.from_fallback);
    EXPECT_EQ(a.num_rounds, b.num_rounds);
    EXPECT_EQ(a.num_provenances, b.num_provenances);
  }

  static synth::SynthCorpus* corpus_;
  static std::vector<Label>* labels_;
};

synth::SynthCorpus* RegistryTest::corpus_ = nullptr;
std::vector<Label>* RegistryTest::labels_ = nullptr;

// ---- naming / lookup ----

// The registry name of every Method, in enum order.
const char* const kNames[] = {"vote",
                              "accu",
                              "popaccu",
                              "truthfinder",
                              "two_estimates",
                              "investment",
                              "pooled_investment",
                              "latent_truth",
                              "hierarchy",
                              "confidence_weighted",
                              "source_extractor"};

TEST(RegistryNamesTest, KnowsAllMethodsSorted) {
  ASSERT_EQ(std::size(kNames), kNumMethods);
  for (size_t i = 0; i < kNumMethods; ++i) {
    EXPECT_STREQ(Registry::NameOf(static_cast<Method>(i)), kNames[i]);
  }
  std::vector<std::string> sorted(std::begin(kNames), std::end(kNames));
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(Registry::Names(), sorted);
}

TEST(RegistryNamesTest, EngineMethodRoundTrip) {
  // Every name parses back to its Method; only VOTE, ACCU and POPACCU
  // are engine methods.
  for (size_t i = 0; i < kNumMethods; ++i) {
    const Method m = static_cast<Method>(i);
    Result<Method> parsed = Registry::Parse(Registry::NameOf(m));
    ASSERT_TRUE(parsed.ok()) << kNames[i];
    EXPECT_EQ(*parsed, m);
    EXPECT_EQ(IsEngineMethod(*parsed),
              m == Method::kVote || m == Method::kAccu ||
                  m == Method::kPopAccu)
        << kNames[i];
  }
}

TEST(RegistryNamesTest, UnknownNameListsValidOnes) {
  // Exact lowercase names only; the error lists every valid one.
  for (const char* bad : {"", "POPACCU", "nope"}) {
    Result<Method> parsed = Registry::Parse(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kNotFound);
    EXPECT_NE(parsed.status().message().find("valid: " +
                                             Registry::NamesCsv()),
              std::string::npos);
  }
}

// ---- bit-identical to the direct calls ----

TEST_F(RegistryTest, TruthFinderMatchesDirectCall) {
  ExpectBitIdentical(
      ViaRegistry(Method::kTruthFinder, FusionOptions()),
      RunTruthFinder(corpus_->dataset, TruthFinderOptions()));
}

TEST_F(RegistryTest, FuseRoutesRegistryOnlyNamesThroughRegistry) {
  // fusion::Fuse must accept every Validate()-OK options value,
  // including methods the engine itself cannot run.
  FusionOptions options;
  options.method = Method::kTruthFinder;
  ExpectBitIdentical(Fuse(corpus_->dataset, options),
                     RunTruthFinder(corpus_->dataset,
                                    TruthFinderOptions()));
}

TEST_F(RegistryTest, TwoEstimatesMatchesDirectCall) {
  ExpectBitIdentical(
      ViaRegistry(Method::kTwoEstimates, FusionOptions()),
      RunTwoEstimates(corpus_->dataset, TwoEstimatesOptions()));
}

TEST_F(RegistryTest, InvestmentMatchesDirectCall) {
  ExpectBitIdentical(ViaRegistry(Method::kInvestment, FusionOptions()),
                     RunInvestment(corpus_->dataset, InvestmentOptions()));
}

TEST_F(RegistryTest, PooledInvestmentMatchesDirectCall) {
  ExpectBitIdentical(
      ViaRegistry(Method::kPooledInvestment, FusionOptions()),
      RunPooledInvestment(corpus_->dataset, PooledInvestmentOptions()));
}

TEST_F(RegistryTest, BaselinesInheritSharedOptionFields) {
  // Non-default shared fields flow through to the baseline options.
  FusionOptions options;
  options.granularity = extract::Granularity::ExtractorSite();
  options.max_rounds = 3;
  options.num_shards = 8;
  TruthFinderOptions direct;
  direct.granularity = extract::Granularity::ExtractorSite();
  direct.max_rounds = 3;
  direct.num_shards = 8;
  ExpectBitIdentical(ViaRegistry(Method::kTruthFinder, options),
                     RunTruthFinder(corpus_->dataset, direct));
}

TEST_F(RegistryTest, LatentTruthMatchesDirectCall) {
  FusionOptions options;
  options.granularity =
      extract::Granularity::ExtractorSitePredicatePattern();
  ExpectBitIdentical(ViaRegistry(Method::kLatentTruth, options),
                     RunLatentTruth(corpus_->dataset, LatentTruthOptions()));
}

TEST_F(RegistryTest, HierarchyMatchesDirectCall) {
  FusionOptions options = FusionOptions::PopAccu();
  options.num_shards = 16;
  ExpectBitIdentical(
      ViaRegistry(Method::kHierarchy, options, /*with_gold=*/false,
                  /*with_hierarchy=*/true),
      HierarchyAwareFuse(corpus_->dataset, corpus_->world.hierarchy,
                         options));
}

TEST_F(RegistryTest, ConfidenceWeightedMatchesDirectCall) {
  FusionOptions options = FusionOptions::PopAccuPlusUnsup();
  ConfidenceWeightedOptions direct;  // default base == PopAccuPlusUnsup
  ExpectBitIdentical(
      ViaRegistry(Method::kConfidenceWeighted, options, /*with_gold=*/true),
      RunConfidenceWeighted(corpus_->dataset, direct, *labels_));
}

TEST_F(RegistryTest, SourceExtractorMatchesDirectCall) {
  ExpectBitIdentical(
      ViaRegistry(Method::kSourceExtractor, FusionOptions()),
      RunSourceExtractor(corpus_->dataset, SourceExtractorOptions()));
}

// ---- context validation ----

TEST_F(RegistryTest, HierarchyRequiresHierarchy) {
  FusionOptions options;
  options.method = Method::kHierarchy;
  EXPECT_FALSE(
      Registry::ValidateContext(corpus_->dataset, options, FuseContext())
          .ok());
}

TEST_F(RegistryTest, ConfidenceWeightedRequiresGold) {
  FusionOptions options;
  options.method = Method::kConfidenceWeighted;
  EXPECT_FALSE(
      Registry::ValidateContext(corpus_->dataset, options, FuseContext())
          .ok());
}

TEST_F(RegistryTest, GoldInitRequiresGoldLabels) {
  FusionOptions options = FusionOptions::PopAccuPlus();
  EXPECT_FALSE(
      Registry::ValidateContext(corpus_->dataset, options, FuseContext())
          .ok());
  // Mis-sized gold labels are rejected up front, not KF_CHECKed deep in.
  std::vector<Label> short_gold(3, Label::kTrue);
  FuseContext ctx;
  ctx.gold = &short_gold;
  EXPECT_FALSE(Registry::ValidateContext(corpus_->dataset, options, ctx).ok());
}

}  // namespace
}  // namespace kf::fusion
