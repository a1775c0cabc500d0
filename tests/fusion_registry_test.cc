// The method-registry contract: every registered fuser is bit-identical
// to the direct call it wraps (with equivalently filled per-method
// options), unknown names fail with the full list of valid names, and
// FusionOptions::Validate covers method_name.
#include "fusion/registry.h"

#include <gtest/gtest.h>

#include <algorithm>

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

  /// Runs the named method through the registry with `options` + context.
  static FusionResult ViaRegistry(const std::string& name,
                                  FusionOptions options,
                                  bool with_gold = false,
                                  bool with_hierarchy = false) {
    options.method_name = name;
    Result<std::unique_ptr<Fuser>> fuser = Registry::Create(name);
    KF_CHECK(fuser.ok());
    FuseContext ctx;
    if (with_gold) ctx.gold = labels_;
    if (with_hierarchy) ctx.hierarchy = &corpus_->world.hierarchy;
    KF_CHECK_OK((*fuser)->ValidateContext(corpus_->dataset, options, ctx));
    return (*fuser)->Run(corpus_->dataset, options, ctx);
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

TEST(RegistryNamesTest, KnowsAllMethodsSorted) {
  std::vector<std::string> names = Registry::Names();
  EXPECT_GE(names.size(), 11u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* expected :
       {"vote", "accu", "popaccu", "truthfinder", "two_estimates",
        "investment", "pooled_investment", "latent_truth", "hierarchy",
        "confidence_weighted", "source_extractor"}) {
    EXPECT_TRUE(Registry::Contains(expected)) << expected;
  }
  EXPECT_FALSE(Registry::Contains("POPACCU"));  // exact lowercase names
  EXPECT_FALSE(Registry::Contains(""));
}

TEST(RegistryNamesTest, UnknownNameListsValidOnes) {
  Result<std::unique_ptr<Fuser>> fuser = Registry::Create("nope");
  ASSERT_FALSE(fuser.ok());
  EXPECT_EQ(fuser.status().code(), StatusCode::kNotFound);
  EXPECT_NE(fuser.status().message().find("popaccu"), std::string::npos);
  EXPECT_NE(fuser.status().message().find("truthfinder"),
            std::string::npos);
}

TEST(RegistryNamesTest, EngineMethodRoundTrip) {
  for (Method m : {Method::kVote, Method::kAccu, Method::kPopAccu}) {
    Method parsed;
    ASSERT_TRUE(ParseEngineMethod(Registry::NameOf(m), &parsed));
    EXPECT_EQ(parsed, m);
  }
  Method parsed;
  EXPECT_FALSE(ParseEngineMethod("truthfinder", &parsed));
  EXPECT_FALSE(ParseEngineMethod("", &parsed));
}

TEST(RegistryNamesTest, OptionsValidateCoversMethodName) {
  FusionOptions options;
  options.method_name = "latent_truth";
  EXPECT_TRUE(options.Validate().ok());
  options.method_name = "bogus";
  Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("vote"), std::string::npos);
}

// ---- bit-identical to the direct calls ----

TEST_F(RegistryTest, EngineMethodsMatchDirectFuse) {
  for (Method m : {Method::kVote, Method::kAccu, Method::kPopAccu}) {
    FusionOptions options;
    options.method = m;
    options.num_shards = 16;
    ExpectBitIdentical(ViaRegistry(Registry::NameOf(m), options),
                       Fuse(corpus_->dataset, options));
  }
}

TEST_F(RegistryTest, EngineMethodNameOverridesEnum) {
  // method_name wins over a contradicting enum.
  FusionOptions options;
  options.method = Method::kPopAccu;
  options.num_shards = 16;
  FusionOptions vote = options;
  vote.method = Method::kVote;
  ExpectBitIdentical(ViaRegistry("vote", options),
                     Fuse(corpus_->dataset, vote));
}

TEST_F(RegistryTest, TruthFinderMatchesDirectCall) {
  ExpectBitIdentical(
      ViaRegistry("truthfinder", FusionOptions()),
      RunTruthFinder(corpus_->dataset, TruthFinderOptions()));
}

TEST_F(RegistryTest, FuseRoutesRegistryOnlyNamesThroughRegistry) {
  // The convenience wrapper must accept every Validate()-OK options
  // value, including names the engine itself cannot run.
  FusionOptions options;
  options.method_name = "truthfinder";
  ExpectBitIdentical(Fuse(corpus_->dataset, options),
                     RunTruthFinder(corpus_->dataset,
                                    TruthFinderOptions()));
}

TEST_F(RegistryTest, TwoEstimatesMatchesDirectCall) {
  ExpectBitIdentical(
      ViaRegistry("two_estimates", FusionOptions()),
      RunTwoEstimates(corpus_->dataset, TwoEstimatesOptions()));
}

TEST_F(RegistryTest, InvestmentMatchesDirectCall) {
  ExpectBitIdentical(ViaRegistry("investment", FusionOptions()),
                     RunInvestment(corpus_->dataset, InvestmentOptions()));
}

TEST_F(RegistryTest, PooledInvestmentMatchesDirectCall) {
  ExpectBitIdentical(
      ViaRegistry("pooled_investment", FusionOptions()),
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
  ExpectBitIdentical(ViaRegistry("truthfinder", options),
                     RunTruthFinder(corpus_->dataset, direct));
}

TEST_F(RegistryTest, LatentTruthMatchesDirectCall) {
  FusionOptions options;
  options.granularity =
      extract::Granularity::ExtractorSitePredicatePattern();
  ExpectBitIdentical(ViaRegistry("latent_truth", options),
                     RunLatentTruth(corpus_->dataset, LatentTruthOptions()));
}

TEST_F(RegistryTest, HierarchyMatchesDirectCall) {
  FusionOptions options = FusionOptions::PopAccu();
  options.num_shards = 16;
  ExpectBitIdentical(
      ViaRegistry("hierarchy", options, /*with_gold=*/false,
                  /*with_hierarchy=*/true),
      HierarchyAwareFuse(corpus_->dataset, corpus_->world.hierarchy,
                         options));
}

TEST_F(RegistryTest, ConfidenceWeightedMatchesDirectCall) {
  FusionOptions options = FusionOptions::PopAccuPlusUnsup();
  ConfidenceWeightedOptions direct;  // default base == PopAccuPlusUnsup
  ExpectBitIdentical(
      ViaRegistry("confidence_weighted", options, /*with_gold=*/true),
      RunConfidenceWeighted(corpus_->dataset, direct, *labels_));
}

TEST_F(RegistryTest, SourceExtractorMatchesDirectCall) {
  ExpectBitIdentical(
      ViaRegistry("source_extractor", FusionOptions()),
      RunSourceExtractor(corpus_->dataset, SourceExtractorOptions()));
}

// ---- context validation ----

TEST_F(RegistryTest, HierarchyRequiresHierarchy) {
  Result<std::unique_ptr<Fuser>> fuser = Registry::Create("hierarchy");
  ASSERT_TRUE(fuser.ok());
  Status status = (*fuser)->ValidateContext(corpus_->dataset,
                                            FusionOptions(), FuseContext());
  EXPECT_FALSE(status.ok());
}

TEST_F(RegistryTest, ConfidenceWeightedRequiresGold) {
  Result<std::unique_ptr<Fuser>> fuser =
      Registry::Create("confidence_weighted");
  ASSERT_TRUE(fuser.ok());
  Status status = (*fuser)->ValidateContext(corpus_->dataset,
                                            FusionOptions(), FuseContext());
  EXPECT_FALSE(status.ok());
}

TEST_F(RegistryTest, GoldInitRequiresGoldLabels) {
  Result<std::unique_ptr<Fuser>> fuser = Registry::Create("popaccu");
  ASSERT_TRUE(fuser.ok());
  FusionOptions options = FusionOptions::PopAccuPlus();
  EXPECT_FALSE((*fuser)
                   ->ValidateContext(corpus_->dataset, options,
                                     FuseContext())
                   .ok());
  // Mis-sized gold labels are rejected up front, not KF_CHECKed deep in.
  std::vector<Label> short_gold(3, Label::kTrue);
  FuseContext ctx;
  ctx.gold = &short_gold;
  EXPECT_FALSE(
      (*fuser)->ValidateContext(corpus_->dataset, options, ctx).ok());
}

}  // namespace
}  // namespace kf::fusion
