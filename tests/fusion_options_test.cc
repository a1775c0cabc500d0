#include "fusion/options.h"

#include <iterator>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "fusion/engine.h"

namespace kf::fusion {
namespace {

TEST(FusionOptionsTest, DefaultsAreValid) {
  EXPECT_TRUE(FusionOptions().Validate().ok());
}

TEST(FusionOptionsTest, PresetsAreValidAndSetMethod) {
  EXPECT_TRUE(FusionOptions::Vote().Validate().ok());
  EXPECT_TRUE(FusionOptions::Accu().Validate().ok());
  EXPECT_TRUE(FusionOptions::PopAccu().Validate().ok());
  EXPECT_TRUE(FusionOptions::PopAccuPlusUnsup().Validate().ok());
  EXPECT_TRUE(FusionOptions::PopAccuPlus().Validate().ok());

  EXPECT_EQ(FusionOptions::Vote().method, Method::kVote);
  EXPECT_EQ(FusionOptions::Accu().method, Method::kAccu);
  EXPECT_EQ(FusionOptions::PopAccu().method, Method::kPopAccu);
  EXPECT_TRUE(FusionOptions::PopAccuPlus().init_accuracy_from_gold);
}

TEST(FusionOptionsTest, RejectsOutOfRangeDefaultAccuracy) {
  FusionOptions o;
  o.default_accuracy = 0.0;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o.default_accuracy = 1.0;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o.default_accuracy = -0.3;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(FusionOptionsTest, RejectsNonPositiveNFalseValues) {
  FusionOptions o;
  o.n_false_values = 0.0;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o.n_false_values = -5.0;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(FusionOptionsTest, RejectsZeroRoundsAndZeroSampleCap) {
  FusionOptions o;
  o.max_rounds = 0;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);

  FusionOptions o2;
  o2.sample_cap = 0;
  EXPECT_EQ(o2.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(FusionOptionsTest, RejectsNegativeEpsilon) {
  FusionOptions o;
  o.convergence_epsilon = -1e-9;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(FusionOptionsTest, RejectsBadProvenanceAccuracyFilter) {
  FusionOptions o;
  o.min_provenance_accuracy = -0.1;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o.min_provenance_accuracy = 1.0;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(FusionOptionsTest, RejectsNaNInEveryFloatingField) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (auto set : {+[](FusionOptions& o, double v) { o.default_accuracy = v; },
                   +[](FusionOptions& o, double v) { o.n_false_values = v; },
                   +[](FusionOptions& o, double v) {
                     o.convergence_epsilon = v;
                   },
                   +[](FusionOptions& o, double v) {
                     o.min_provenance_accuracy = v;
                   },
                   +[](FusionOptions& o, double v) { o.gold_sample_rate = v; },
                   +[](FusionOptions& o, double v) { o.accuracy_floor = v; },
                   +[](FusionOptions& o, double v) {
                     o.accuracy_ceiling = v;
                   }}) {
    FusionOptions o;
    set(o, nan);
    EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  }
}

TEST(FusionOptionsTest, RejectsBadGoldSampleCombinations) {
  FusionOptions o;
  o.gold_sample_rate = 1.5;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o.gold_sample_rate = -0.1;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);

  // Rate 0 is fine on its own (no gold init)...
  FusionOptions o2;
  o2.gold_sample_rate = 0.0;
  EXPECT_TRUE(o2.Validate().ok());
  // ...but contradicts asking for gold-based initialization.
  o2.init_accuracy_from_gold = true;
  EXPECT_EQ(o2.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(FusionOptionsTest, RejectsInvertedAccuracyClamp) {
  FusionOptions o;
  o.accuracy_floor = 0.6;
  o.accuracy_ceiling = 0.4;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);

  FusionOptions o2;
  o2.accuracy_floor = 0.0;
  EXPECT_EQ(o2.Validate().code(), StatusCode::kInvalidArgument);

  FusionOptions o3;
  o3.accuracy_ceiling = 1.0;
  EXPECT_EQ(o3.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(FusionOptionsTest, MethodNames) {
  // The leading token of ToString() for every method: the engine methods
  // in the paper's capitals, the others by registry name.
  const char* const kTokens[] = {"VOTE",
                                 "ACCU",
                                 "POPACCU",
                                 "truthfinder",
                                 "two_estimates",
                                 "investment",
                                 "pooled_investment",
                                 "latent_truth",
                                 "hierarchy",
                                 "confidence_weighted",
                                 "source_extractor"};
  ASSERT_EQ(std::size(kTokens), kNumMethods);
  for (size_t i = 0; i < kNumMethods; ++i) {
    FusionOptions o;
    o.method = static_cast<Method>(i);
    const std::string s = o.ToString();
    EXPECT_EQ(s.substr(0, s.find(' ')), kTokens[i]) << s;
  }
}

TEST(FusionOptionsTest, ToStringShowsGranularityOnlyWhereRead) {
  // Every method but source_extractor reads the provenance granularity.
  for (size_t i = 0; i < kNumMethods; ++i) {
    FusionOptions o;
    o.method = static_cast<Method>(i);
    const std::string s = o.ToString();
    EXPECT_EQ(s.find(" prov=(Extractor, URL)") != std::string::npos,
              o.method != Method::kSourceExtractor)
        << s;
  }
}

TEST(FusionOptionsTest, ToStringMentionsRefinements) {
  FusionOptions o = FusionOptions::PopAccuPlus();
  std::string s = o.ToString();
  EXPECT_NE(s.find("POPACCU"), std::string::npos);
  EXPECT_NE(s.find("+FilterByCov"), std::string::npos);
  EXPECT_NE(s.find("+FilterByAccu"), std::string::npos);
  EXPECT_NE(s.find("+InitAccuByGS"), std::string::npos);
}

TEST(FusionOptionsDeathTest, EngineRefusesInvalidOptions) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  extract::ExtractionDataset dataset;
  FusionOptions bad;
  bad.max_rounds = 0;
  EXPECT_DEATH(FusionEngine(dataset, bad), "max_rounds");

  FusionOptions bad2;
  bad2.default_accuracy = 2.0;
  EXPECT_DEATH(FusionEngine(dataset, bad2), "default_accuracy");

  // fusion::Fuse validates the options of every method, not only the
  // engine ones.
  bad.method = Method::kSourceExtractor;
  EXPECT_DEATH(Fuse(dataset, bad), "max_rounds");
}

}  // namespace
}  // namespace kf::fusion
