// The method-registry contract: every Method has one name that parses
// back to it, unknown names fail with the full list of valid names, every
// stateless row is bit-identical to a direct call of its runner with the
// same options, its output is pinned across versions, and it rejects the
// FusionOptions fields it does not read.
#include "fusion/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>

#include "common/checksum.h"
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

  static FuseContext Context(bool with_gold, bool with_hierarchy) {
    FuseContext ctx;
    if (with_gold) ctx.gold = labels_;
    if (with_hierarchy) ctx.hierarchy = &corpus_->world.hierarchy;
    return ctx;
  }

  /// Runs `method`'s registry row with `options` + context.
  static FusionResult ViaRegistry(Method method, FusionOptions options,
                                  bool with_gold = false,
                                  bool with_hierarchy = false) {
    options.method = method;
    const FuseContext ctx = Context(with_gold, with_hierarchy);
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
      RunTruthFinder(corpus_->dataset, FusionOptions(), FuseContext()));
}

TEST_F(RegistryTest, FuseRoutesRegistryOnlyNamesThroughRegistry) {
  // fusion::Fuse must accept every Validate()-OK options value,
  // including methods the engine itself cannot run.
  FusionOptions options;
  options.method = Method::kTruthFinder;
  ExpectBitIdentical(Fuse(corpus_->dataset, options),
                     RunTruthFinder(corpus_->dataset, options, FuseContext()));
}

TEST_F(RegistryTest, TwoEstimatesMatchesDirectCall) {
  ExpectBitIdentical(
      ViaRegistry(Method::kTwoEstimates, FusionOptions()),
      RunTwoEstimates(corpus_->dataset, FusionOptions(), FuseContext()));
}

TEST_F(RegistryTest, InvestmentMatchesDirectCall) {
  ExpectBitIdentical(
      ViaRegistry(Method::kInvestment, FusionOptions()),
      RunInvestment(corpus_->dataset, FusionOptions(), FuseContext()));
}

TEST_F(RegistryTest, PooledInvestmentMatchesDirectCall) {
  ExpectBitIdentical(
      ViaRegistry(Method::kPooledInvestment, FusionOptions()),
      RunPooledInvestment(corpus_->dataset, FusionOptions(), FuseContext()));
}

TEST_F(RegistryTest, BaselinesInheritSharedOptionFields) {
  // Non-default fields the row reads reach the runner unchanged.
  FusionOptions options;
  options.granularity = extract::Granularity::ExtractorSite();
  options.max_rounds = 3;
  options.num_shards = 8;
  ExpectBitIdentical(ViaRegistry(Method::kTruthFinder, options),
                     RunTruthFinder(corpus_->dataset, options, FuseContext()));
}

TEST_F(RegistryTest, LatentTruthMatchesDirectCall) {
  FusionOptions options;
  options.granularity =
      extract::Granularity::ExtractorSitePredicatePattern();
  ExpectBitIdentical(
      ViaRegistry(Method::kLatentTruth, options),
      RunLatentTruth(corpus_->dataset, options, FuseContext()));
}

TEST_F(RegistryTest, HierarchyMatchesDirectCall) {
  FusionOptions options = FusionOptions::PopAccu();
  options.num_shards = 16;
  ExpectBitIdentical(
      ViaRegistry(Method::kHierarchy, options, /*with_gold=*/false,
                  /*with_hierarchy=*/true),
      HierarchyAwareFuse(corpus_->dataset, options,
                         Context(/*with_gold=*/false,
                                 /*with_hierarchy=*/true)));
}

TEST_F(RegistryTest, ConfidenceWeightedMatchesDirectCall) {
  FusionOptions options;
  options.granularity =
      extract::Granularity::ExtractorSitePredicatePattern();
  ExpectBitIdentical(
      ViaRegistry(Method::kConfidenceWeighted, options, /*with_gold=*/true),
      RunConfidenceWeighted(corpus_->dataset, options,
                            Context(/*with_gold=*/true,
                                    /*with_hierarchy=*/false)));
}

TEST_F(RegistryTest, SourceExtractorMatchesDirectCall) {
  ExpectBitIdentical(
      ViaRegistry(Method::kSourceExtractor, FusionOptions()),
      RunSourceExtractor(corpus_->dataset, FusionOptions(), FuseContext()));
}

// ---- every non-engine row pinned across versions ----
//
// The tests above compare a row with the call it routes to. This case
// pins each non-engine row's output, under two option regimes, to CRC-32
// constants recorded from an earlier implementation, so a change to a
// row's option routing or to one of its tuning constants that moves a
// single bit fails here. A deliberate change to a method's arithmetic
// re-records its constants.
uint32_t OutputCrc(const FusionResult& r) {
  uint32_t crc = 0;
  auto add = [&crc](const void* data, size_t bytes) {
    crc = Crc32(data, bytes, crc);
  };
  add(r.probability.data(), r.probability.size() * sizeof(double));
  add(r.has_probability.data(), r.has_probability.size());
  add(r.from_fallback.data(), r.from_fallback.size());
  add(&r.num_rounds, sizeof(r.num_rounds));
  add(&r.num_provenances, sizeof(r.num_provenances));
  return crc;
}

TEST_F(RegistryTest, RowsMatchRecordedOutput) {
  const extract::Granularity fine =
      extract::Granularity::ExtractorSitePredicatePattern();
  const struct {
    Method method;
    bool reads_granularity;
    uint32_t crc_defaults;  // default options (fine granularity for LTM, CW)
    uint32_t crc_site_r3;   // max_rounds 3, (Extractor, Site) if read
  } rows[] = {
      {Method::kTruthFinder, true, 0x24d143bdu, 0x34395cdfu},
      {Method::kTwoEstimates, true, 0x2fd7e1a2u, 0x103c04b8u},
      {Method::kInvestment, true, 0x2c4f70dbu, 0xad79f201u},
      {Method::kPooledInvestment, true, 0x5520b9f8u, 0x57ce662au},
      {Method::kLatentTruth, true, 0x323953c2u, 0x0c3b0c98u},
      {Method::kHierarchy, true, 0xe2a83a10u, 0x3766b810u},
      {Method::kConfidenceWeighted, true, 0x8ec7c6cbu, 0xd40d5682u},
      {Method::kSourceExtractor, false, 0xe71af12bu, 0x10dea2e6u},
  };
  for (const auto& row : rows) {
    const bool gold = row.method == Method::kConfidenceWeighted;
    const bool hierarchy = row.method == Method::kHierarchy;
    FusionOptions defaults;
    if (row.method == Method::kLatentTruth || gold) {
      defaults.granularity = fine;
    }
    FusionOptions site_r3;
    site_r3.max_rounds = 3;
    if (row.reads_granularity) {
      site_r3.granularity = extract::Granularity::ExtractorSite();
    }
    const struct {
      const char* regime;
      const FusionOptions& options;
      uint32_t crc;
    } regimes[] = {{"defaults", defaults, row.crc_defaults},
                   {"site, 3 rounds", site_r3, row.crc_site_r3}};
    for (const auto& r : regimes) {
      const uint32_t crc =
          OutputCrc(ViaRegistry(row.method, r.options, gold, hierarchy));
      std::ostringstream hex;
      hex << std::hex << "0x" << crc;
      EXPECT_EQ(crc, r.crc) << Registry::NameOf(row.method) << " under "
                            << r.regime << ": got " << hex.str();
    }
  }
}

// ---- each row rejects the fields it does not read ----

TEST_F(RegistryTest, RowsRejectFieldsTheyDoNotRead) {
  // One non-default value per FusionOptions field besides `method`.
  const struct {
    const char* name;
    void (*set)(FusionOptions*);
  } fields[] = {
      {"granularity",
       [](FusionOptions* o) {
         o->granularity = extract::Granularity::ExtractorSite();
       }},
      {"default_accuracy", [](FusionOptions* o) { o->default_accuracy = 0.7; }},
      {"n_false_values", [](FusionOptions* o) { o->n_false_values = 50.0; }},
      {"max_rounds", [](FusionOptions* o) { o->max_rounds = 3; }},
      {"convergence_epsilon",
       [](FusionOptions* o) { o->convergence_epsilon = 1e-3; }},
      {"sample_cap", [](FusionOptions* o) { o->sample_cap = 100; }},
      {"filter_by_coverage",
       [](FusionOptions* o) { o->filter_by_coverage = true; }},
      {"min_provenance_accuracy",
       [](FusionOptions* o) { o->min_provenance_accuracy = 0.6; }},
      {"init_accuracy_from_gold",
       [](FusionOptions* o) { o->init_accuracy_from_gold = true; }},
      {"gold_sample_rate", [](FusionOptions* o) { o->gold_sample_rate = 0.5; }},
      {"memory_budget_bytes",
       [](FusionOptions* o) { o->memory_budget_bytes = 1 << 20; }},
      {"spill_dir", [](FusionOptions* o) { o->spill_dir = "spill"; }},
      {"num_workers", [](FusionOptions* o) { o->num_workers = 2; }},
      {"num_shards", [](FusionOptions* o) { o->num_shards = 8; }},
      {"seed", [](FusionOptions* o) { o->seed = 11; }},
      {"accuracy_floor", [](FusionOptions* o) { o->accuracy_floor = 0.05; }},
      {"accuracy_ceiling",
       [](FusionOptions* o) { o->accuracy_ceiling = 0.95; }},
      {"warm_start", [](FusionOptions* o) { o->warm_start.max_rounds = 2; }},
  };
  using Names = std::vector<std::string>;
  const Names claim_graph = {"granularity", "max_rounds", "num_shards",
                             "num_workers"};
  Names weighted = claim_graph;
  weighted.push_back("default_accuracy");
  Names hierarchy;
  for (const auto& f : fields) {
    const std::string name = f.name;
    if (name != "memory_budget_bytes" && name != "spill_dir" &&
        name != "warm_start") {
      hierarchy.push_back(name);
    }
  }
  const struct {
    Method method;
    Names reads;
  } rows[] = {
      {Method::kTruthFinder, claim_graph},
      {Method::kTwoEstimates, claim_graph},
      {Method::kInvestment, claim_graph},
      {Method::kPooledInvestment, claim_graph},
      {Method::kLatentTruth, claim_graph},
      {Method::kHierarchy, hierarchy},
      {Method::kConfidenceWeighted, weighted},
      {Method::kSourceExtractor,
       {"max_rounds", "default_accuracy", "accuracy_floor",
        "accuracy_ceiling"}},
  };
  // Every side input present, so only the fields decide.
  FuseContext ctx;
  ctx.gold = labels_;
  ctx.hierarchy = &corpus_->world.hierarchy;
  for (const auto& row : rows) {
    for (const auto& f : fields) {
      FusionOptions options;
      options.method = row.method;
      f.set(&options);
      const bool reads = std::find(row.reads.begin(), row.reads.end(),
                                   f.name) != row.reads.end();
      const Status status =
          Registry::ValidateContext(corpus_->dataset, options, ctx);
      SCOPED_TRACE(std::string(Registry::NameOf(row.method)) + " with " +
                   f.name);
      if (reads) {
        EXPECT_TRUE(status.ok()) << status.ToString();
      } else {
        EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
        EXPECT_NE(status.message().find(f.name), std::string::npos)
            << status.ToString();
      }
    }
  }
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
