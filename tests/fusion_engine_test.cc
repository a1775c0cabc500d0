#include "fusion/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/string_util.h"
#include "common/threadpool.h"
#include "eval/gold_standard.h"
#include "spill/spill.h"
#include "synth/corpus.h"

namespace kf::fusion {
namespace {

// Hand-built micro dataset: two items, a reliable and an unreliable
// pseudo-source structure.
extract::ExtractionDataset MicroDataset() {
  extract::ExtractionDataset d;
  d.SetExtractors({extract::ExtractorMeta{"E0", extract::ContentType::kTxt,
                                          true, 0, 0},
                   extract::ExtractorMeta{"E1", extract::ContentType::kDom,
                                          true, 1, 0}});
  d.SetUrlSites({0, 0, 1, 1, 1});
  d.SetCounts(2, 2, 2);
  auto add = [&](kb::EntityId s, kb::PredicateId p, kb::ValueId o,
                 uint32_t ext, uint32_t url) {
    kb::TripleId t = d.InternTriple(kb::DataItem{s, p}, o, false, false);
    extract::ExtractionRecord r;
    r.triple = t;
    r.prov.extractor = ext;
    r.prov.url = url;
    r.prov.site = d.site_of_url(url);
    r.prov.pattern = ext;
    r.prov.predicate = p;
    d.AddRecord(r);
  };
  // Item (1,0): value 10 backed by 3 provenances, value 11 by 1.
  add(1, 0, 10, 0, 0);
  add(1, 0, 10, 1, 1);
  add(1, 0, 10, 0, 2);
  add(1, 0, 11, 1, 3);
  // Item (2,1): single claim from a provenance that claims nothing else.
  add(2, 1, 20, 0, 4);
  return d;
}

TEST(EngineTest, VoteProbabilities) {
  auto d = MicroDataset();
  auto result = Fuse(d, FusionOptions::Vote());
  kb::TripleId t10 = d.FindTriple(kb::DataItem{1, 0}, 10);
  kb::TripleId t11 = d.FindTriple(kb::DataItem{1, 0}, 11);
  kb::TripleId t20 = d.FindTriple(kb::DataItem{2, 1}, 20);
  EXPECT_DOUBLE_EQ(result.probability[t10], 0.75);
  EXPECT_DOUBLE_EQ(result.probability[t11], 0.25);
  EXPECT_DOUBLE_EQ(result.probability[t20], 1.0);
  EXPECT_EQ(result.num_rounds, 1u);
}

TEST(EngineTest, DuplicateRecordsCollapseToOneClaim) {
  auto d = MicroDataset();
  // Re-add an existing record many times: same (prov, triple) pair.
  extract::ExtractionRecord r = d.records()[0];
  for (int i = 0; i < 10; ++i) d.AddRecord(r);
  auto result = Fuse(d, FusionOptions::Vote());
  kb::TripleId t10 = d.FindTriple(kb::DataItem{1, 0}, 10);
  EXPECT_DOUBLE_EQ(result.probability[t10], 0.75);  // unchanged
}

TEST(EngineTest, PopAccuSingletonValley) {
  auto d = MicroDataset();
  auto result = Fuse(d, FusionOptions::PopAccu());
  kb::TripleId t20 = d.FindTriple(kb::DataItem{2, 1}, 20);
  // The paper's diagnostic: a lone default-accuracy provenance keeps
  // reproducing A0 = 0.8.
  EXPECT_NEAR(result.probability[t20], 0.8, 0.05);
}

TEST(EngineTest, AgreementWinsUnderAccu) {
  auto d = MicroDataset();
  auto result = Fuse(d, FusionOptions::Accu());
  kb::TripleId t10 = d.FindTriple(kb::DataItem{1, 0}, 10);
  kb::TripleId t11 = d.FindTriple(kb::DataItem{1, 0}, 11);
  EXPECT_GT(result.probability[t10], 0.9);
  EXPECT_LT(result.probability[t11], 0.3);
}

TEST(EngineTest, RoundCallbackFiresEachRound) {
  auto d = MicroDataset();
  FusionOptions opts = FusionOptions::PopAccu();
  opts.max_rounds = 3;
  opts.convergence_epsilon = 0.0;
  FusionEngine engine(d, opts);
  size_t calls = 0;
  engine.Run(nullptr, [&](size_t round, const std::vector<double>&,
                          const std::vector<uint8_t>&) {
    ++calls;
    EXPECT_EQ(round, calls);
  });
  EXPECT_EQ(calls, 3u);
}

TEST(EngineTest, ConvergenceStopsEarly) {
  auto d = MicroDataset();
  FusionOptions opts = FusionOptions::PopAccu();
  opts.max_rounds = 50;
  opts.convergence_epsilon = 1e-3;
  auto result = Fuse(d, opts);
  EXPECT_LT(result.num_rounds, 50u);
}

TEST(EngineTest, GoldInitRequiresLabels) {
  auto d = MicroDataset();
  FusionOptions opts = FusionOptions::PopAccu();
  opts.init_accuracy_from_gold = true;
  FusionEngine engine(d, opts);
  EXPECT_DEATH(engine.Run(nullptr), "KF_CHECK");
}

TEST(EngineTest, GoldInitUsesLabels) {
  auto d = MicroDataset();
  // Label triple (1,0,10) true and (1,0,11) false: provenances carrying 10
  // start accurate, the one carrying 11 starts inaccurate.
  std::vector<Label> labels(d.num_triples(), Label::kUnknown);
  labels[d.FindTriple(kb::DataItem{1, 0}, 10)] = Label::kTrue;
  labels[d.FindTriple(kb::DataItem{1, 0}, 11)] = Label::kFalse;
  FusionOptions opts = FusionOptions::PopAccu();
  opts.init_accuracy_from_gold = true;
  auto result = Fuse(d, opts, &labels);
  EXPECT_GT(result.probability[d.FindTriple(kb::DataItem{1, 0}, 10)], 0.95);
  EXPECT_LT(result.probability[d.FindTriple(kb::DataItem{1, 0}, 11)], 0.05);
}

TEST(EngineTest, CoverageFilterLeavesSingletonItemsUnpredicted) {
  auto d = MicroDataset();
  FusionOptions opts = FusionOptions::PopAccu();
  opts.filter_by_coverage = true;
  auto result = Fuse(d, opts);
  // Item (2,1) has a single singleton triple: no multi-support, no
  // prediction (the paper's 8.2%).
  kb::TripleId t20 = d.FindTriple(kb::DataItem{2, 1}, 20);
  kb::TripleId t10 = d.FindTriple(kb::DataItem{1, 0}, 10);
  EXPECT_TRUE(result.has_probability[t10]);
  EXPECT_LT(result.Coverage(), 1.0);
  (void)t20;
}

TEST(EngineTest, ThetaFallbackMarksFallbackTriples) {
  auto d = MicroDataset();
  FusionOptions opts = FusionOptions::PopAccu();
  opts.min_provenance_accuracy = 0.99;  // filter everything
  auto result = Fuse(d, opts);
  // Everything falls back to mean provenance accuracy and is flagged.
  for (kb::TripleId t = 0; t < d.num_triples(); ++t) {
    ASSERT_TRUE(result.has_probability[t]);
    EXPECT_TRUE(result.from_fallback[t]);
    EXPECT_NEAR(result.probability[t], 0.8, 0.3);
  }
}

TEST(EngineTest, SampleCapKeepsRunning) {
  auto d = MicroDataset();
  FusionOptions opts = FusionOptions::PopAccu();
  opts.sample_cap = 2;  // extreme downsampling
  auto result = Fuse(d, opts);
  // Triples dropped by the reservoir may lose their prediction, but the
  // engine must stay healthy and keep most of the corpus covered.
  EXPECT_GE(result.Coverage(), 0.5);
  for (kb::TripleId t = 0; t < d.num_triples(); ++t) {
    if (!result.has_probability[t]) continue;
    EXPECT_GE(result.probability[t], 0.0);
    EXPECT_LE(result.probability[t], 1.0);
  }
}

// Multi-worker fusion must run entirely on the persistent global pool:
// the process-wide thread-creation counter stays flat across rounds, Run()
// calls, and engines. (~60 rounds of multi-worker POPACCU = ~120
// ParallelFor calls; the historical spawn-per-call design would create
// hundreds of threads here.)
TEST(EngineTest, PoolThreadsPersistAcrossRunsAndEngines) {
  static const synth::SynthCorpus& corpus = *new synth::SynthCorpus(
      synth::GenerateCorpus(synth::SynthConfig::Small()));
  FusionOptions opts = FusionOptions::PopAccu();
  opts.num_workers = 8;
  opts.num_shards = 8;

  FusionEngine engine(corpus.dataset, opts);
  engine.Run();  // warm up: forces the lazy global pool into existence
  const size_t created_before = ThreadPool::TotalThreadsCreated();

  engine.Run();
  EXPECT_EQ(ThreadPool::TotalThreadsCreated(), created_before);

  FusionEngine second(corpus.dataset, opts);
  second.Run();
  EXPECT_EQ(ThreadPool::TotalThreadsCreated(), created_before);
}

TEST(EngineTest, ShardSweepMicrosCoversEveryShard) {
  static const synth::SynthCorpus& corpus = *new synth::SynthCorpus(
      synth::GenerateCorpus(synth::SynthConfig::Small()));
  FusionOptions opts = FusionOptions::PopAccu();
  opts.num_shards = 8;
  FusionEngine engine(corpus.dataset, opts);
  EXPECT_TRUE(engine.shard_sweep_micros().empty());  // no sweep yet
  engine.Run();
  EXPECT_EQ(engine.shard_sweep_micros().size(), engine.graph().num_shards());

  // A budgeted run sweeps subset by subset (one shard per subset at a
  // 1-byte budget) and must time every shard all the same.
  opts.memory_budget_bytes = 1;
  FusionEngine budgeted(corpus.dataset, opts);
  FusionResult result = budgeted.Prepare();
  auto manager = spill::ShardSpillManager::Create(&budgeted);
  ASSERT_TRUE(manager.ok());
  ASSERT_TRUE(
      (*manager)->RunRounds(FusionEngine::Start::kCold, &result).ok());
  EXPECT_GT((*manager)->plan().subsets.size(), 1u);
  EXPECT_EQ(budgeted.shard_sweep_micros().size(),
            budgeted.graph().num_shards());
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Stage II folds each provenance's groups in ascending shard order however
// the plan lists its subsets: the plans below feed it shards in descending
// order, one at a time, and dealt round-robin into three subsets listed
// last-first. sample_cap 3 sends provenances down the oversized path,
// whose raw values are concatenated rather than summed.
TEST(EngineTest, AnySubsetPlanMatchesResidentRun) {
  static const synth::SynthCorpus& corpus = *new synth::SynthCorpus(
      synth::GenerateCorpus(synth::SynthConfig::Small()));
  constexpr uint32_t kShards = 8;
  std::vector<std::vector<uint32_t>> descending;
  for (uint32_t s = kShards; s-- > 0;) descending.push_back({s});
  std::vector<std::vector<uint32_t>> dealt(3);
  for (uint32_t s = 0; s < kShards; ++s) dealt[s % 3].push_back(s);
  std::reverse(dealt.begin(), dealt.end());

  for (size_t cap : {FusionOptions().sample_cap, size_t{3}}) {
    FusionOptions opts = FusionOptions::PopAccu();
    opts.num_shards = kShards;
    opts.sample_cap = cap;
    FusionEngine resident(corpus.dataset, opts);
    const FusionResult expected = resident.Run();
    if (cap == 3) {
      const std::vector<uint32_t>& claims = resident.provenance_claims();
      ASSERT_GT(*std::max_element(claims.begin(), claims.end()), cap);
    }
    for (const auto* plan : {&descending, &dealt}) {
      SCOPED_TRACE(StrFormat("sample_cap %zu, %zu subsets", cap,
                             plan->size()));
      FusionEngine engine(corpus.dataset, opts);
      FusionResult result = engine.Prepare();
      ASSERT_TRUE(
          engine.RunRounds(FusionEngine::Start::kCold, &result, plan).ok());
      EXPECT_EQ(result.num_rounds, expected.num_rounds);
      EXPECT_TRUE(SameBits(result.probability, expected.probability));
      EXPECT_EQ(result.has_probability, expected.has_probability);
      EXPECT_EQ(result.from_fallback, expected.from_fallback);
      EXPECT_TRUE(SameBits(engine.provenance_accuracy(),
                           resident.provenance_accuracy()));
    }
  }
}

// Granularity sweep on a real corpus: engine must produce valid
// probabilities for every preset.
class GranularitySweep
    : public ::testing::TestWithParam<extract::Granularity> {};

TEST_P(GranularitySweep, ValidProbabilities) {
  static const synth::SynthCorpus& corpus = *new synth::SynthCorpus(
      synth::GenerateCorpus(synth::SynthConfig::Small()));
  FusionOptions opts = FusionOptions::PopAccu();
  opts.granularity = GetParam();
  auto result = Fuse(corpus.dataset, opts);
  size_t predicted = 0;
  for (kb::TripleId t = 0; t < corpus.dataset.num_triples(); ++t) {
    if (!result.has_probability[t]) continue;
    ++predicted;
    ASSERT_GE(result.probability[t], 0.0);
    ASSERT_LE(result.probability[t], 1.0);
  }
  EXPECT_EQ(predicted, corpus.dataset.num_triples());
}

INSTANTIATE_TEST_SUITE_P(
    Presets, GranularitySweep,
    ::testing::Values(extract::Granularity::ExtractorUrl(),
                      extract::Granularity::ExtractorSite(),
                      extract::Granularity::ExtractorSitePredicate(),
                      extract::Granularity::ExtractorSitePredicatePattern(),
                      extract::Granularity::OnlyExtractorPattern(),
                      extract::Granularity::OnlyUrl()));

}  // namespace
}  // namespace kf::fusion
