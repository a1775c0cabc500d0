// The engine's determinism contract: for a fixed input, options, and shard
// count, the FusionResult is bit-identical regardless of the worker count.
// Stage I writes disjoint per-triple slots, Stage II reduces each
// provenance in fixed cross-index order, and no decomposition — including
// the largest-first sweep schedule — depends on the worker count.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "common/checksum.h"
#include "eval/gold_standard.h"
#include "fusion/engine.h"
#include "synth/corpus.h"

namespace kf::fusion {
namespace {

// Worker counts exercised against the 1-worker reference: around and well
// past the global pool size, so chunk stealing and caller participation
// both happen. KF_TEST_WORKERS (CI sets 8 for the sanitizer jobs) adds one
// more count to the sweep.
std::vector<size_t> WorkerCounts() {
  std::vector<size_t> counts = {8, 24};
  if (const char* env = std::getenv("KF_TEST_WORKERS")) {
    const long w = std::atol(env);
    if (w > 1) counts.push_back(static_cast<size_t>(w));
  }
  return counts;
}

struct Workload {
  synth::SynthCorpus corpus;
  std::vector<Label> labels;
};

const Workload& GetWorkload() {
  static Workload* w = [] {
    auto* x = new Workload{
        synth::GenerateCorpus(synth::SynthConfig::Small()), {}};
    x->labels = eval::BuildGoldStandard(x->corpus.dataset, x->corpus.freebase);
    return x;
  }();
  return *w;
}

struct Capture {
  FusionResult result;
  std::vector<double> accuracies;
  std::vector<uint32_t> prov_claims;
};

Capture RunOn(const extract::ExtractionDataset& dataset, FusionOptions opts,
              size_t workers, const std::vector<Label>* gold = nullptr) {
  opts.num_workers = workers;
  FusionEngine engine(dataset, opts);
  Capture c;
  c.result = engine.Run(gold);
  c.accuracies = engine.provenance_accuracy();
  c.prov_claims = engine.provenance_claims();
  return c;
}

Capture RunWith(const FusionOptions& opts, size_t workers,
                const std::vector<Label>* gold = nullptr) {
  return RunOn(GetWorkload().corpus.dataset, opts, workers, gold);
}

void ExpectBitIdentical(const Capture& a, const Capture& b) {
  ASSERT_EQ(a.result.probability.size(), b.result.probability.size());
  // Element-wise == on doubles: any reordering of a floating-point
  // reduction would show up here.
  EXPECT_EQ(a.result.probability, b.result.probability);
  EXPECT_EQ(a.result.has_probability, b.result.has_probability);
  EXPECT_EQ(a.result.from_fallback, b.result.from_fallback);
  EXPECT_EQ(a.result.num_rounds, b.result.num_rounds);
  EXPECT_EQ(a.result.num_provenances, b.result.num_provenances);
  EXPECT_EQ(a.result.num_unevaluated_provenances,
            b.result.num_unevaluated_provenances);
  EXPECT_EQ(a.result.Coverage(), b.result.Coverage());
  EXPECT_EQ(a.accuracies, b.accuracies);
  EXPECT_EQ(a.prov_claims, b.prov_claims);
}

class MethodSweep : public ::testing::TestWithParam<Method> {};

TEST_P(MethodSweep, IdenticalAcrossWorkerCounts) {
  FusionOptions opts;
  opts.method = GetParam();
  opts.num_shards = 8;  // fixed: the contract is per shard count
  const Capture reference = RunWith(opts, 1);
  for (size_t workers : WorkerCounts()) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExpectBitIdentical(reference, RunWith(opts, workers));
  }
}

TEST_P(MethodSweep, StableAcrossRepeatedRuns) {
  FusionOptions opts;
  opts.method = GetParam();
  opts.num_shards = 8;
  ExpectBitIdentical(RunWith(opts, 4), RunWith(opts, 4));
}

INSTANTIATE_TEST_SUITE_P(Methods, MethodSweep,
                         ::testing::Values(Method::kVote, Method::kAccu,
                                           Method::kPopAccu));

TEST(DeterminismTest, FilteredStackIdenticalAcrossWorkerCounts) {
  // The full unsupervised refinement stack exercises the coverage filter,
  // the accuracy filter with fallback, and multi-round re-evaluation —
  // i.e. the buffer-assembly sweep path, not the zero-copy one.
  FusionOptions opts = FusionOptions::PopAccuPlusUnsup();
  opts.num_shards = 8;
  const Capture reference = RunWith(opts, 1);
  for (size_t workers : WorkerCounts()) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExpectBitIdentical(reference, RunWith(opts, workers));
  }
}

TEST(DeterminismTest, GoldInitializedIdenticalAcrossWorkerCounts) {
  FusionOptions opts = FusionOptions::PopAccuPlus();
  opts.num_shards = 8;
  opts.gold_sample_rate = 0.5;  // also exercises the hash-sampled gold path
  const std::vector<Label>* gold = &GetWorkload().labels;
  ExpectBitIdentical(RunWith(opts, 1, gold), RunWith(opts, 4, gold));
}

TEST(DeterminismTest, SampleCapReservoirIdenticalAcrossWorkerCounts) {
  // Force the reservoir path: per-group sampling is seeded by (seed, item)
  // and (seed, prov), never by thread identity.
  FusionOptions opts = FusionOptions::PopAccu();
  opts.num_shards = 8;
  opts.sample_cap = 3;
  ExpectBitIdentical(RunWith(opts, 1), RunWith(opts, 4));
}

// ---- Engine output pinned across versions ----
//
// The sweeps above compare a build only with itself. This case pins each
// Stage I regime's output to CRC-32 constants recorded from an earlier
// implementation, so a refactor of the sweep or the scorers that moves a
// single bit of any regime fails here. A deliberate change to the
// engine's arithmetic re-records the constants.
uint32_t OutputCrc(const Capture& c) {
  uint32_t crc = 0;
  auto add = [&crc](const auto& column) {
    crc = Crc32(column.data(), column.size() * sizeof(column[0]), crc);
  };
  add(c.result.probability);
  add(c.result.has_probability);
  add(c.result.from_fallback);
  add(c.accuracies);
  return crc;
}

TEST(DeterminismTest, StageIRegimesMatchRecordedOutput) {
  auto on8 = [](FusionOptions o, Method method) {
    o.method = method;
    o.num_shards = 8;
    return o;
  };
  FusionOptions theta_only = FusionOptions::PopAccu();
  theta_only.min_provenance_accuracy = 0.6;
  FusionOptions gold_half = FusionOptions::PopAccuPlus();
  gold_half.gold_sample_rate = 0.5;
  FusionOptions sampled = FusionOptions::PopAccu();
  sampled.sample_cap = 3;
  const std::vector<Label>* gold = &GetWorkload().labels;
  const struct {
    const char* name;
    FusionOptions opts;
    const std::vector<Label>* gold;
    uint32_t crc;
  } regimes[] = {
      // The zero-copy path: no filter, every group scored in place.
      {"vote", on8(FusionOptions(), Method::kVote), nullptr, 0x1887a442u},
      {"accu", on8(FusionOptions(), Method::kAccu), nullptr, 0xa8a5211bu},
      {"popaccu", on8(FusionOptions(), Method::kPopAccu), nullptr,
       0xba4a89e9u},
      // The filtered buffer path, with and without a log-odds table.
      {"popaccu+unsup", on8(FusionOptions::PopAccuPlusUnsup(),
                            Method::kPopAccu), nullptr, 0x5d0d44bdu},
      {"vote+unsup", on8(FusionOptions::PopAccuPlusUnsup(), Method::kVote),
       nullptr, 0xf7e09356u},
      {"theta 0.6", on8(theta_only, Method::kPopAccu), nullptr,
       0xb67e2e95u},
      {"popaccu+ gold 0.5", on8(gold_half, Method::kPopAccu), gold,
       0x8baa5586u},
      // The reservoir branch: groups above sample_cap are sampled.
      {"sample_cap 3", on8(sampled, Method::kPopAccu), nullptr,
       0x3b888d9fu},
  };
  for (const auto& r : regimes) {
    for (size_t workers : {1, 4}) {
      const uint32_t crc = OutputCrc(RunWith(r.opts, workers, r.gold));
      std::ostringstream hex;
      hex << std::hex << "0x" << crc;
      EXPECT_EQ(crc, r.crc) << r.name << " at " << workers
                            << " workers: got " << hex.str();
    }
  }
}

// ---- Skewed corpus: one mega-item dwarfing everything else ----
//
// Shards are hash partitions of the items, so the mega-item's shard
// carries ~10x the claims of any other. This is exactly the shape the
// largest-first sweep schedule targets; the contract is that scheduling
// only moves wall-clock, never bits.
extract::ExtractionDataset SkewedDataset() {
  extract::ExtractionDataset d;
  d.SetExtractors({extract::ExtractorMeta{"E0", extract::ContentType::kTxt,
                                          true, 0, 0},
                   extract::ExtractorMeta{"E1", extract::ContentType::kDom,
                                          true, 1, 0}});
  constexpr uint32_t kUrls = 240;
  std::vector<extract::SiteId> url_site(kUrls);
  for (uint32_t u = 0; u < kUrls; ++u) url_site[u] = u % 3;
  d.SetUrlSites(std::move(url_site));
  d.SetCounts(/*num_sites=*/3, /*num_patterns=*/2, /*num_predicates=*/2);
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
  // The mega item: every url claims it — value 10 from ~2/3 of the
  // provenances, conflicting values 11/12 from the rest.
  for (uint32_t u = 0; u < kUrls; ++u) {
    const kb::ValueId v = (u % 3 == 0) ? 11 + (u % 2) : 10;
    add(/*s=*/1, /*p=*/0, v, /*ext=*/u % 2, /*url=*/u);
  }
  // A long tail of small items: 1-2 claims each.
  for (kb::EntityId e = 2; e < 62; ++e) {
    add(e, /*p=*/1, /*o=*/100 + e, /*ext=*/0, /*url=*/e % kUrls);
    if (e % 2 == 0) {
      add(e, /*p=*/1, /*o=*/100 + e, /*ext=*/1, /*url=*/(e + 7) % kUrls);
    }
  }
  return d;
}

class SkewedMethodSweep : public ::testing::TestWithParam<Method> {};

TEST_P(SkewedMethodSweep, IdenticalAcrossWorkerCounts) {
  static const extract::ExtractionDataset& dataset =
      *new extract::ExtractionDataset(SkewedDataset());
  FusionOptions opts;
  opts.method = GetParam();
  opts.num_shards = 4;  // few shards: the mega-item shard dominates
  const Capture reference = RunOn(dataset, opts, 1);
  for (size_t workers : WorkerCounts()) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExpectBitIdentical(reference, RunOn(dataset, opts, workers));
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, SkewedMethodSweep,
                         ::testing::Values(Method::kVote, Method::kAccu,
                                           Method::kPopAccu));

TEST(DeterminismTest, SkewedFilteredStackIdenticalAcrossWorkerCounts) {
  // Coverage filter + theta + fallback on the skewed corpus: the filtered
  // (buffer) sweep path under the skew-aware schedule.
  static const extract::ExtractionDataset& dataset =
      *new extract::ExtractionDataset(SkewedDataset());
  FusionOptions opts = FusionOptions::PopAccuPlusUnsup();
  opts.num_shards = 4;
  const Capture reference = RunOn(dataset, opts, 1);
  for (size_t workers : WorkerCounts()) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExpectBitIdentical(reference, RunOn(dataset, opts, workers));
  }
}

TEST(DeterminismTest, SkewedThetaOnlyIdenticalAcrossWorkerCounts) {
  // Theta without the coverage filter: the theta_pass_ byte filter and the
  // per-triple fallback scatter, while the schedule stays skew-aware.
  static const extract::ExtractionDataset& dataset =
      *new extract::ExtractionDataset(SkewedDataset());
  FusionOptions opts = FusionOptions::PopAccu();
  opts.min_provenance_accuracy = 0.6;
  opts.num_shards = 4;
  const Capture reference = RunOn(dataset, opts, 1);
  for (size_t workers : WorkerCounts()) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExpectBitIdentical(reference, RunOn(dataset, opts, workers));
  }
}

}  // namespace
}  // namespace kf::fusion
