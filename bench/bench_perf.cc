// Performance microbenchmarks (google-benchmark): claim-graph
// construction, per-stage sweep costs, incremental append, and end-to-end
// fusion throughput across corpus scales and worker counts. The per-stage
// benchmarks exist to police the claim-graph invariant: Stage I/II are
// sweeps over groupings built once, so one round must cost a fraction of
// an end-to-end BM_FusePopAccu run — if a per-round shuffle ever sneaks
// back in, these regress first.
//
// scripts/bench.sh runs this binary and records BENCH_perf.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "eval/gold_standard.h"
#include "fusion/claim_graph.h"
#include "fusion/engine.h"
#include "spill/spill.h"
#include "synth/corpus.h"

namespace {

using namespace kf;

const synth::SynthCorpus& CorpusAtScale(double scale) {
  static std::map<double, std::unique_ptr<synth::SynthCorpus>>& cache =
      *new std::map<double, std::unique_ptr<synth::SynthCorpus>>();
  auto it = cache.find(scale);
  if (it == cache.end()) {
    synth::SynthConfig config = synth::SynthConfig().Scaled(scale);
    it = cache
             .emplace(scale, std::make_unique<synth::SynthCorpus>(
                                 synth::GenerateCorpus(config)))
             .first;
  }
  return *it->second;
}

fusion::FusionOptions PopAccuOpts(size_t workers) {
  fusion::FusionOptions opts = fusion::FusionOptions::PopAccu();
  opts.num_workers = workers;
  bench::ValidateOrExit(opts);
  return opts;
}

// ---- per-stage benchmarks (the claim-graph hot paths) ----

// Build the sharded graph once (arg: shard count).
void BM_ClaimGraphBuild(benchmark::State& state) {
  const auto& corpus = CorpusAtScale(1.0);
  const size_t shards = static_cast<size_t>(state.range(0));
  size_t actual_shards = 0;  // resolved count (arg 0 = auto)
  for (auto _ : state) {
    fusion::ClaimGraph graph(corpus.dataset,
                             extract::Granularity::ExtractorUrl(), shards);
    actual_shards = graph.num_shards();
    benchmark::DoNotOptimize(graph);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          corpus.dataset.num_records());
  state.counters["shards"] = static_cast<double>(actual_shards);
}
BENCHMARK(BM_ClaimGraphBuild)->Arg(0)->Arg(64)->Arg(256);

// One Stage I sweep: score every item group against the current
// accuracies (args: corpus scale x4, workers).
void BM_StageISweep(benchmark::State& state) {
  double scale = state.range(0) / 4.0;
  const auto& corpus = CorpusAtScale(scale);
  fusion::FusionEngine engine(
      corpus.dataset, PopAccuOpts(static_cast<size_t>(state.range(1))));
  fusion::FusionResult result = engine.Prepare();
  for (auto _ : state) {
    engine.StageI(1, &result);
    benchmark::DoNotOptimize(result.probability.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(engine.num_claims()));
  state.counters["claims"] = static_cast<double>(engine.num_claims());
}
BENCHMARK(BM_StageISweep)
    ->Args({4, 1})
    ->Args({4, 8})
    ->Unit(benchmark::kMillisecond);

// One Stage II sweep: re-evaluate every provenance accuracy from the
// round's probabilities via the cross-index.
void BM_StageIISweep(benchmark::State& state) {
  double scale = state.range(0) / 4.0;
  const auto& corpus = CorpusAtScale(scale);
  fusion::FusionEngine engine(
      corpus.dataset, PopAccuOpts(static_cast<size_t>(state.range(1))));
  fusion::FusionResult result = engine.Prepare();
  engine.StageI(1, &result);
  for (auto _ : state) {
    double delta = engine.StageII(result);
    benchmark::DoNotOptimize(delta);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(engine.num_claims()));
  state.counters["provs"] = static_cast<double>(engine.num_provenances());
}
BENCHMARK(BM_StageIISweep)
    ->Args({4, 1})
    ->Args({4, 8})
    ->Unit(benchmark::kMillisecond);

// The same Stage II sweep at scale 1 and 1 worker across shard counts
// (arg: shards). Stage II visits every shard's local provenance groups, so
// a per-shard cost that grows with the shard count shows here first.
void BM_StageIISweepShards(benchmark::State& state) {
  const auto& corpus = CorpusAtScale(1.0);
  fusion::FusionOptions opts = PopAccuOpts(1);
  opts.num_shards = static_cast<size_t>(state.range(0));
  fusion::FusionEngine engine(corpus.dataset, opts);
  fusion::FusionResult result = engine.Prepare();
  engine.StageI(1, &result);
  for (auto _ : state) {
    double delta = engine.StageII(result);
    benchmark::DoNotOptimize(delta);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(engine.num_claims()));
  state.counters["provs"] = static_cast<double>(engine.num_provenances());
}
BENCHMARK(BM_StageIISweepShards)
    ->Arg(16)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// ---- isolated scorer cost (the Stage I inner loop) ----

// Every item group of the scale-1 claim graph as a (triple, prov) span over
// its shard's columns — the scorer input of Stage I's zero-copy path.
// Scoring them all against a 0.8-accuracy log-odds table is exactly Stage
// I's scorer work with the filtering/scatter stripped away, so
// BM_ScorerOnly isolates the run-length scorer cost from the rest of the
// sweep.
struct ScorerGroups {
  fusion::ClaimGraph graph;
  std::vector<fusion::ItemClaims> groups;
};

const ScorerGroups& ScorerGroupsAtScale1() {
  static const ScorerGroups& in = *[] {
    auto* out = new ScorerGroups{
        fusion::ClaimGraph(CorpusAtScale(1.0).dataset,
                           extract::Granularity::ExtractorUrl(),
                           /*num_shards=*/64),
        {}};
    for (size_t s = 0; s < out->graph.num_shards(); ++s) {
      const fusion::ShardColumns c = out->graph.columns(s);
      for (size_t g = 0; g < c.num_items; ++g) {
        fusion::ItemClaims group;
        group.triple = c.claim_triple + c.item_offsets[g];
        group.prov = c.claim_prov + c.item_offsets[g];
        group.count = c.item_offsets[g + 1] - c.item_offsets[g];
        group.sorted = true;  // the shard sorted-group invariant
        out->groups.push_back(group);
      }
    }
    return out;
  }();
  return in;
}

void BM_ScorerOnly(benchmark::State& state, const fusion::Scorer& scorer) {
  const ScorerGroups& in = ScorerGroupsAtScale1();
  std::vector<double> table;  // stays empty for VOTE
  scorer.PrecomputeLogOdds(std::vector<double>(in.graph.num_provs(), 0.8),
                           &table);
  const double* prov_log_odds = table.empty() ? nullptr : table.data();
  fusion::TripleProbs probs;
  for (auto _ : state) {
    for (fusion::ItemClaims g : in.groups) {
      g.prov_log_odds = prov_log_odds;
      probs.clear();
      scorer.Score(g, &probs);
      benchmark::DoNotOptimize(probs.data());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(in.graph.num_claims()));
  state.counters["groups"] = static_cast<double>(in.groups.size());
}
// BENCHMARK_CAPTURE pastes the argument expression into the run lambda,
// so these temporaries are constructed per run and live for the whole
// call — no leak, unlike a pasted `new`.
BENCHMARK_CAPTURE(BM_ScorerOnly, vote, fusion::VoteScorer())
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ScorerOnly, accu,
                  fusion::AccuScorer(/*n_false_values=*/100))
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ScorerOnly, popaccu, fusion::PopAccuScorer())
    ->Unit(benchmark::kMillisecond);

// Incremental append: ingest the last `batch` records into an
// already-built graph (rebuilds only the touched shards + cross-index).
void BM_IncrementalAppend(benchmark::State& state) {
  const auto& corpus = CorpusAtScale(1.0);
  const size_t total = corpus.dataset.num_records();
  // Clamp so a batch arg larger than the corpus cannot underflow into a
  // no-op Update that reports an inflated appends/sec baseline.
  const size_t batch =
      std::min(static_cast<size_t>(state.range(0)), total);
  for (auto _ : state) {
    state.PauseTiming();
    fusion::ClaimGraph graph(corpus.dataset,
                             extract::Granularity::ExtractorUrl(),
                             /*num_shards=*/64, /*num_workers=*/0,
                             total - batch);
    state.ResumeTiming();
    graph.Update(corpus.dataset);
    benchmark::DoNotOptimize(graph);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
  state.counters["batch"] = static_cast<double>(batch);
}
BENCHMARK(BM_IncrementalAppend)->Arg(1)->Arg(1024)->Arg(16384);

// ---- streaming warm-start re-fusion (Session::Refuse) ----

// Rounds and ms to reconverge after a 1-record append. _Warm seeds Stage I
// from the previous run's accuracies via Session::Refuse(); _Cold re-runs
// all rounds from scratch on the combined dataset. ACCU at a scale whose
// accuracy iteration actually reaches convergence_epsilon (POPACCU and
// very large corpora limit-cycle under the max-delta criterion and run to
// the round cap, hiding the warm-start win). The "rounds" counter is the
// headline: warm reconvergence takes ~2 rounds vs ~50 cold.
fusion::FusionOptions StreamingAccuOpts() {
  fusion::FusionOptions opts;
  opts.method = fusion::Method::kAccu;
  opts.max_rounds = 100;
  opts.convergence_epsilon = 1e-3;
  opts.num_shards = 64;
  opts.num_workers = 1;
  bench::ValidateOrExit(opts);
  return opts;
}

void BM_RefuseAfterAppend1_Warm(benchmark::State& state) {
  const auto& corpus = CorpusAtScale(0.25);
  const size_t base = corpus.dataset.num_records() - 1;
  double rounds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    kf::Session session(extract::CloneRecordPrefix(corpus.dataset, base));
    auto cold = session.Fuse(StreamingAccuOpts());
    KF_CHECK(cold.ok());
    auto batch =
        extract::ReinternTail(corpus.dataset, base,
                              &session.mutable_dataset());
    state.ResumeTiming();
    KF_CHECK_OK(session.Append(batch));
    auto warm = session.Refuse();
    KF_CHECK(warm.ok());
    rounds = static_cast<double>(warm->num_rounds);
    benchmark::DoNotOptimize(warm);
  }
  state.counters["rounds"] = rounds;
}
BENCHMARK(BM_RefuseAfterAppend1_Warm)->Unit(benchmark::kMillisecond);

void BM_RefuseAfterAppend1_Cold(benchmark::State& state) {
  const auto& corpus = CorpusAtScale(0.25);
  const size_t base = corpus.dataset.num_records() - 1;
  double rounds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    kf::Session session(extract::CloneRecordPrefix(corpus.dataset, base));
    auto batch =
        extract::ReinternTail(corpus.dataset, base,
                              &session.mutable_dataset());
    state.ResumeTiming();
    KF_CHECK_OK(session.Append(batch));
    auto cold = session.Fuse(StreamingAccuOpts());
    KF_CHECK(cold.ok());
    rounds = static_cast<double>(cold->num_rounds);
    benchmark::DoNotOptimize(cold);
  }
  state.counters["rounds"] = rounds;
}
BENCHMARK(BM_RefuseAfterAppend1_Cold)->Unit(benchmark::kMillisecond);

// ---- the fused-KB query path (Session::Snapshot / kf::FusedKB) ----

// Building the session-independent snapshot: copy verdicts + provenance
// table off the engine state and index them (one linear sweep over the
// claim graph, no re-grouping).
void BM_SessionSnapshot(benchmark::State& state) {
  const auto& corpus = CorpusAtScale(1.0);
  kf::Session session = kf::Session::Borrow(corpus.dataset);
  auto fused = session.Fuse(PopAccuOpts(1));
  KF_CHECK(fused.ok());
  size_t triples = 0;
  for (auto _ : state) {
    auto kb = session.Snapshot();
    KF_CHECK(kb.ok());
    triples = kb->num_triples();
    benchmark::DoNotOptimize(kb);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(triples));
  state.counters["triples"] = static_cast<double>(triples);
}
BENCHMARK(BM_SessionSnapshot)->Unit(benchmark::kMillisecond);

const kf::FusedKB& SnapshotAtScale1() {
  static const kf::FusedKB& kb = *[] {
    const auto& corpus = CorpusAtScale(1.0);
    kf::Session session = kf::Session::Borrow(corpus.dataset);
    auto fused = session.Fuse(PopAccuOpts(1));
    KF_CHECK(fused.ok());
    auto snap = session.Snapshot();
    KF_CHECK(snap.ok());
    return new kf::FusedKB(std::move(snap).value());
  }();
  return kb;
}

// Point lookups by (subject, predicate) name: hash to the item, return
// its winner — O(group), never an O(corpus) scan.
void BM_FusedKbLookup(benchmark::State& state) {
  const kf::FusedKB& kb = SnapshotAtScale1();
  // Synthesized names of the id-only synthetic corpus ("s<id>"/"p<id>");
  // cycle through resolved verdicts so every lookup hits a real item.
  std::vector<kf::KbVerdict> keys = kb.TopK(1024);
  KF_CHECK(!keys.empty());
  size_t i = 0;
  size_t found = 0;
  for (auto _ : state) {
    const kf::KbVerdict& key = keys[i];
    if (++i == keys.size()) i = 0;
    auto v = kb.Lookup(key.subject, key.predicate);
    found += v.has_value();
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["found"] = static_cast<double>(found);
}
BENCHMARK(BM_FusedKbLookup);

void BM_FusedKbTopK(benchmark::State& state) {
  const kf::FusedKB& kb = SnapshotAtScale1();
  const size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto top = kb.TopK(k);
    benchmark::DoNotOptimize(top);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(k));
}
BENCHMARK(BM_FusedKbTopK)->Arg(10)->Arg(1000);

// ---- parallel scaling curves ----

// The same work at 1/2/4/8 workers, as one family so
// scripts/bench_compare.py can compute parallel efficiency
// eff(w) = time(1w) / (w * time(w)) and gate regressions on it. Stage I
// (the dominant sweep) and end-to-end POPACCU (includes Stage II, graph
// build, and pool handshakes). items_per_second is the headline metric.
void BM_ScalingCurveStageI(benchmark::State& state) {
  const auto& corpus = CorpusAtScale(1.0);
  fusion::FusionEngine engine(
      corpus.dataset, PopAccuOpts(static_cast<size_t>(state.range(0))));
  fusion::FusionResult result = engine.Prepare();
  for (auto _ : state) {
    engine.StageI(1, &result);
    benchmark::DoNotOptimize(result.probability.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(engine.num_claims()));
}
BENCHMARK(BM_ScalingCurveStageI)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ScalingCurvePopAccu(benchmark::State& state) {
  const auto& corpus = CorpusAtScale(1.0);
  fusion::FusionOptions opts =
      PopAccuOpts(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto result = bench::RunFusion(corpus.dataset, opts);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          corpus.dataset.num_records());
}
BENCHMARK(BM_ScalingCurvePopAccu)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ---- out-of-core fusion (kf::spill) ----

// The budgeted counterparts of BM_ScalingCurveStageI / BM_FusePopAccu:
// the same scale-1 work with the claim graph's spillable columns held to
// a fraction of their total bytes (Arg = percent of the fully-resident
// footprint; 100 still runs the spill machinery but never evicts inside
// the round loop). Counters record what the acceptance bar reads:
// budget_mb, the manager's accounted high-water (hw_mb <= the planned
// max subset), spill traffic (spill_mb, maps), and for the end-to-end
// bench the round loop's sampled peak RSS (peak_rss_mb) — the budget
// plus the engine's non-spillable state, the documented constant.
size_t TotalSpillableBytes(const fusion::ClaimGraph& graph) {
  size_t total = 0;
  for (size_t s = 0; s < graph.num_shards(); ++s) {
    total += graph.shard(s).SpillableBytes();
  }
  return total;
}

void BM_OutOfCoreStageI(benchmark::State& state) {
  const auto& corpus = CorpusAtScale(1.0);
  fusion::FusionOptions opts = PopAccuOpts(8);
  fusion::FusionEngine engine(corpus.dataset, opts);
  fusion::FusionResult result = engine.Prepare();
  const size_t total = TotalSpillableBytes(engine.graph());
  const size_t budget =
      std::max<size_t>(1, total * static_cast<size_t>(state.range(0)) / 100);
  spill::ShardSpillManager::Options mo;
  mo.budget_bytes = budget;
  auto mgr = spill::ShardSpillManager::Create(&engine.mutable_graph(), mo);
  KF_CHECK_OK(mgr.status());
  const spill::SpillPlan plan = spill::PlanSubsets(engine.graph(), budget);
  for (auto _ : state) {
    engine.BeginStageI(1, &result);
    for (const auto& subset : plan.subsets) {
      KF_CHECK_OK((*mgr)->EnsureOnly(subset));
      engine.SweepStageI(subset, &result);
    }
    benchmark::DoNotOptimize(result.probability.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(engine.num_claims()));
  const spill::SpillStats& stats = (*mgr)->stats();
  state.counters["budget_mb"] = static_cast<double>(budget) / (1 << 20);
  state.counters["hw_mb"] =
      static_cast<double>(stats.accounted_high_water) / (1 << 20);
  state.counters["subsets"] = static_cast<double>(plan.subsets.size());
  state.counters["spill_mb"] =
      static_cast<double>(stats.bytes_written) / (1 << 20);
  state.counters["maps"] = static_cast<double>(stats.maps_opened);
}
BENCHMARK(BM_OutOfCoreStageI)
    ->Arg(25)
    ->Arg(50)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_OutOfCorePopAccu(benchmark::State& state) {
  const auto& corpus = CorpusAtScale(1.0);
  fusion::FusionOptions opts = PopAccuOpts(8);
  // Size the budget off a throwaway resident build; the budgeted engine
  // rebuilds the same graph, so the fraction carries over exactly.
  const size_t total = [&] {
    fusion::FusionEngine probe(corpus.dataset, opts);
    probe.Prepare();
    return TotalSpillableBytes(probe.graph());
  }();
  opts.memory_budget_bytes =
      std::max<size_t>(1, total * static_cast<size_t>(state.range(0)) / 100);
  // One budgeted cold run per iteration, as kf::Session::Fuse drives it:
  // graph build, Prepare, the manager's round loop.
  spill::SpillStats stats;
  size_t peak_rss = 0;
  for (auto _ : state) {
    fusion::FusionEngine engine(corpus.dataset, opts);
    fusion::FusionResult result = engine.Prepare();
    auto manager = spill::ShardSpillManager::Create(&engine);
    KF_CHECK_OK(manager.status());
    KF_CHECK_OK((*manager)->RunRounds(
        &engine, fusion::FusionEngine::Start::kCold, &result));
    benchmark::DoNotOptimize(result);
    stats = (*manager)->stats();
    peak_rss = (*manager)->round_loop_peak_rss();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          corpus.dataset.num_records());
  state.counters["budget_mb"] =
      static_cast<double>(opts.memory_budget_bytes) / (1 << 20);
  state.counters["hw_mb"] =
      static_cast<double>(stats.accounted_high_water) / (1 << 20);
  state.counters["peak_rss_mb"] = static_cast<double>(peak_rss) / (1 << 20);
  state.counters["spill_mb"] =
      static_cast<double>(stats.bytes_written) / (1 << 20);
}
BENCHMARK(BM_OutOfCorePopAccu)
    ->Arg(25)
    ->Arg(50)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

// ---- end-to-end fusion ----

void BM_FusePopAccu(benchmark::State& state) {
  double scale = state.range(0) / 4.0;
  const auto& corpus = CorpusAtScale(scale);
  fusion::FusionOptions opts =
      PopAccuOpts(static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    auto result = bench::RunFusion(corpus.dataset, opts);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          corpus.dataset.num_records());
  state.counters["records"] =
      static_cast<double>(corpus.dataset.num_records());
}
BENCHMARK(BM_FusePopAccu)
    ->Args({1, 1})
    ->Args({1, 8})
    ->Args({4, 1})
    ->Args({4, 8})
    ->Args({4, 24})
    ->Args({16, 24})
    ->Unit(benchmark::kMillisecond);

void BM_FuseVote(benchmark::State& state) {
  const auto& corpus = CorpusAtScale(1.0);
  fusion::FusionOptions opts = fusion::FusionOptions::Vote();
  bench::ValidateOrExit(opts);
  for (auto _ : state) {
    auto result = bench::RunFusion(corpus.dataset, opts);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          corpus.dataset.num_records());
}
BENCHMARK(BM_FuseVote)->Unit(benchmark::kMillisecond);

void BM_GoldStandard(benchmark::State& state) {
  const auto& corpus = CorpusAtScale(1.0);
  for (auto _ : state) {
    auto labels = eval::BuildGoldStandard(corpus.dataset, corpus.freebase);
    benchmark::DoNotOptimize(labels);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          corpus.dataset.num_triples());
}
BENCHMARK(BM_GoldStandard);

}  // namespace

// BENCHMARK_MAIN plus a context marker for the binary's own build type:
// google-benchmark's stock "library_build_type" describes how the
// *benchmark library* was compiled, which is how a debug baseline once
// slipped into BENCH_perf.json unnoticed. scripts/bench.sh refuses to
// record from a non-release build, and scripts/bench_compare.py warns
// when either side's kf_build_type is "debug".
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("kf_build_type", "release");
#else
  benchmark::AddCustomContext("kf_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
