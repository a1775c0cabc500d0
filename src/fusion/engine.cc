#include "fusion/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "common/threadpool.h"
#include "fusion/registry.h"
#include "fusion/reservoir.h"

namespace kf::fusion {
namespace {

double Hash01(uint64_t h) {
  return static_cast<double>(Mix64(h) >> 11) * 0x1.0p-53;
}

std::unique_ptr<Scorer> MakeScorer(const FusionOptions& options) {
  switch (options.method) {
    case Method::kVote:
      return std::make_unique<VoteScorer>();
    case Method::kAccu:
      return std::make_unique<AccuScorer>(options.n_false_values);
    case Method::kPopAccu:
      return std::make_unique<PopAccuScorer>();
    default:
      return nullptr;  // not an engine method
  }
}

/// Fixed block width for the Stage II provenance sweep; independent of the
/// worker count so the reduction decomposition is reproducible.
constexpr size_t kProvBlock = 256;

/// Round cap and stop epsilon of one RunRounds call.
struct RoundPolicy {
  size_t max_rounds;
  double epsilon;
};

/// The one place warm_start is read: a warm run takes each override that
/// is set (> 0) and inherits the cold value otherwise.
RoundPolicy ResolveRoundPolicy(const FusionOptions& o, bool warm) {
  RoundPolicy p{o.max_rounds, o.convergence_epsilon};
  if (!warm) return p;
  const WarmStartOptions& w = o.warm_start;
  if (w.max_rounds > 0) p.max_rounds = w.max_rounds;
  if (w.epsilon > 0.0) p.epsilon = w.epsilon;
  return p;
}

}  // namespace

double FusionResult::Coverage() const {
  if (has_probability.empty()) return 0.0;
  size_t n = 0;
  for (uint8_t h : has_probability) n += h;
  return static_cast<double>(n) / static_cast<double>(has_probability.size());
}

FusionEngine::FusionEngine(const extract::ExtractionDataset& dataset,
                           const FusionOptions& options)
    : dataset_(dataset), options_(options) {
  KF_CHECK_OK(options_.Validate());
  // Baselines and extensions cannot run on this engine; fusion::Fuse and
  // kf::Session route them to their registry row.
  KF_CHECK(IsEngineMethod(options_.method));
  graph_ = ClaimGraph(dataset, options_.granularity, options_.num_shards,
                      options_.num_workers);
  scorer_ = MakeScorer(options_);
}

size_t FusionEngine::Refresh() {
  size_t rebuilt = graph_.Update(dataset_);
  // Streaming callers may sweep again without re-Preparing: provenances
  // introduced by the append enter at the default accuracy until Stage II
  // evaluates them (a fresh Prepare()/Run() re-initializes everything).
  if (accuracy_.size() < graph_.num_provs()) {
    accuracy_.resize(graph_.num_provs(), options_.default_accuracy);
    evaluated_.resize(graph_.num_provs(), 0);
  }
  return rebuilt;
}

void FusionEngine::InitAccuracies(const std::vector<Label>* gold) {
  const size_t num_provs = graph_.num_provs();
  accuracy_.assign(num_provs, options_.default_accuracy);
  evaluated_.assign(num_provs, 0);
  if (!options_.init_accuracy_from_gold) return;
  KF_CHECK(gold != nullptr);
  KF_CHECK(gold->size() == dataset_.num_triples());
  // Section 4.3.3: initialize each provenance's accuracy as the fraction
  // of its triples labeled true by the (sampled) gold standard.
  std::vector<uint32_t> labeled(num_provs, 0);
  std::vector<uint32_t> correct(num_provs, 0);
  const double rate = options_.gold_sample_rate;
  graph_.ForEachClaim([&](kb::DataItemId, kb::TripleId triple, uint32_t prov) {
    Label label = (*gold)[triple];
    if (label == Label::kUnknown) return;
    if (rate < 1.0 &&
        Hash01(HashCombine(options_.seed, triple)) >= rate) {
      return;  // triple not in the visible sample of the gold standard
    }
    ++labeled[prov];
    if (label == Label::kTrue) ++correct[prov];
  });
  for (size_t p = 0; p < num_provs; ++p) {
    if (labeled[p] == 0) continue;
    double a = static_cast<double>(correct[p]) /
               static_cast<double>(labeled[p]);
    accuracy_[p] = std::clamp(a, options_.accuracy_floor,
                              options_.accuracy_ceiling);
    evaluated_[p] = 1;
  }
}

FusionResult FusionEngine::EmptyResult() const {
  FusionResult result;
  result.probability.assign(dataset_.num_triples(), 0.0);
  result.has_probability.assign(dataset_.num_triples(), 0);
  result.from_fallback.assign(dataset_.num_triples(), 0);
  result.num_provenances = graph_.num_provs();
  return result;
}

FusionResult FusionEngine::Prepare(const std::vector<Label>* gold) {
  Refresh();
  InitAccuracies(gold);
  rounds_run_ = 0;
  return EmptyResult();
}

FusionResult FusionEngine::PrepareWarm() {
  // Refresh() grows the accuracy arrays for appended provenances (at the
  // default accuracy) and leaves existing entries untouched — exactly the
  // warm seed. On a never-run engine this degrades to an all-default
  // initialization, i.e. a cold start without gold.
  Refresh();
  return EmptyResult();
}

void FusionEngine::SweepShard(const ShardColumns& cols, double theta,
                              bool prefer_evaluated, bool score_in_place,
                              FusionResult* result) const {
  // Scratch state reused across the shard's item groups: steady-state
  // scoring allocates nothing, and the whole per-item path is hash-free —
  // the shard's sorted-group invariant turns every per-triple aggregation
  // into a run-length sweep or a sorted merge.
  ItemClaimsBuffer group;
  TripleProbs probs;
  // The round's frozen log-odds table; null for VOTE, which has none.
  const double* table = log_odds_.empty() ? nullptr : log_odds_.data();

  for (size_t g = 0; g < cols.num_items; ++g) {
    const uint32_t begin = cols.item_offsets[g];
    const uint32_t end = cols.item_offsets[g + 1];
    probs.clear();

    // Section 4.3.2's compensation: triples that lost every supporting
    // provenance to the accuracy filter receive the mean accuracy of their
    // (filtered) provenances instead of no prediction. Applied per triple
    // so partial filtering of an item does not silently drop its other
    // values. Both the raw group [begin, end) and the scorer output are
    // in ascending triple order (the sorted-group invariant), so "which
    // triples were scored" is a linear two-cursor merge over the runs —
    // no scored set, no aggregation map.
    auto scatter_fallbacks = [&]() {
      if (theta <= 0.0) return;
      size_t k = 0;  // cursor into probs (ascending triples)
      for (uint32_t i = begin; i < end;) {
        const kb::TripleId t = cols.claim_triple[i];
        uint32_t j = i + 1;
        while (j < end && cols.claim_triple[j] == t) ++j;
        while (k < probs.size() && probs[k].first < t) ++k;
        if (k < probs.size() && probs[k].first == t) {
          i = j;  // scored by the filtered group; no fallback needed
          continue;
        }
        double sum = 0.0;
        for (uint32_t c = i; c < j; ++c) {
          sum += accuracy_[cols.claim_prov[c]];
        }
        result->probability[t] = sum / static_cast<double>(j - i);
        result->has_probability[t] = 1;
        result->from_fallback[t] = 1;
        i = j;
      }
    };

    ItemClaims view;
    if (score_in_place && end - begin <= options_.sample_cap) {
      // Zero-copy fast path: with no filter active every claim of the
      // group survives assembly verbatim, so score the shard's (triple,
      // prov) columns in place — the same claims in the same order as the
      // assembled buffer would carry, hence bit-identical probabilities.
      // Groups above sample_cap still need the reservoir sample and take
      // the assembly path.
      view.triple = cols.claim_triple + begin;
      view.prov = cols.claim_prov + begin;
      view.prov_log_odds = table;
      view.count = end - begin;
      view.sorted = true;
    } else {
      // Coverage filter (Section 4.3.2): an item qualifies when some
      // triple of it has >= 2 claims, or when a provenance with a
      // data-driven accuracy (e.g. from gold initialization) claims it.
      // The evaluated set grows as Stage II assigns accuracies, unlocking
      // more items round over round. Unqualified items are never
      // predicted — the paper reports 8.2% of triples losing their
      // prediction this way.
      if (options_.filter_by_coverage) {
        bool qualified = cols.item_multi[g] != 0;
        for (uint32_t i = begin; !qualified && i < end; ++i) {
          qualified = evaluated_[cols.claim_prov[i]] != 0;
        }
        if (!qualified) continue;
      }

      // After round 1 the coverage filter ignores provenances still at
      // the default accuracy, unless that would starve the item.
      bool use_evaluated_only = false;
      if (prefer_evaluated) {
        for (uint32_t i = begin; i < end; ++i) {
          uint32_t p = cols.claim_prov[i];
          if (evaluated_[p] && (theta <= 0.0 || theta_pass_[p])) {
            use_evaluated_only = true;
            break;
          }
        }
      }

      // theta_pass_ is the frozen `accuracy_[p] >= theta` bit (built by
      // BeginStageI whenever theta > 0), so the filter is a byte test per
      // claim.
      group.clear();
      for (uint32_t i = begin; i < end; ++i) {
        uint32_t p = cols.claim_prov[i];
        if (theta > 0.0 && !theta_pass_[p]) continue;
        if (use_evaluated_only && !evaluated_[p]) continue;
        group.push(cols.claim_triple[i], p);
      }
      if (group.size() == 0) {
        scatter_fallbacks();
        continue;
      }
      if (group.size() > options_.sample_cap) {
        // Reservoir-sample the (triple, prov) pairs, then re-establish
        // the sorted invariant the scorer requires (the sample shuffles
        // the order). Deterministic: the sample is drawn from the sorted
        // claim order with an rng seeded by (seed, item) only.
        std::vector<std::pair<kb::TripleId, uint32_t>> sample;
        sample.reserve(group.size());
        for (size_t i = 0; i < group.size(); ++i) {
          sample.emplace_back(group.triples()[i], group.provs()[i]);
        }
        Rng rng(HashCombine(HashCombine(options_.seed, 0x51), cols.items[g]));
        ReservoirSample(&sample, options_.sample_cap, &rng);
        group.clear();
        for (const auto& [t, p] : sample) group.push(t, p);
        group.SortByTriple();
      }
      view = group.view(table);
    }

    // One entry per distinct triple: reserving to the group's run count
    // keeps the scratch from reallocating even on the first large group.
    probs.reserve(cols.item_distinct[g]);
    scorer_->Score(view, &probs);
    // Each triple belongs to exactly one item group of one shard, so the
    // dense scatters below race with nothing.
    for (const auto& [t, p] : probs) {
      result->probability[t] = p;
      result->has_probability[t] = 1;
      result->from_fallback[t] = 0;
    }
    scatter_fallbacks();
  }
}

void FusionEngine::BeginStageI(size_t round, FusionResult* result) {
  // The result must have been sized by Prepare() for the current dataset;
  // an append that interned new triples requires a fresh Prepare().
  KF_CHECK(result->probability.size() == dataset_.num_triples());
  KF_CHECK(accuracy_.size() == graph_.num_provs());
  // Fresh per-round masks: unpredicted triples must not inherit a stale
  // probability from the previous round.
  std::fill(result->has_probability.begin(), result->has_probability.end(),
            0);
  std::fill(result->from_fallback.begin(), result->from_fallback.end(), 0);
  stage1_prefer_evaluated_ = options_.filter_by_coverage && round > 1;
  // Every round sweeps every shard, one-shot or subset by subset.
  shard_sweep_micros_.assign(graph_.num_shards(), 0);

  // Freeze the per-round tables. Accuracies do not change during a Stage I
  // sweep, so the scorer's per-claim log-odds term and the theta filter
  // collapse to per-provenance lookups computed once per round — the inner
  // claim loop runs without a single std::log call.
  const double theta = options_.min_provenance_accuracy;
  if (!scorer_->PrecomputeLogOdds(accuracy_, &log_odds_)) log_odds_.clear();
  if (theta > 0.0) {
    theta_pass_.resize(accuracy_.size());
    for (size_t p = 0; p < accuracy_.size(); ++p) {
      theta_pass_[p] = accuracy_[p] >= theta ? 1 : 0;
    }
  } else {
    theta_pass_.clear();
  }
  // With no filter active every group survives assembly verbatim, so the
  // sweep can score the shard columns in place.
  stage1_in_place_ = !options_.filter_by_coverage && theta <= 0.0;
}

void FusionEngine::SweepStageI(const std::vector<uint32_t>& shard_ids,
                               FusionResult* result) {
  // Largest shards first (stable, so equal sizes keep caller order), one
  // shard per task, grain 1 so a free worker always takes the next shard:
  // shards are hash partitions of the items and their claim counts are
  // skewed, so the biggest one starts at once instead of serializing the
  // tail of the sweep. The decomposition never affects bits — Stage I
  // writes disjoint per-triple slots.
  std::vector<uint32_t> order = shard_ids;
  std::stable_sort(order.begin(), order.end(),
                   [this](uint32_t a, uint32_t b) {
                     return graph_.shard(a).num_claims() >
                            graph_.shard(b).num_claims();
                   });
  const double theta = options_.min_provenance_accuracy;
  ParallelFor(
      order.size(), options_.num_workers,
      [&](size_t k) {
        const uint32_t s = order[k];
        const auto start = std::chrono::steady_clock::now();
        SweepShard(graph_.columns(s), theta, stage1_prefer_evaluated_,
                   stage1_in_place_, result);
        shard_sweep_micros_[s] = static_cast<uint32_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
      },
      /*grain=*/1);
}

void FusionEngine::StageI(size_t round, FusionResult* result) {
  BeginStageI(round, result);
  SweepStageI(AllShards(), result);
}

std::vector<uint32_t> FusionEngine::AllShards() const {
  std::vector<uint32_t> all(graph_.num_shards());
  for (size_t s = 0; s < all.size(); ++s) all[s] = static_cast<uint32_t>(s);
  return all;
}

double FusionEngine::StageII(const FusionResult& result) {
  BeginStageII(result);
  AccumulateStageII(AllShards(), result);
  return FinishStageII();
}

void FusionEngine::BeginStageII(const FusionResult& result) {
  // Same staleness guard as StageI: the cross-index may reference triples
  // interned after `result` was Prepared.
  KF_CHECK(result.probability.size() == dataset_.num_triples());
  KF_CHECK(accuracy_.size() == graph_.num_provs());
  // One slot per local provenance group: shard s's k-th group owns slot
  // group_base_[s] + k.
  const size_t num_shards = graph_.num_shards();
  group_base_.resize(num_shards + 1);
  group_base_[0] = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    group_base_[s + 1] = group_base_[s] + graph_.shard(s).num_prov_groups();
  }
  group_sum_.assign(group_base_[num_shards], 0.0);
  group_cnt_.assign(group_base_[num_shards], 0);
  shard_values_.assign(num_shards, {});
}

void FusionEngine::AccumulateStageII(const std::vector<uint32_t>& shard_ids,
                                     const FusionResult& result) {
  // BeginStageII ran, and FinishStageII has not released its accumulators.
  KF_CHECK(shard_values_.size() == graph_.num_shards());
  const std::vector<uint32_t>& prov_claims = graph_.prov_claims();
  // Each shard owns its groups' slots and its value buffer, and a group's
  // arithmetic is internal to the group, so neither the worker
  // decomposition nor the grouping of shards into subsets can change a
  // single bit of the partials.
  ParallelFor(
      shard_ids.size(), options_.num_workers,
      [&](size_t k) {
        const uint32_t s = shard_ids[k];
        const ClaimGraph::Shard& sh = graph_.shard(s);
        const size_t base = group_base_[s];
        KF_CHECK(base + sh.num_prov_groups() == group_base_[s + 1]);
        const kb::TripleId* triples = graph_.columns(s).prov_triples;
        std::vector<float>& values = shard_values_[s];
        values.clear();
        for (size_t g = 0; g < sh.num_prov_groups(); ++g) {
          const bool oversized =
              prov_claims[sh.prov_ids[g]] > options_.sample_cap;
          double sum = 0.0;
          uint32_t cnt = 0;
          for (uint32_t j = sh.prov_offsets[g]; j < sh.prov_offsets[g + 1];
               ++j) {
            const kb::TripleId t = triples[j];
            // Fallback probabilities are not data-driven; they must not
            // reinforce accuracies.
            if (!result.has_probability[t] || result.from_fallback[t]) {
              continue;
            }
            const auto v = static_cast<float>(result.probability[t]);
            // An oversized provenance keeps its raw eligible values: the
            // reservoir sample must see the concatenated sequence, so it
            // is drawn at Finish, never per subset.
            if (oversized) {
              values.push_back(v);
            } else {
              sum += static_cast<double>(v);
            }
            ++cnt;
          }
          group_sum_[base + g] = sum;
          group_cnt_[base + g] = cnt;
        }
      },
      /*grain=*/1);
}

double FusionEngine::FinishStageII() {
  KF_CHECK(shard_values_.size() == graph_.num_shards());  // BeginStageII ran
  const size_t num_provs = graph_.num_provs();
  const std::vector<uint32_t>& prov_claims = graph_.prov_claims();

  // Fold the group partials per provenance, shards in ascending order: a
  // provenance's claims in that order are its canonical sequence, so the
  // sum adds the same terms in the same order for any subset plan or
  // worker count. An oversized provenance concatenates its raw values in
  // the same order instead.
  std::vector<double> prov_sum(num_provs, 0.0);
  std::vector<uint32_t> prov_cnt(num_provs, 0);
  // Sized at the first oversized group; oversized provenances are rare.
  std::vector<std::vector<float>> prov_values;
  for (size_t s = 0; s < graph_.num_shards(); ++s) {
    const ClaimGraph::Shard& sh = graph_.shard(s);
    KF_CHECK(group_base_[s] + sh.num_prov_groups() == group_base_[s + 1]);
    const float* values = shard_values_[s].data();
    for (size_t g = 0; g < sh.num_prov_groups(); ++g) {
      const uint32_t p = sh.prov_ids[g];
      const size_t slot = group_base_[s] + g;
      if (prov_claims[p] > options_.sample_cap) {
        if (prov_values.empty()) prov_values.resize(num_provs);
        prov_values[p].insert(prov_values[p].end(), values,
                              values + group_cnt_[slot]);
        values += group_cnt_[slot];
      } else {
        prov_sum[p] += group_sum_[slot];
        prov_cnt[p] += group_cnt_[slot];
      }
    }
  }
  // Release the accumulators (an oversized provenance's values are
  // O(claims) floats; the budget story wants that memory back).
  std::vector<double>().swap(group_sum_);
  std::vector<uint32_t>().swap(group_cnt_);
  std::vector<std::vector<float>>().swap(shard_values_);

  const size_t num_blocks = (num_provs + kProvBlock - 1) / kProvBlock;
  std::vector<double> block_delta(num_blocks, 0.0);
  ParallelFor(num_blocks, options_.num_workers, [&](size_t b) {
    const size_t p_end = std::min((b + 1) * kProvBlock, num_provs);
    for (size_t p = b * kProvBlock; p < p_end; ++p) {
      double sum = prov_sum[p];
      size_t cnt = prov_cnt[p];
      if (prov_claims[p] > options_.sample_cap) {
        // The fold visited p's groups, so prov_values is sized.
        std::vector<float>& values = prov_values[p];
        if (values.size() > options_.sample_cap) {
          Rng rng(HashCombine(HashCombine(options_.seed, 0x52),
                              static_cast<uint64_t>(p)));
          ReservoirSample(&values, options_.sample_cap, &rng);
        }
        for (float v : values) sum += v;
        cnt = values.size();
      }
      if (cnt == 0) continue;
      const double a = std::clamp(sum / static_cast<double>(cnt),
                                  options_.accuracy_floor,
                                  options_.accuracy_ceiling);
      block_delta[b] = std::max(block_delta[b], std::fabs(a - accuracy_[p]));
      accuracy_[p] = a;
      evaluated_[p] = 1;
    }
  });
  double max_delta = 0.0;
  for (double d : block_delta) max_delta = std::max(max_delta, d);
  return max_delta;
}

Status FusionEngine::RunRounds(
    Start start, FusionResult* result,
    const std::vector<std::vector<uint32_t>>* subsets,
    const ResidencyCallback& make_resident, const RoundCallback& callback) {
  const bool warm = start == Start::kWarm;
  const RoundPolicy policy = ResolveRoundPolicy(options_, warm);
  const bool is_vote = options_.method == Method::kVote;
  const size_t max_rounds = is_vote ? 1 : policy.max_rounds;
  // A resident run is the one-subset plan of every shard.
  std::vector<std::vector<uint32_t>> resident_plan;
  if (subsets == nullptr) resident_plan.push_back(AllShards());
  const std::vector<std::vector<uint32_t>>& plan =
      subsets == nullptr ? resident_plan : *subsets;

  for (size_t round = 1; round <= max_rounds; ++round) {
    // A shard's Stage II groups reference only that shard's triples, so
    // each subset's accumulation rides its sweep instead of a second pass
    // over the shard files.
    BeginStageI(++rounds_run_, result);
    if (!is_vote) BeginStageII(*result);
    for (const std::vector<uint32_t>& subset : plan) {
      if (make_resident) KF_RETURN_IF_ERROR(make_resident(subset));
      SweepStageI(subset, result);
      if (!is_vote) AccumulateStageII(subset, *result);
    }
    result->num_rounds = round;
    if (callback) {
      callback(round, result->probability, result->has_probability);
    }
    if (is_vote) break;
    const double delta = FinishStageII();
    if ((warm || round > 1) && delta < policy.epsilon) break;
  }

  result->num_unevaluated_provenances = 0;
  for (uint8_t e : evaluated_) {
    if (!e) ++result->num_unevaluated_provenances;
  }
  return Status::OK();
}

FusionResult FusionEngine::Run(const std::vector<Label>* gold,
                               const RoundCallback& callback) {
  FusionResult result = Prepare(gold);
  // Resident rounds cannot fail: only a residency callback returns errors.
  KF_CHECK_OK(RunRounds(Start::kCold, &result, nullptr,
                        ResidencyCallback(), callback));
  return result;
}

FusionResult Fuse(const extract::ExtractionDataset& dataset,
                  const FusionOptions& options,
                  const std::vector<Label>* gold) {
  if (IsEngineMethod(options.method)) {
    FusionEngine engine(dataset, options);
    return engine.Run(gold);
  }
  // Baselines and extensions run through their registry row. Invalid
  // options or a failed row check are KF_CHECK programmer errors here, as
  // in FusionEngine — callers that want a Status use kf::Session.
  KF_CHECK_OK(options.Validate());
  FuseContext ctx;
  ctx.gold = gold;
  KF_CHECK_OK(Registry::ValidateContext(dataset, options, ctx));
  return Registry::Run(dataset, options, ctx);
}

}  // namespace kf::fusion
