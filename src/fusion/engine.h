// The knowledge-fusion engine: the three-stage architecture of Fig. 8 over
// a sharded claim graph. Stage I sweeps the item-partitioned shards and
// scores triples; Stage II sweeps each shard's local provenance groups,
// folds them per provenance in ascending shard order, and re-evaluates
// accuracies; RunRounds iterates the two up to R rounds (VOTE
// needs one round) for every engine-method run — cold or warm, resident or
// budgeted. The item/provenance groupings are built ONCE
// (fusion/claim_graph.h) and swept every round — no per-round shuffle, no
// per-claim std::function dispatch. Stage III deduplication is inherent
// because claims reference interned unique triples.
//
// Determinism contract: for a fixed dataset, options, and shard count the
// result is bit-identical regardless of options.num_workers. Stage I
// writes disjoint per-triple slots (each triple lives in exactly one item
// group of one shard); Stage II sums each local provenance group into its
// own slot and folds a provenance's slots in ascending shard order, then
// finalizes provenances in a fixed block decomposition.
#ifndef KF_FUSION_ENGINE_H_
#define KF_FUSION_ENGINE_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/label.h"
#include "common/status.h"
#include "extract/dataset.h"
#include "fusion/claim_graph.h"
#include "fusion/options.h"
#include "fusion/scorer.h"
#include "kb/value_hierarchy.h"

namespace kf::fusion {

struct FusionResult {
  /// Per unique triple (indexed by TripleId): predicted probability that
  /// the triple is true. Valid only where has_probability is set;
  /// provenance filtering can leave triples without a prediction
  /// (Section 4.3.2 reports 8.2% unpredicted under the coverage filter).
  std::vector<double> probability;
  std::vector<uint8_t> has_probability;
  /// Set where the probability came from the average-accuracy fallback
  /// (all provenances of the item were filtered by accuracy).
  std::vector<uint8_t> from_fallback;

  size_t num_rounds = 0;
  size_t num_provenances = 0;
  /// Provenances that never received a data-driven accuracy.
  size_t num_unevaluated_provenances = 0;

  /// Fraction of unique triples that received a probability.
  double Coverage() const;
};

/// Side inputs some methods need beyond the dataset and options: gold
/// labels (semi-supervised initialization, confidence recalibration) and
/// the value containment DAG (hierarchy-aware fusion). Pointers are
/// borrowed for the duration of one call.
struct FuseContext {
  /// Per-unique-triple labels, sized dataset.num_triples(). Required when
  /// options.init_accuracy_from_gold is set and by "confidence_weighted".
  const std::vector<Label>* gold = nullptr;
  /// Required by the "hierarchy" method.
  const kb::ValueHierarchy* hierarchy = nullptr;
};

class FusionEngine {
 public:
  /// Observes probabilities after each round's Stage I (Fig. 14 traces).
  /// `round` counts from 1 within one RunRounds call.
  using RoundCallback = std::function<void(
      size_t round, const std::vector<double>& probability,
      const std::vector<uint8_t>& has_probability)>;
  /// Makes one shard subset readable (resident or mapped) right before
  /// RunRounds sweeps it; an error aborts the run with that Status.
  using ResidencyCallback =
      std::function<Status(const std::vector<uint32_t>& subset)>;

  /// Stop policy of RunRounds. kCold: options.max_rounds and
  /// convergence_epsilon, epsilon tested from round 2 (round 1 moves every
  /// accuracy off its seed). kWarm: the options.warm_start overrides (0
  /// inherits the cold value), epsilon tested from round 1 — a small
  /// append barely moves the converged accuracies.
  enum class Start { kCold, kWarm };

  /// Builds the claim graph (options.num_shards shards; 0 = auto).
  /// options.method must be an engine method (checked).
  FusionEngine(const extract::ExtractionDataset& dataset,
               const FusionOptions& options);

  /// Runs fusion cold: Prepare(gold), then RunRounds(kCold). `gold`
  /// (triple labels) is required when options.init_accuracy_from_gold is
  /// set; otherwise it may be null. Records appended to the dataset since
  /// construction (or the previous Run) are ingested first via Refresh().
  FusionResult Run(const std::vector<Label>* gold = nullptr,
                   const RoundCallback& callback = RoundCallback());

  /// The round loop of every engine-method run: rounds of Stage I then
  /// Stage II over `result` (sized by Prepare or PrepareWarm) until the
  /// `start` policy stops them; VOTE runs one Stage I and no Stage II.
  /// Stage I sees the global round number since the last Prepare, so a
  /// warm run stays in the post-round-1 regimes (the coverage filter's
  /// prefer-evaluated switch). Sets num_rounds (this call's rounds) and
  /// num_unevaluated_provenances.
  ///
  /// A round is BeginStageI + BeginStageII, then per subset of the plan
  /// `make_resident` (when set) + SweepStageI + AccumulateStageII, then
  /// FinishStageII. `subsets` (ordered subsets partitioning the shard set)
  /// defaults to the one-subset plan of every shard, for a resident graph;
  /// every plan gives the same bits. The first `make_resident` error is
  /// returned; without one the call always succeeds.
  Status RunRounds(
      Start start, FusionResult* result,
      const std::vector<std::vector<uint32_t>>* subsets = nullptr,
      const ResidencyCallback& make_resident = ResidencyCallback(),
      const RoundCallback& callback = RoundCallback());

  // ---- single-stage entry points ----
  // Building blocks of RunRounds(), exposed for the per-stage benchmarks
  // and for callers that time each call. Call Prepare() before
  // StageI/StageII.

  /// Re-syncs the claim graph with the dataset, rebuilding only shards
  /// touched by appended records. Returns the number of shards rebuilt.
  size_t Refresh();
  /// Ingests appended records, (re)initializes provenance accuracies,
  /// restarts the global round numbering, and returns an empty result
  /// sized for the current dataset.
  FusionResult Prepare(const std::vector<Label>* gold = nullptr);
  /// Warm-start companion to Prepare(): re-syncs the graph but KEEPS the
  /// current provenance accuracies (appended provenances enter at the
  /// default accuracy) and the round numbering. The streaming re-fusion
  /// entry point (kf::Session::Refuse), followed by RunRounds(kWarm).
  FusionResult PrepareWarm();
  /// One Stage I sweep: scores every qualified item group into `result`
  /// (BeginStageI + SweepStageI over all shards).
  void StageI(size_t round, FusionResult* result);
  /// One Stage II sweep: sets each provenance's accuracy to the clamped
  /// mean probability of its triples in `result` (Section 4.1), and
  /// returns the largest accuracy change.
  double StageII(const FusionResult& result);

  // ---- subset decompositions (the steps of a RunRounds round) ----
  // StageI == BeginStageI + SweepStageI over all shards; StageII ==
  // BeginStageII + AccumulateStageII over all shards + FinishStageII.
  // A round calls the Begin steps once, then sweeps / accumulates each
  // shard subset of its plan once the residency callback (if any) made it
  // readable. Every triple lives in one shard and every accumulator slot
  // belongs to one local provenance group, so any disjoint subset
  // decomposition, in any order — like any worker count — produces bits
  // identical to the one-shot sweep.

  /// Freezes the per-round Stage I tables (log-odds, theta mask, the
  /// round's filter regime), clears the result masks, and zeroes the
  /// per-shard sweep times.
  void BeginStageI(size_t round, FusionResult* result);
  /// Sweeps the given shards (each must be resident or mapped), largest
  /// first. Subsets across one round must partition the shard set.
  void SweepStageI(const std::vector<uint32_t>& shard_ids,
                   FusionResult* result);
  /// Lays out one accumulator slot per local provenance group (shard s's
  /// groups start at a prefix sum of the shards' group counts) and zeroes
  /// them.
  void BeginStageII(const FusionResult& result);
  /// Sums each local provenance group of the given shards into its slot.
  /// Subsets across one round must partition the shard set.
  void AccumulateStageII(const std::vector<uint32_t>& shard_ids,
                         const FusionResult& result);
  /// Folds the slots per provenance over the shards in ascending order,
  /// applies the accuracy update, and returns the largest accuracy change
  /// (see StageII). Releases the accumulators.
  double FinishStageII();

  /// Restores an evicted shard's columns resident, bit-identical to what
  /// eviction released (ClaimGraph::RematerializeShard over the engine's
  /// dataset). The spill layer's recovery path when a shard file turns
  /// out corrupt or unreadable: discard the file, rebuild from memory.
  void RematerializeShard(uint32_t s) {
    graph_.RematerializeShard(dataset_, s);
  }

  // ---- introspection ----
  const ClaimGraph& graph() const { return graph_; }
  /// Mutable graph access for the spill layer's residency control
  /// (ReleaseShardColumns / AttachShardColumns between sweeps). Not for
  /// structural mutation — the engine owns the build/update lifecycle.
  ClaimGraph& mutable_graph() { return graph_; }
  const FusionOptions& options() const { return options_; }
  size_t num_provenances() const { return graph_.num_provs(); }
  size_t num_claims() const { return graph_.num_claims(); }
  const std::vector<double>& provenance_accuracy() const { return accuracy_; }
  /// Per provenance: whether the accuracy is data-driven (vs. default).
  const std::vector<uint8_t>& provenance_evaluated() const {
    return evaluated_;
  }
  /// Number of claims of each provenance.
  const std::vector<uint32_t>& provenance_claims() const {
    return graph_.prov_claims();
  }
  /// Wall-clock micros the last Stage I — one-shot or subset-at-a-time —
  /// spent sweeping each shard (indexed by shard id; empty before the
  /// first sweep). Shards are hash partitions of the data items, so claim
  /// counts — and these times — can be heavily skewed; SweepStageI
  /// orders shards largest-first so the skew costs wall-clock only once,
  /// and this vector makes it observable.
  const std::vector<uint32_t>& shard_sweep_micros() const {
    return shard_sweep_micros_;
  }

 private:
  void InitAccuracies(const std::vector<Label>* gold);
  FusionResult EmptyResult() const;
  /// `score_in_place` requests the zero-copy path: item groups are scored
  /// straight off the shard's (triple, prov) columns (no ItemClaimsBuffer
  /// assembly). Only valid when no filter is active (theta <= 0, no
  /// coverage filter); oversized groups (> sample_cap) still take the
  /// assembly path for reservoir sampling. Reads the column view, so
  /// resident and mmap-backed shards score through the same code.
  void SweepShard(const ShardColumns& cols, double theta,
                  bool prefer_evaluated, bool score_in_place,
                  FusionResult* result) const;
  /// Every shard id, ascending: the one-shot sweeps' subset.
  std::vector<uint32_t> AllShards() const;

  const extract::ExtractionDataset& dataset_;
  FusionOptions options_;
  ClaimGraph graph_;
  std::unique_ptr<Scorer> scorer_;

  std::vector<double> accuracy_;
  /// Whether the provenance's accuracy is data-driven (vs. still default).
  std::vector<uint8_t> evaluated_;

  // ---- per-round Stage I tables (accuracies are frozen during a sweep) --
  /// Per provenance: the scorer's frozen per-claim log-odds term (empty
  /// when the scorer has none, i.e. VOTE).
  std::vector<double> log_odds_;
  /// Per provenance: accuracy_[p] >= theta, precomputed when theta > 0
  /// (empty otherwise) so the filter is a byte test per claim.
  std::vector<uint8_t> theta_pass_;
  /// Round regime frozen by BeginStageI: whether post-round-1 sweeps
  /// prefer evaluated provenances, and whether the zero-copy in-place
  /// path applies.
  bool stage1_prefer_evaluated_ = false;
  bool stage1_in_place_ = false;
  std::vector<uint32_t> shard_sweep_micros_;  // by shard id, last sweep

  // ---- Stage II per-group accumulators (BeginStageII..Finish) ----
  // The canonical Stage II reduction is two-level: per-group partial sums
  // folded per provenance in ascending shard order, which is what makes
  // subset-at-a-time accumulation bit-identical to the one-shot sweep.
  /// Shard s's k-th local provenance group owns slot group_base_[s] + k
  /// (size num_shards + 1).
  std::vector<size_t> group_base_;
  std::vector<double> group_sum_;
  /// Eligible claims per group (for an oversized provenance, the number
  /// of values the group appended to its shard's buffer).
  std::vector<uint32_t> group_cnt_;
  /// Per shard: the raw eligible values of its groups whose provenance
  /// has more claims than sample_cap, in group order. Their reservoir
  /// sample must be drawn from the full concatenated value sequence, not
  /// from partial sums.
  std::vector<std::vector<float>> shard_values_;

  /// Rounds RunRounds swept since the last Prepare (global numbering).
  size_t rounds_run_ = 0;
};

/// Runs options.method cold: an engine method on a FusionEngine built for
/// the call, any other method through its registry row
/// (fusion/registry.h).
FusionResult Fuse(const extract::ExtractionDataset& dataset,
                  const FusionOptions& options,
                  const std::vector<Label>* gold = nullptr);

}  // namespace kf::fusion

#endif  // KF_FUSION_ENGINE_H_
