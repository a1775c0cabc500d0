// Configuration of a fusion run: the method (the engine's VOTE / ACCU /
// POPACCU of Section 4.1, a data-fusion baseline, or a Section 5
// extension), the provenance granularity (Section 4.3.1), the provenance
// filters (4.3.2), the gold-standard accuracy initialization (4.3.3), and
// the execution knobs L and R (4.3.5).
#ifndef KF_FUSION_OPTIONS_H_
#define KF_FUSION_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "extract/provenance.h"

namespace kf::fusion {

/// Every fusion method, in the order of the registry table
/// (fusion/registry.h), which names each one; text becomes a Method only
/// through Registry::Parse.
enum class Method : uint8_t {
  // FusionEngine (Section 4.1)
  kVote = 0,
  kAccu = 1,
  kPopAccu = 2,
  // data-fusion baselines
  kTruthFinder,
  kTwoEstimates,
  kInvestment,
  kPooledInvestment,
  // Section 5 extensions
  kLatentTruth,
  kHierarchy,
  kConfidenceWeighted,
  kSourceExtractor,
};
inline constexpr size_t kNumMethods = 11;

/// VOTE, ACCU and POPACCU run on FusionEngine, which kf::Session keeps
/// for warm Refuse, Snapshot and memory budgets; every other method is a
/// stateless registry row.
constexpr bool IsEngineMethod(Method m) { return m <= Method::kPopAccu; }

/// Warm-start re-fusion knobs (kf::Session::Refuse). After an
/// Append, re-fusion seeds Stage I from the previous run's converged
/// provenance accuracies and iterates only until reconvergence — unlike a
/// cold Run, the convergence check applies from round 1, so a small
/// append typically reconverges in one or two sweeps.
struct WarmStartOptions {
  /// Round cap for one warm re-fusion (0 = inherit max_rounds).
  size_t max_rounds = 0;
  /// Reconvergence epsilon (0 = inherit convergence_epsilon).
  double epsilon = 0.0;

  friend bool operator==(const WarmStartOptions& a, const WarmStartOptions& b) {
    return a.max_rounds == b.max_rounds && a.epsilon == b.epsilon;
  }
};

struct FusionOptions {
  Method method = Method::kPopAccu;
  extract::Granularity granularity = extract::Granularity::ExtractorUrl();

  /// A0: accuracy assigned to a provenance before any evidence (Sec 4.1).
  double default_accuracy = 0.8;
  /// N: assumed number of uniformly distributed false values (ACCU only).
  double n_false_values = 100.0;
  /// R: forced termination after this many rounds.
  size_t max_rounds = 5;
  /// Early stop when no provenance accuracy moves more than this.
  double convergence_epsilon = 1e-4;
  /// Stage II is the paper's undamped update with the strict max-|Δa|
  /// stop test; neither can be set. These names remain only because the
  /// end-to-end benchmark's config line (perfbench/kf_e2e.cc,
  /// DescribeOptions) prints them, and go when that line drops them.
  static constexpr double convergence_quantile = 1.0;
  static constexpr double accuracy_damping = 1.0;
  /// L: reservoir-sample cap per reducer group (both stages).
  size_t sample_cap = 1000000;

  // ---- refinements (Section 4.3) ----
  /// Filter provenances by coverage: round 1 only evaluates data items
  /// where some triple was extracted more than once; later rounds ignore
  /// provenances still carrying the default accuracy.
  bool filter_by_coverage = false;
  /// θ: ignore provenances with accuracy below this (0 disables). Items
  /// losing every provenance fall back to the mean provenance accuracy.
  double min_provenance_accuracy = 0.0;
  /// Initialize provenance accuracy against the (sampled) gold standard
  /// instead of default_accuracy; requires labels at Run time.
  bool init_accuracy_from_gold = false;
  /// Fraction of the gold standard visible for initialization (Fig. 12).
  double gold_sample_rate = 1.0;

  // ---- execution ----
  /// Out-of-core fusion: when > 0, kf::Session runs the engine methods
  /// under this budget on the claim graph's spillable shard columns —
  /// cold shards are written to per-shard kf::store files and mapped back
  /// zero-copy subset by subset (docs/architecture.md, "Out-of-core
  /// fusion"). Results are
  /// bit-identical to the unbudgeted run. A budget smaller than the
  /// largest single shard degrades to one-shard subsets (the effective
  /// floor). FusionEngine itself ignores the field; 0 = fully resident.
  size_t memory_budget_bytes = 0;
  /// Directory for the spill files. Empty = a fresh directory under the
  /// system temp dir, removed when the run's state is discarded. Only
  /// meaningful with memory_budget_bytes > 0.
  std::string spill_dir;
  size_t num_workers = 0;  // 0 = hardware concurrency (max 4096)
  /// Claim-graph shards (hash partitions of the data items). 0 = auto from
  /// the item count. Results are bit-identical for a fixed shard count
  /// regardless of num_workers; changing the shard count may reorder
  /// floating-point reductions.
  size_t num_shards = 0;
  uint64_t seed = 7;       // reservoir sampling / gold sampling

  /// Clamp provenance accuracies away from 0/1 so log-odds stay finite.
  double accuracy_floor = 0.01;
  double accuracy_ceiling = 0.99;

  /// Streaming warm-start re-fusion knobs (engine methods only).
  WarmStartOptions warm_start;

  // ---- presets used throughout the benches ----
  static FusionOptions Vote();
  static FusionOptions Accu();
  static FusionOptions PopAccu();
  /// POPACCU + filter-by-coverage + (Extractor, Site, Predicate, Pattern)
  /// granularity + filter-by-accuracy(0.5): the unsupervised stack.
  static FusionOptions PopAccuPlusUnsup();
  /// POPACCU+ : the full semi-supervised stack (adds gold-standard
  /// accuracy initialization).
  static FusionOptions PopAccuPlus();

  /// Rejects option combinations the engine cannot run (out-of-range
  /// probabilities, zero rounds, inverted accuracy clamp, ...). The engine
  /// checks this on construction; callers building options from user input
  /// should call it themselves and surface the Status.
  Status Validate() const;

  /// E.g. "POPACCU prov=(Extractor, URL) +FilterByCov": the method (the
  /// engine methods in the paper's capitals, the others by registry
  /// name), the granularity if the method reads it, then every active
  /// refinement.
  std::string ToString() const;
};

}  // namespace kf::fusion

#endif  // KF_FUSION_OPTIONS_H_
