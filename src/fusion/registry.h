// The method registry: one table indexed by fusion::Method that gives each
// method its one stable name, its requirement check, and — for the
// stateless methods — its cold run. Text becomes a Method only at the
// edges (CLI flags, config), through Registry::Parse. Methods:
//
//   engine     vote, accu, popaccu            (FusionEngine; kf::Session
//                                              keeps their engine for warm
//                                              Refuse, Snapshot and budgets)
//   baselines  truthfinder, two_estimates, investment, pooled_investment
//   extensions latent_truth, hierarchy, confidence_weighted,
//              source_extractor
//
// The engine rows carry no run: kf::Session drives the engine methods on
// a FusionEngine of its own, and fusion::Fuse builds one. The other eight
// rows run from scratch and keep nothing. Their method-specific option
// structs (TruthFinderOptions, LatentTruthOptions, ...) are populated from
// the shared FusionOptions fields (granularity, max_rounds, num_workers,
// num_shards, default_accuracy, accuracy clamp); per-method tuning knobs
// keep their documented defaults. The mapping is exact: a row's run is
// bit-identical to the corresponding direct call with equivalently filled
// options (regression-tested). The hierarchy row runs POPACCU underneath;
// call HierarchyAwareFuse directly for another base.
#ifndef KF_FUSION_REGISTRY_H_
#define KF_FUSION_REGISTRY_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/label.h"
#include "common/status.h"
#include "extract/dataset.h"
#include "fusion/engine.h"
#include "fusion/options.h"
#include "kb/value_hierarchy.h"

namespace kf::fusion {

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

class Registry {
 public:
  /// The method registered under `name` (exact, lowercase). Unknown names
  /// return NotFound listing every valid name.
  static Result<Method> Parse(std::string_view name);

  /// Registry name of `m` ("popaccu", "truthfinder", ...).
  static const char* NameOf(Method m);

  /// Every registered name, sorted.
  static std::vector<std::string> Names();

  /// Sorted names joined with ", " — for error messages and usage text.
  static std::string NamesCsv();

  /// Requirements of options.method beyond FusionOptions::Validate — e.g.
  /// "confidence_weighted" needs ctx.gold, "hierarchy" needs
  /// ctx.hierarchy, and gold labels must cover the dataset. Checked by
  /// kf::Session before every run.
  static Status ValidateContext(const extract::ExtractionDataset& dataset,
                                const FusionOptions& options,
                                const FuseContext& ctx);

  /// Cold run of a stateless method (not an engine method: those run on
  /// FusionEngine), fully resident. Its requirements must have passed
  /// ValidateContext.
  static FusionResult Run(const extract::ExtractionDataset& dataset,
                          const FusionOptions& options,
                          const FuseContext& ctx);
};

}  // namespace kf::fusion

#endif  // KF_FUSION_REGISTRY_H_
