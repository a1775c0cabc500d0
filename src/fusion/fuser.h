// One row of the method registry (fusion/registry.h): a fusion method's
// name, its requirement check, and its cold run. Every method — the three
// engine methods (VOTE / ACCU / POPACCU), the four data-fusion baselines,
// and the Section 5 extensions — is one such row, so callers select
// methods by name through one code path instead of hand-wiring divergent
// free-function signatures.
//
// A Fuser is stateless: Run builds whatever the method needs, returns the
// result, and keeps nothing. State kept between runs — the claim graph and
// converged accuracies behind warm-start Refuse and Snapshot, and the
// spill manager of a budgeted run — belongs to kf::Session, which drives
// the engine methods on a FusionEngine of its own and uses their rows only
// to validate.
#ifndef KF_FUSION_FUSER_H_
#define KF_FUSION_FUSER_H_

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

class Fuser {
 public:
  /// Runs the method cold over `dataset`. Its requirements must have
  /// passed ValidateContext.
  using RunFn = FusionResult (*)(const extract::ExtractionDataset& dataset,
                                 const FusionOptions& options,
                                 const FuseContext& ctx);
  /// Method-specific requirements beyond FusionOptions::Validate.
  using ValidateFn = Status (*)(const extract::ExtractionDataset& dataset,
                                const FusionOptions& options,
                                const FuseContext& ctx);

  Fuser(const char* name, RunFn run, ValidateFn validate)
      : name_(name), run_(run), validate_(validate) {}

  /// The registry name this fuser was created under ("popaccu", ...).
  std::string_view name() const { return name_; }

  /// Method-specific requirements beyond FusionOptions::Validate — e.g.
  /// "confidence_weighted" needs ctx.gold, "hierarchy" needs
  /// ctx.hierarchy. Checked by kf::Session before every run.
  Status ValidateContext(const extract::ExtractionDataset& dataset,
                         const FusionOptions& options,
                         const FuseContext& ctx) const {
    return validate_(dataset, options, ctx);
  }

  /// Cold fusion from scratch, fully resident (a memory budget in
  /// `options` is kf::Session's to honour, not this row's).
  FusionResult Run(const extract::ExtractionDataset& dataset,
                   const FusionOptions& options,
                   const FuseContext& ctx) const {
    return run_(dataset, options, ctx);
  }

 private:
  const char* name_;
  RunFn run_;
  ValidateFn validate_;
};

}  // namespace kf::fusion

#endif  // KF_FUSION_FUSER_H_
