// The string-keyed method registry: one stable name per fusion method, so
// CLI tools, benches, tests, and kf::Session select methods with one code
// path (`Registry::Create("popaccu")`) instead of calling per-method free
// functions. Every registered fuser is a stateless (name, validate, run)
// row (fusion/fuser.h). Registered methods:
//
//   engine     vote, accu, popaccu            (FusionEngine; kf::Session
//                                              keeps their engine for warm
//                                              Refuse, Snapshot and budgets)
//   baselines  truthfinder, two_estimates, investment, pooled_investment
//   extensions latent_truth, hierarchy, confidence_weighted,
//              source_extractor
//
// Method-specific option structs (TruthFinderOptions, LatentTruthOptions,
// ...) are populated from the shared FusionOptions fields (granularity,
// max_rounds, num_workers, num_shards, default_accuracy, accuracy clamp);
// per-method tuning knobs keep their documented defaults. The mapping is
// exact: a registry-created fuser is bit-identical to the corresponding
// direct call with equivalently filled options (regression-tested).
#ifndef KF_FUSION_REGISTRY_H_
#define KF_FUSION_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "fusion/fuser.h"
#include "fusion/options.h"

namespace kf::fusion {

class Registry {
 public:
  /// Creates the fuser registered under `name` (exact, lowercase).
  /// Unknown names return NotFound listing every valid name.
  static Result<std::unique_ptr<Fuser>> Create(const std::string& name);

  /// Whether `name` is a registered method.
  static bool Contains(const std::string& name);

  /// Every registered name, sorted.
  static std::vector<std::string> Names();

  /// Sorted names joined with ", " — for error messages and usage text.
  static std::string NamesCsv();

  /// Canonical registry name of an engine method ("vote", ...).
  static const char* NameOf(Method m);
};

/// Parses an engine-method registry name into the Method enum. Returns
/// false for registry-only methods (baselines, extensions) and unknown
/// names.
bool ParseEngineMethod(const std::string& name, Method* method);

}  // namespace kf::fusion

#endif  // KF_FUSION_REGISTRY_H_
