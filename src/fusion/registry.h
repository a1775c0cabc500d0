// The method registry: one table indexed by fusion::Method that gives each
// method its one stable name, the FusionOptions fields it reads, the side
// input it needs, and — for the stateless methods — its cold run. Text
// becomes a Method only at the edges (CLI flags, config), through
// Registry::Parse. Methods:
//
//   engine     vote, accu, popaccu            (FusionEngine; kf::Session
//                                              keeps their engine for warm
//                                              Refuse, Snapshot and budgets)
//   baselines  truthfinder, two_estimates, investment, pooled_investment
//   extensions latent_truth, hierarchy, confidence_weighted,
//              source_extractor
//
// The engine rows carry no run: kf::Session drives the engine methods on
// a FusionEngine of its own, and fusion::Fuse builds one. Each of the
// other eight rows points straight at its runner, which runs from scratch
// and keeps nothing. Every row declares the FusionOptions fields it reads
// as one mask, and ValidateContext rejects a non-default value in any
// other, so a run never silently differs from its options. The hierarchy
// row runs POPACCU underneath.
#ifndef KF_FUSION_REGISTRY_H_
#define KF_FUSION_REGISTRY_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "extract/dataset.h"
#include "fusion/engine.h"
#include "fusion/options.h"

namespace kf::fusion {

/// The FusionOptions fields a registry row may read, in declaration
/// order. `method`, the selector, has none: every row reads it.
enum class OptionField : uint8_t {
  kGranularity,
  kDefaultAccuracy,
  kNFalseValues,
  kMaxRounds,
  kConvergenceEpsilon,
  kAccuracyDamping,
  kConvergenceQuantile,
  kSampleCap,
  kFilterByCoverage,
  kMinProvenanceAccuracy,
  kInitAccuracyFromGold,
  kGoldSampleRate,
  kMemoryBudgetBytes,
  kSpillDir,
  kNumWorkers,
  kNumShards,
  kSeed,
  kAccuracyFloor,
  kAccuracyCeiling,
  kWarmStart,
};
inline constexpr size_t kNumOptionFields = 20;

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

  /// Whether `m`'s row reads `field` (false for an `m` outside the table).
  static bool Reads(Method m, OptionField field);

  /// InvalidArgument naming `field` unless `m`'s row reads it.
  static Status CheckReads(Method m, OptionField field);

  /// Requirements of options.method beyond FusionOptions::Validate: every
  /// field the row does not read keeps its default (CheckReads),
  /// "confidence_weighted" needs ctx.gold, "hierarchy" needs ctx.hierarchy,
  /// and gold labels must cover the dataset. Checked by kf::Session.
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
