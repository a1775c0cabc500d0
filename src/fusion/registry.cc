#include "fusion/registry.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"
#include "fusion/baselines/baselines.h"
#include "fusion/ext/extensions.h"

namespace kf::fusion {

namespace {

/// The gold-label check the engine rows and the gold-reading extensions
/// share: labels must be present when `gold_required` or
/// options.init_accuracy_from_gold asks for them, and when present must
/// cover every triple of the dataset.
Status CheckGold(const extract::ExtractionDataset& dataset,
                 const FusionOptions& options, const FuseContext& ctx,
                 bool gold_required) {
  if ((gold_required || options.init_accuracy_from_gold) &&
      ctx.gold == nullptr) {
    return Status::InvalidArgument(
        gold_required ? "this method requires gold labels"
                      : "init_accuracy_from_gold requires gold labels");
  }
  if (ctx.gold != nullptr && ctx.gold->size() != dataset.num_triples()) {
    return Status::InvalidArgument(
        StrFormat("gold labels cover %zu triples but the dataset has %zu",
                  ctx.gold->size(), dataset.num_triples()));
  }
  return Status::OK();
}

Status ValidateEngineMethod(const extract::ExtractionDataset& dataset,
                            const FusionOptions& options,
                            const FuseContext& ctx) {
  return CheckGold(dataset, options, ctx, /*gold_required=*/false);
}

// ---- baselines and extensions: the free functions ----------------------

/// Fills the shared BaselineOptions fields from FusionOptions.
template <typename Options>
Options MakeBaselineOptions(const FusionOptions& o) {
  Options b;
  b.granularity = o.granularity;
  b.max_rounds = o.max_rounds;
  b.num_workers = o.num_workers;
  b.num_shards = o.num_shards;
  return b;
}

Status ValidateNothing(const extract::ExtractionDataset&,
                       const FusionOptions&, const FuseContext&) {
  return Status::OK();
}

FusionResult RunTruthFinderFromOptions(
    const extract::ExtractionDataset& dataset, const FusionOptions& options,
    const FuseContext&) {
  return RunTruthFinder(dataset,
                        MakeBaselineOptions<TruthFinderOptions>(options));
}

FusionResult RunTwoEstimatesFromOptions(
    const extract::ExtractionDataset& dataset, const FusionOptions& options,
    const FuseContext&) {
  return RunTwoEstimates(dataset,
                         MakeBaselineOptions<TwoEstimatesOptions>(options));
}

FusionResult RunInvestmentFromOptions(
    const extract::ExtractionDataset& dataset, const FusionOptions& options,
    const FuseContext&) {
  return RunInvestment(dataset,
                       MakeBaselineOptions<InvestmentOptions>(options));
}

FusionResult RunPooledInvestmentFromOptions(
    const extract::ExtractionDataset& dataset, const FusionOptions& options,
    const FuseContext&) {
  return RunPooledInvestment(
      dataset, MakeBaselineOptions<PooledInvestmentOptions>(options));
}

FusionResult RunLatentTruthFromOptions(
    const extract::ExtractionDataset& dataset, const FusionOptions& options,
    const FuseContext&) {
  LatentTruthOptions lt;
  lt.granularity = options.granularity;
  lt.max_rounds = options.max_rounds;
  return RunLatentTruth(dataset, lt);
}

Status ValidateHierarchy(const extract::ExtractionDataset& dataset,
                         const FusionOptions& options,
                         const FuseContext& ctx) {
  if (ctx.hierarchy == nullptr) {
    return Status::InvalidArgument(
        "the hierarchy method requires a value hierarchy "
        "(Session::SetHierarchy / FuseContext::hierarchy)");
  }
  return CheckGold(dataset, options, ctx, /*gold_required=*/false);
}

FusionResult RunHierarchyFromOptions(
    const extract::ExtractionDataset& dataset, const FusionOptions& options,
    const FuseContext& ctx) {
  FusionOptions base = options;
  base.method = Method::kPopAccu;
  return HierarchyAwareFuse(dataset, *ctx.hierarchy, base, ctx.gold);
}

Status ValidateConfidenceWeighted(const extract::ExtractionDataset& dataset,
                                  const FusionOptions& options,
                                  const FuseContext& ctx) {
  return CheckGold(dataset, options, ctx, /*gold_required=*/true);
}

FusionResult RunConfidenceWeightedFromOptions(
    const extract::ExtractionDataset& dataset, const FusionOptions& options,
    const FuseContext& ctx) {
  ConfidenceWeightedOptions cw;
  cw.base = options;  // its weighted POPACCU reads only the shared fields
  return RunConfidenceWeighted(dataset, cw, *ctx.gold);
}

FusionResult RunSourceExtractorFromOptions(
    const extract::ExtractionDataset& dataset, const FusionOptions& options,
    const FuseContext&) {
  SourceExtractorOptions se;
  se.max_rounds = options.max_rounds;
  se.init_source_accuracy = options.default_accuracy;
  se.accuracy_floor = options.accuracy_floor;
  se.accuracy_ceiling = options.accuracy_ceiling;
  return RunSourceExtractor(dataset, se);
}

using ValidateFn = Status (*)(const extract::ExtractionDataset& dataset,
                              const FusionOptions& options,
                              const FuseContext& ctx);
using RunFn = FusionResult (*)(const extract::ExtractionDataset& dataset,
                               const FusionOptions& options,
                               const FuseContext& ctx);

struct Row {
  const char* name;
  ValidateFn validate;
  RunFn run;  // null for the engine methods, which run on FusionEngine
};

/// The registry, indexed by Method.
constexpr Row kRows[] = {
    {"vote", ValidateEngineMethod, nullptr},
    {"accu", ValidateEngineMethod, nullptr},
    {"popaccu", ValidateEngineMethod, nullptr},
    {"truthfinder", ValidateNothing, RunTruthFinderFromOptions},
    {"two_estimates", ValidateNothing, RunTwoEstimatesFromOptions},
    {"investment", ValidateNothing, RunInvestmentFromOptions},
    {"pooled_investment", ValidateNothing, RunPooledInvestmentFromOptions},
    {"latent_truth", ValidateNothing, RunLatentTruthFromOptions},
    {"hierarchy", ValidateHierarchy, RunHierarchyFromOptions},
    {"confidence_weighted", ValidateConfidenceWeighted,
     RunConfidenceWeightedFromOptions},
    {"source_extractor", ValidateNothing, RunSourceExtractorFromOptions},
};
static_assert(sizeof(kRows) / sizeof(kRows[0]) == kNumMethods,
              "one registry row per Method");

const Row& RowOf(Method m) {
  KF_CHECK(static_cast<size_t>(m) < kNumMethods);
  return kRows[static_cast<size_t>(m)];
}

}  // namespace

Result<Method> Registry::Parse(std::string_view name) {
  for (size_t i = 0; i < kNumMethods; ++i) {
    if (name == kRows[i].name) return static_cast<Method>(i);
  }
  return Status::NotFound(StrFormat("unknown fusion method '%.*s'; valid: %s",
                                    static_cast<int>(name.size()),
                                    name.data(), NamesCsv().c_str()));
}

const char* Registry::NameOf(Method m) {
  return static_cast<size_t>(m) < kNumMethods
             ? kRows[static_cast<size_t>(m)].name
             : "???";
}

std::vector<std::string> Registry::Names() {
  std::vector<std::string> names;
  for (const Row& row : kRows) names.emplace_back(row.name);
  std::sort(names.begin(), names.end());
  return names;
}

std::string Registry::NamesCsv() { return StrJoin(Names(), ", "); }

Status Registry::ValidateContext(const extract::ExtractionDataset& dataset,
                                 const FusionOptions& options,
                                 const FuseContext& ctx) {
  return RowOf(options.method).validate(dataset, options, ctx);
}

FusionResult Registry::Run(const extract::ExtractionDataset& dataset,
                           const FusionOptions& options,
                           const FuseContext& ctx) {
  const Row& row = RowOf(options.method);
  KF_CHECK(row.run != nullptr);
  return row.run(dataset, options, ctx);
}

}  // namespace kf::fusion
