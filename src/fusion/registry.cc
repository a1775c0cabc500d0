#include "fusion/registry.h"

#include <algorithm>
#include <memory>

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

/// Strips the registry routing so nested engine construction (hierarchy /
/// confidence_weighted wrap the base engine) never sees a non-engine
/// method name.
FusionOptions BaseEngineOptions(const FusionOptions& options) {
  FusionOptions base = options;
  base.method_name.clear();
  return base;
}

// ---- engine methods (VOTE / ACCU / POPACCU) -----------------------------

template <Method kMethod>
FusionResult RunEngineMethod(const extract::ExtractionDataset& dataset,
                             const FusionOptions& options,
                             const FuseContext& ctx) {
  FusionOptions opts = BaseEngineOptions(options);
  opts.method = kMethod;
  FusionEngine engine(dataset, opts);
  return engine.Run(ctx.gold);
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
  return HierarchyAwareFuse(dataset, *ctx.hierarchy,
                            BaseEngineOptions(options), ctx.gold);
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
  cw.base = BaseEngineOptions(options);
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

struct Entry {
  const char* name;
  Fuser::RunFn run;
  Fuser::ValidateFn validate;
};

constexpr Entry kMethods[] = {
    {"vote", RunEngineMethod<Method::kVote>, ValidateEngineMethod},
    {"accu", RunEngineMethod<Method::kAccu>, ValidateEngineMethod},
    {"popaccu", RunEngineMethod<Method::kPopAccu>, ValidateEngineMethod},
    {"truthfinder", RunTruthFinderFromOptions, ValidateNothing},
    {"two_estimates", RunTwoEstimatesFromOptions, ValidateNothing},
    {"investment", RunInvestmentFromOptions, ValidateNothing},
    {"pooled_investment", RunPooledInvestmentFromOptions, ValidateNothing},
    {"latent_truth", RunLatentTruthFromOptions, ValidateNothing},
    {"hierarchy", RunHierarchyFromOptions, ValidateHierarchy},
    {"confidence_weighted", RunConfidenceWeightedFromOptions,
     ValidateConfidenceWeighted},
    {"source_extractor", RunSourceExtractorFromOptions, ValidateNothing},
};

constexpr Method kEngineMethods[] = {Method::kVote, Method::kAccu,
                                     Method::kPopAccu};

const Entry* FindEntry(const std::string& name) {
  for (const Entry& entry : kMethods) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

}  // namespace

bool ParseEngineMethod(const std::string& name, Method* method) {
  for (Method m : kEngineMethods) {
    if (name == Registry::NameOf(m)) {
      *method = m;
      return true;
    }
  }
  return false;
}

const char* Registry::NameOf(Method m) {
  switch (m) {
    case Method::kVote:
      return "vote";
    case Method::kAccu:
      return "accu";
    case Method::kPopAccu:
      return "popaccu";
  }
  return "???";
}

Result<std::unique_ptr<Fuser>> Registry::Create(const std::string& name) {
  if (const Entry* entry = FindEntry(name)) {
    return std::make_unique<Fuser>(entry->name, entry->run, entry->validate);
  }
  return Status::NotFound(StrFormat("unknown fusion method '%s'; valid: %s",
                                    name.c_str(), NamesCsv().c_str()));
}

bool Registry::Contains(const std::string& name) {
  return FindEntry(name) != nullptr;
}

std::vector<std::string> Registry::Names() {
  std::vector<std::string> names;
  for (const Entry& entry : kMethods) names.emplace_back(entry.name);
  std::sort(names.begin(), names.end());
  return names;
}

std::string Registry::NamesCsv() { return StrJoin(Names(), ", "); }

}  // namespace kf::fusion
