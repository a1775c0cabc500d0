#include "fusion/registry.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "fusion/baselines/baselines.h"
#include "fusion/ext/extensions.h"

namespace kf::fusion {

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

namespace {

/// Strips the registry routing so nested engine construction (hierarchy /
/// confidence_weighted wrap the base engine) never sees a non-engine
/// method name.
FusionOptions BaseEngineOptions(const FusionOptions& options) {
  FusionOptions base = options;
  base.method_name.clear();
  return base;
}

// ---- engine methods (VOTE / ACCU / POPACCU): stateful, warm-startable --

class EngineFuser : public Fuser {
 public:
  explicit EngineFuser(Method method) : method_(method) {}

  std::string_view name() const override { return Registry::NameOf(method_); }

  Status ValidateContext(const extract::ExtractionDataset& dataset,
                         const FusionOptions& options,
                         const FuseContext& ctx) const override {
    return CheckGold(dataset, options, ctx);
  }

  Result<FusionResult> Run(const extract::ExtractionDataset& dataset,
                           const FusionOptions& options,
                           const FuseContext& ctx) override {
    FusionOptions opts = BaseEngineOptions(options);
    opts.method = method_;
    engine_.emplace(dataset, opts);
    dataset_ = &dataset;
    return engine_->Run(ctx.gold);
  }

  bool SupportsWarmStart() const override { return true; }

  const FusionEngine* engine() const override {
    return engine_ ? &*engine_ : nullptr;
  }

  Result<FusionResult> Refuse(
      const extract::ExtractionDataset& dataset) override {
    if (!engine_ || dataset_ != &dataset) {
      return Status::FailedPrecondition(
          "Refuse() needs a prior Run() over the same dataset");
    }
    // Ingest appended records incrementally and keep the converged
    // accuracies — the warm seed. New provenances enter at the default.
    FusionResult result = engine_->PrepareWarm();
    KF_RETURN_IF_ERROR(
        engine_->RunRounds(FusionEngine::Start::kWarm, &result));
    return result;
  }

 private:
  Method method_;
  std::optional<FusionEngine> engine_;
  const extract::ExtractionDataset* dataset_ = nullptr;
};

// ---- stateless wrappers over the baseline / extension free functions ---

class FreeFnFuser : public Fuser {
 public:
  using RunFn = FusionResult (*)(const extract::ExtractionDataset&,
                                 const FusionOptions&, const FuseContext&);
  using ValidateFn = Status (*)(const extract::ExtractionDataset&,
                                const FusionOptions&, const FuseContext&);

  FreeFnFuser(const char* name, RunFn run, ValidateFn validate)
      : name_(name), run_(run), validate_(validate) {}

  std::string_view name() const override { return name_; }

  Status ValidateContext(const extract::ExtractionDataset& dataset,
                         const FusionOptions& options,
                         const FuseContext& ctx) const override {
    return validate_(dataset, options, ctx);
  }

  Result<FusionResult> Run(const extract::ExtractionDataset& dataset,
                           const FusionOptions& options,
                           const FuseContext& ctx) override {
    return run_(dataset, options, ctx);
  }

 private:
  const char* name_;
  RunFn run_;
  ValidateFn validate_;
};

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
  return CheckGold(dataset, options, ctx);
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

struct FreeFnEntry {
  const char* name;
  FreeFnFuser::RunFn run;
  FreeFnFuser::ValidateFn validate;
};

constexpr FreeFnEntry kFreeFnMethods[] = {
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
  Method m;
  if (ParseEngineMethod(name, &m)) {
    return std::unique_ptr<Fuser>(new EngineFuser(m));
  }
  for (const FreeFnEntry& entry : kFreeFnMethods) {
    if (name == entry.name) {
      return std::unique_ptr<Fuser>(
          new FreeFnFuser(entry.name, entry.run, entry.validate));
    }
  }
  return Status::NotFound(StrFormat("unknown fusion method '%s'; valid: %s",
                                    name.c_str(), NamesCsv().c_str()));
}

bool Registry::Contains(const std::string& name) {
  Method m;
  if (ParseEngineMethod(name, &m)) return true;
  for (const FreeFnEntry& entry : kFreeFnMethods) {
    if (name == entry.name) return true;
  }
  return false;
}

std::vector<std::string> Registry::Names() {
  std::vector<std::string> names;
  for (Method m : kEngineMethods) names.emplace_back(NameOf(m));
  for (const FreeFnEntry& entry : kFreeFnMethods) {
    names.emplace_back(entry.name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string Registry::NamesCsv() { return StrJoin(Names(), ", "); }

}  // namespace kf::fusion
