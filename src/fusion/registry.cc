#include "fusion/registry.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"
#include "fusion/baselines/baselines.h"
#include "fusion/ext/extensions.h"

namespace kf::fusion {

namespace {

/// Per OptionField, its name and whether `o` holds the default value.
struct FieldInfo {
  const char* name;
  bool (*is_default)(const FusionOptions& o);
};

#define KF_OPTION_FIELD(f) \
  {#f, [](const FusionOptions& o) { return o.f == FusionOptions().f; }}

constexpr FieldInfo kFields[] = {
    KF_OPTION_FIELD(granularity),
    KF_OPTION_FIELD(default_accuracy),
    KF_OPTION_FIELD(n_false_values),
    KF_OPTION_FIELD(max_rounds),
    KF_OPTION_FIELD(convergence_epsilon),
    KF_OPTION_FIELD(accuracy_damping),
    KF_OPTION_FIELD(convergence_quantile),
    KF_OPTION_FIELD(sample_cap),
    KF_OPTION_FIELD(filter_by_coverage),
    KF_OPTION_FIELD(min_provenance_accuracy),
    KF_OPTION_FIELD(init_accuracy_from_gold),
    KF_OPTION_FIELD(gold_sample_rate),
    KF_OPTION_FIELD(memory_budget_bytes),
    KF_OPTION_FIELD(spill_dir),
    KF_OPTION_FIELD(num_workers),
    KF_OPTION_FIELD(num_shards),
    KF_OPTION_FIELD(seed),
    KF_OPTION_FIELD(accuracy_floor),
    KF_OPTION_FIELD(accuracy_ceiling),
    KF_OPTION_FIELD(warm_start),
};
#undef KF_OPTION_FIELD
static_assert(sizeof(kFields) / sizeof(kFields[0]) == kNumOptionFields,
              "one entry per OptionField");

constexpr uint32_t Bit(OptionField f) {
  return uint32_t{1} << static_cast<unsigned>(f);
}

constexpr uint32_t kReadsAll = (uint32_t{1} << kNumOptionFields) - 1;
/// The claim-graph rows: graph build (granularity, shards, workers) plus
/// a round count.
constexpr uint32_t kReadsClaimGraph =
    Bit(OptionField::kGranularity) | Bit(OptionField::kMaxRounds) |
    Bit(OptionField::kNumShards) | Bit(OptionField::kNumWorkers);
constexpr uint32_t kReadsConfidenceWeighted =
    kReadsClaimGraph | Bit(OptionField::kDefaultAccuracy);
/// POPACCU underneath, always cold and resident.
constexpr uint32_t kReadsHierarchy =
    kReadsAll & ~(Bit(OptionField::kMemoryBudgetBytes) |
                  Bit(OptionField::kSpillDir) | Bit(OptionField::kWarmStart));
constexpr uint32_t kReadsSourceExtractor =
    Bit(OptionField::kMaxRounds) | Bit(OptionField::kDefaultAccuracy) |
    Bit(OptionField::kAccuracyFloor) | Bit(OptionField::kAccuracyCeiling);

/// The side input a row requires beyond its fields.
enum class Needs : uint8_t { kNothing, kGold, kHierarchy };

struct Row {
  const char* name;
  uint32_t reads;  // Bit(field) for every OptionField the method reads
  Needs needs;
  // Null for the engine methods, which run on FusionEngine.
  FusionResult (*run)(const extract::ExtractionDataset& dataset,
                      const FusionOptions& options, const FuseContext& ctx);
};

/// The registry, indexed by Method.
constexpr Row kRows[] = {
    {"vote", kReadsAll, Needs::kNothing, nullptr},
    {"accu", kReadsAll, Needs::kNothing, nullptr},
    {"popaccu", kReadsAll, Needs::kNothing, nullptr},
    {"truthfinder", kReadsClaimGraph, Needs::kNothing, RunTruthFinder},
    {"two_estimates", kReadsClaimGraph, Needs::kNothing, RunTwoEstimates},
    {"investment", kReadsClaimGraph, Needs::kNothing, RunInvestment},
    {"pooled_investment", kReadsClaimGraph, Needs::kNothing,
     RunPooledInvestment},
    {"latent_truth", kReadsClaimGraph, Needs::kNothing, RunLatentTruth},
    {"hierarchy", kReadsHierarchy, Needs::kHierarchy, HierarchyAwareFuse},
    {"confidence_weighted", kReadsConfidenceWeighted, Needs::kGold,
     RunConfidenceWeighted},
    {"source_extractor", kReadsSourceExtractor, Needs::kNothing,
     RunSourceExtractor},
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

bool Registry::Reads(Method m, OptionField field) {
  return static_cast<size_t>(m) < kNumMethods &&
         (kRows[static_cast<size_t>(m)].reads & Bit(field)) != 0;
}

Status Registry::CheckReads(Method m, OptionField field) {
  if (Reads(m, field)) return Status::OK();
  const char* why =
      field == OptionField::kMemoryBudgetBytes
          ? ": it cannot run out-of-core (only vote, accu and popaccu can)"
          : "; it must keep its default";
  return Status::InvalidArgument(
      StrFormat("'%s' does not read %s%s", NameOf(m),
                kFields[static_cast<size_t>(field)].name, why));
}

Status Registry::ValidateContext(const extract::ExtractionDataset& dataset,
                                 const FusionOptions& options,
                                 const FuseContext& ctx) {
  const Row& row = RowOf(options.method);
  if (row.reads != kReadsAll) {
    for (size_t f = 0; f < kNumOptionFields; ++f) {
      if (!kFields[f].is_default(options)) {
        KF_RETURN_IF_ERROR(
            CheckReads(options.method, static_cast<OptionField>(f)));
      }
    }
  }
  if (row.needs == Needs::kHierarchy && ctx.hierarchy == nullptr) {
    return Status::InvalidArgument(
        "the hierarchy method requires a value hierarchy "
        "(Session::SetHierarchy / FuseContext::hierarchy)");
  }
  const bool gold_required = row.needs == Needs::kGold;
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

FusionResult Registry::Run(const extract::ExtractionDataset& dataset,
                           const FusionOptions& options,
                           const FuseContext& ctx) {
  const Row& row = RowOf(options.method);
  KF_CHECK(row.run != nullptr);
  return row.run(dataset, options, ctx);
}

}  // namespace kf::fusion
