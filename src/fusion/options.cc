#include "fusion/options.h"

#include <cctype>

#include "common/string_util.h"
#include "fusion/claim_graph.h"
#include "fusion/registry.h"

namespace kf::fusion {

FusionOptions FusionOptions::Vote() {
  FusionOptions o;
  o.method = Method::kVote;
  return o;
}

FusionOptions FusionOptions::Accu() {
  FusionOptions o;
  o.method = Method::kAccu;
  return o;
}

FusionOptions FusionOptions::PopAccu() {
  FusionOptions o;
  o.method = Method::kPopAccu;
  return o;
}

FusionOptions FusionOptions::PopAccuPlusUnsup() {
  FusionOptions o;
  o.method = Method::kPopAccu;
  o.filter_by_coverage = true;
  o.granularity = extract::Granularity::ExtractorSitePredicatePattern();
  // The paper's best stack used theta = 0.5; on the synthetic corpus the
  // provenance-accuracy distribution is mid-heavy rather than bimodal, so
  // the useful range of the filter sits lower (see bench_fig11_selection).
  o.min_provenance_accuracy = 0.25;
  return o;
}

FusionOptions FusionOptions::PopAccuPlus() {
  FusionOptions o = PopAccuPlusUnsup();
  o.init_accuracy_from_gold = true;
  o.gold_sample_rate = 1.0;
  return o;
}

Status FusionOptions::Validate() const {
  if (static_cast<size_t>(method) >= kNumMethods) {
    return Status::InvalidArgument(
        StrFormat("method must be one of the %zu registry methods, got %d",
                  kNumMethods, static_cast<int>(method)));
  }
  if (!(default_accuracy > 0.0 && default_accuracy < 1.0)) {
    return Status::InvalidArgument(
        StrFormat("default_accuracy must be in (0,1), got %g",
                  default_accuracy));
  }
  if (!(n_false_values > 0.0)) {
    return Status::InvalidArgument(
        StrFormat("n_false_values must be positive, got %g", n_false_values));
  }
  if (max_rounds == 0) {
    return Status::InvalidArgument("max_rounds must be at least 1");
  }
  if (!(convergence_epsilon >= 0.0)) {
    return Status::InvalidArgument(
        StrFormat("convergence_epsilon must be non-negative, got %g",
                  convergence_epsilon));
  }
  if (!(accuracy_damping > 0.0 && accuracy_damping <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("accuracy_damping must be in (0,1], got %g",
                  accuracy_damping));
  }
  if (!(convergence_quantile > 0.0 && convergence_quantile <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("convergence_quantile must be in (0,1], got %g",
                  convergence_quantile));
  }
  if (sample_cap == 0) {
    return Status::InvalidArgument("sample_cap must be at least 1");
  }
  if (!(min_provenance_accuracy >= 0.0 && min_provenance_accuracy < 1.0)) {
    return Status::InvalidArgument(
        StrFormat("min_provenance_accuracy must be in [0,1), got %g",
                  min_provenance_accuracy));
  }
  if (!(gold_sample_rate >= 0.0 && gold_sample_rate <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("gold_sample_rate must be in [0,1], got %g",
                  gold_sample_rate));
  }
  if (init_accuracy_from_gold && gold_sample_rate == 0.0) {
    return Status::InvalidArgument(
        "init_accuracy_from_gold needs gold_sample_rate > 0");
  }
  if (!spill_dir.empty() && memory_budget_bytes == 0) {
    return Status::InvalidArgument(
        "spill_dir is set but memory_budget_bytes is 0; a spill directory "
        "is only used by budgeted (out-of-core) fusion");
  }
  if (num_shards > kMaxClaimGraphShards) {
    return Status::InvalidArgument(
        StrFormat("num_shards must be at most 2^20, got %zu", num_shards));
  }
  if (num_workers > 4096) {
    return Status::InvalidArgument(
        StrFormat("num_workers must be at most 4096, got %zu",
                  num_workers));
  }
  if (!(accuracy_floor > 0.0) || !(accuracy_ceiling < 1.0) ||
      accuracy_floor >= accuracy_ceiling) {
    return Status::InvalidArgument(
        StrFormat("accuracy clamp must satisfy 0 < floor < ceiling < 1, "
                  "got [%g, %g]",
                  accuracy_floor, accuracy_ceiling));
  }
  if (!(warm_start.epsilon >= 0.0)) {
    return Status::InvalidArgument(
        StrFormat("warm_start.epsilon must be non-negative, got %g",
                  warm_start.epsilon));
  }
  if (!(warm_start.damping >= 0.0 && warm_start.damping <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("warm_start.damping must be in [0,1] (0 = inherit), "
                  "got %g",
                  warm_start.damping));
  }
  if (!(warm_start.quantile >= 0.0 && warm_start.quantile <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("warm_start.quantile must be in [0,1] (0 = inherit), "
                  "got %g",
                  warm_start.quantile));
  }
  return Status::OK();
}

std::string FusionOptions::ToString() const {
  std::string out = Registry::NameOf(method);
  if (IsEngineMethod(method)) {
    for (char& c : out) c = static_cast<char>(std::toupper(c));
  }
  if (Registry::Reads(method, OptionField::kGranularity)) {
    out += " prov=" + granularity.ToString();
  }
  if (filter_by_coverage) out += " +FilterByCov";
  if (min_provenance_accuracy > 0.0) {
    out += StrFormat(" +FilterByAccu(%.2f)", min_provenance_accuracy);
  }
  if (init_accuracy_from_gold) {
    out += StrFormat(" +InitAccuByGS(%.0f%%)", gold_sample_rate * 100.0);
  }
  if (accuracy_damping < 1.0) {
    out += StrFormat(" +Damping(%.2f)", accuracy_damping);
  }
  if (convergence_quantile < 1.0) {
    out += StrFormat(" +ConvQuantile(%.2f)", convergence_quantile);
  }
  if (memory_budget_bytes > 0) {
    out += StrFormat(" +Budget(%zuB)", memory_budget_bytes);
  }
  return out;
}

}  // namespace kf::fusion
