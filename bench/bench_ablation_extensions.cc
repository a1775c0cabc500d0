// Ablation of the Section 5 future directions implemented in
// fusion/ext/: each is evaluated on the sub-population it targets, next
// to POPACCU+ on the same population.
#include "bench/bench_util.h"
#include "eval/report.h"

using namespace kf;

namespace {

// Evaluates only the triples selected by `mask` (true = keep label).
eval::ModelReport EvaluateOn(const std::string& name,
                             const fusion::FusionResult& result,
                             const std::vector<Label>& labels,
                             const std::vector<uint8_t>& mask) {
  std::vector<Label> filtered(labels.size(), Label::kUnknown);
  for (size_t t = 0; t < labels.size(); ++t) {
    if (mask[t]) filtered[t] = labels[t];
  }
  return eval::EvaluateModel(name, result, filtered);
}

}  // namespace

int main() {
  const auto& w = bench::GetWorkload();
  const auto& dataset = w.corpus.dataset;
  const auto& ontology = w.corpus.world.ontology;
  bench::PrintHeader("Ablation",
                     "Section 5 extensions vs POPACCU+ on targeted slices");

  auto plus = bench::RunFusion(dataset, fusion::FusionOptions::PopAccuPlus(),
                           &w.labels);

  // ---- 5.3 multi-truth (non-functional predicates) ----
  std::vector<uint8_t> nonfunc(dataset.num_triples(), 0);
  std::vector<uint8_t> all(dataset.num_triples(), 1);
  for (kb::TripleId t = 0; t < dataset.num_triples(); ++t) {
    const auto& item = dataset.item(dataset.triple(t).item);
    if (!ontology.predicate(item.predicate).functional) nonfunc[t] = 1;
  }
  // LatentTruth at its documented fine granularity, via the registry.
  fusion::FusionOptions ltm_opts;
  ltm_opts.method = fusion::Method::kLatentTruth;
  ltm_opts.granularity =
      extract::Granularity::ExtractorSitePredicatePattern();
  auto ltm = bench::RunFusion(dataset, ltm_opts);
  // Recall of true triples at p > 0.5 on multi-truth items is where the
  // single-truth assumption hurts (65% of the paper's false negatives).
  auto recall_at_half = [&](const fusion::FusionResult& r,
                            const std::vector<uint8_t>& mask) {
    uint64_t truths = 0, found = 0;
    for (kb::TripleId t = 0; t < dataset.num_triples(); ++t) {
      if (!mask[t] || w.labels[t] != Label::kTrue) continue;
      ++truths;
      if (r.has_probability[t] && r.probability[t] > 0.5) ++found;
    }
    return truths ? static_cast<double>(found) / truths : 0.0;
  };
  std::printf("5.3 multi-truth fusion (non-functional predicates):\n");
  TextTable t53({"model", "WDev", "AUC-PR", "recall@p>.5 (true triples)"});
  auto plus_nf = EvaluateOn("POPACCU+", plus, w.labels, nonfunc);
  auto ltm_nf = EvaluateOn("LatentTruth", ltm, w.labels, nonfunc);
  t53.AddRow({"POPACCU+", ToFixed(plus_nf.weighted_deviation, 3),
              ToFixed(plus_nf.auc_pr, 3),
              ToFixed(recall_at_half(plus, nonfunc), 3)});
  t53.AddRow({"LatentTruth (multi-truth)",
              ToFixed(ltm_nf.weighted_deviation, 3),
              ToFixed(ltm_nf.auc_pr, 3),
              ToFixed(recall_at_half(ltm, nonfunc), 3)});
  t53.Print();

  // ---- 5.4 hierarchy-aware fusion ----
  std::vector<uint8_t> hier(dataset.num_triples(), 0);
  for (kb::TripleId t = 0; t < dataset.num_triples(); ++t) {
    const auto& item = dataset.item(dataset.triple(t).item);
    if (ontology.predicate(item.predicate).hierarchical_values) hier[t] = 1;
  }
  fusion::FusionOptions hier_opts = fusion::FusionOptions::PopAccuPlus();
  hier_opts.method = fusion::Method::kHierarchy;
  auto hier_result = bench::RunFusion(dataset, hier_opts, &w.labels,
                                      &w.corpus.world.hierarchy);
  std::printf("\n5.4 hierarchy-aware fusion (hierarchical-value predicates):\n");
  TextTable t54({"model", "WDev", "AUC-PR", "recall@p>.5 (true triples)"});
  auto plus_h = EvaluateOn("POPACCU+", plus, w.labels, hier);
  auto hier_h = EvaluateOn("HierarchyAware", hier_result, w.labels, hier);
  t54.AddRow({"POPACCU+", ToFixed(plus_h.weighted_deviation, 3),
              ToFixed(plus_h.auc_pr, 3),
              ToFixed(recall_at_half(plus, hier), 3)});
  t54.AddRow({"HierarchyAware", ToFixed(hier_h.weighted_deviation, 3),
              ToFixed(hier_h.auc_pr, 3),
              ToFixed(recall_at_half(hier_result, hier), 3)});
  t54.Print();

  // ---- 5.5 confidence-weighted fusion ----
  fusion::FusionOptions cw_opts;
  cw_opts.method = fusion::Method::kConfidenceWeighted;
  cw_opts.granularity = extract::Granularity::ExtractorSitePredicatePattern();
  auto cw = bench::RunFusion(dataset, cw_opts, &w.labels);
  std::printf("\n5.5 confidence-weighted fusion (all triples):\n");
  TextTable t55({"model", "WDev", "AUC-PR"});
  auto plus_all = EvaluateOn("POPACCU+", plus, w.labels, all);
  auto cw_all = EvaluateOn("ConfidenceWeighted", cw, w.labels, all);
  t55.AddRow({"POPACCU+", ToFixed(plus_all.weighted_deviation, 3),
              ToFixed(plus_all.auc_pr, 3)});
  t55.AddRow({"ConfidenceWeighted", ToFixed(cw_all.weighted_deviation, 3),
              ToFixed(cw_all.auc_pr, 3)});
  t55.Print();

  // ---- 5.1 source/extractor separation ----
  auto se = bench::RunMethod(fusion::Method::kSourceExtractor, dataset);
  std::printf("\n5.1 source/extractor separation (all triples, "
              "unsupervised):\n");
  TextTable t51({"model", "WDev", "AUC-PR"});
  auto pop = bench::RunFusion(dataset, fusion::FusionOptions::PopAccu(),
                          &w.labels);
  auto pop_all = EvaluateOn("POPACCU (unsup)", pop, w.labels, all);
  auto se_all = EvaluateOn("SourceExtractor", se, w.labels, all);
  t51.AddRow({"POPACCU (unsup)", ToFixed(pop_all.weighted_deviation, 3),
              ToFixed(pop_all.auc_pr, 3)});
  t51.AddRow({"SourceExtractor (two-factor)",
              ToFixed(se_all.weighted_deviation, 3),
              ToFixed(se_all.auc_pr, 3)});
  t51.Print();

  std::printf(
      "\nexpected shapes: LatentTruth lifts multi-truth recall; "
      "HierarchyAware lifts hierarchical recall;\nthe unsupervised "
      "two-factor model competes with POPACCU without gold data.\n");
  return 0;
}
