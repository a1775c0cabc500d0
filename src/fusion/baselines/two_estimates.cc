#include <algorithm>
#include <cmath>

#include "fusion/baselines/baselines.h"
#include "fusion/claim_graph.h"

namespace kf::fusion {

// 2-Estimates alternates:
//   T(v)  = mean over sources of [S claims v] ? (1 - e(S)) : e(S),
//           taken over sources that voted on v's data item;
//   e(S)  = mean over S's items of [S claims v*] ? (1 - T(v)) : T(v)
// followed by an affine renormalization of each estimate vector onto
// [0, 1], which is the stabilizing trick of the original paper.
FusionResult RunTwoEstimates(const extract::ExtractionDataset& dataset,
                             const FusionOptions& options,
                             const FuseContext&) {
  ClaimGraph graph(dataset, options.granularity, options.num_shards,
                   options.num_workers);
  const std::vector<uint32_t>& prov_claims = graph.prov_claims();
  FusionResult result;
  result.probability.assign(dataset.num_triples(), 0.0);
  result.has_probability.assign(dataset.num_triples(), 0);
  result.from_fallback.assign(dataset.num_triples(), 0);
  result.num_provenances = graph.num_provs();

  std::vector<double> truth(dataset.num_triples(), 0.5);
  std::vector<double> error(graph.num_provs(), 0.2);
  std::vector<uint8_t> claimed(dataset.num_triples(), 0);
  graph.ForEachClaim([&](kb::DataItemId, kb::TripleId triple, uint32_t,
                         float) { claimed[triple] = 1; });

  auto renormalize = [](std::vector<double>* v,
                        const std::vector<uint8_t>* mask) {
    double lo = 1e300, hi = -1e300;
    for (size_t i = 0; i < v->size(); ++i) {
      if (mask && !(*mask)[i]) continue;
      lo = std::min(lo, (*v)[i]);
      hi = std::max(hi, (*v)[i]);
    }
    if (hi <= lo) return;
    for (size_t i = 0; i < v->size(); ++i) {
      if (mask && !(*mask)[i]) continue;
      (*v)[i] = ((*v)[i] - lo) / (hi - lo);
    }
  };

  for (size_t round = 0; round < options.max_rounds; ++round) {
    // T step. A source that voted on the item but for a different value
    // counts against v; approximate "voted on the item" via item claim
    // counts.
    std::vector<double> t_sum(dataset.num_triples(), 0.0);
    std::vector<double> t_cnt(dataset.num_triples(), 0.0);
    // positive evidence
    graph.ForEachClaim([&](kb::DataItemId, kb::TripleId triple,
                           uint32_t prov, float) {
      t_sum[triple] += 1.0 - error[prov];
      t_cnt[triple] += 1.0;
    });
    // negative evidence: other claims on the same item
    std::vector<double> item_err_sum(dataset.num_items(), 0.0);
    std::vector<double> item_cnt(dataset.num_items(), 0.0);
    graph.ForEachClaim([&](kb::DataItemId item, kb::TripleId,
                           uint32_t prov, float) {
      item_err_sum[item] += error[prov];
      item_cnt[item] += 1.0;
    });
    graph.ForEachClaim([&](kb::DataItemId item, kb::TripleId triple,
                           uint32_t prov, float) {
      // Each rival claim on the item contributes its source's error as
      // support for v (the rival being wrong supports v).
      double rival_cnt = item_cnt[item] - 1.0;
      if (rival_cnt > 0.0) {
        double rival_err = item_err_sum[item] - error[prov];
        t_sum[triple] += rival_err;
        t_cnt[triple] += rival_cnt;
      }
    });
    for (kb::TripleId t = 0; t < dataset.num_triples(); ++t) {
      if (claimed[t] && t_cnt[t] > 0.0) truth[t] = t_sum[t] / t_cnt[t];
    }
    renormalize(&truth, &claimed);

    // e step: a source erred on a claim in proportion to (1 - T(v)).
    std::vector<double> e_sum(graph.num_provs(), 0.0);
    graph.ForEachClaim([&](kb::DataItemId, kb::TripleId triple,
                           uint32_t prov, float) {
      e_sum[prov] += 1.0 - truth[triple];
    });
    for (size_t p = 0; p < graph.num_provs(); ++p) {
      if (prov_claims[p] > 0) {
        error[p] = e_sum[p] / static_cast<double>(prov_claims[p]);
      }
    }
    renormalize(&error, nullptr);
    // Keep error probabilities away from the degenerate endpoints.
    for (double& e : error) e = std::clamp(e, 0.01, 0.99);
  }

  for (kb::TripleId t = 0; t < dataset.num_triples(); ++t) {
    if (!claimed[t]) continue;
    result.probability[t] = truth[t];
    result.has_probability[t] = 1;
  }
  result.num_rounds = options.max_rounds;
  return result;
}

}  // namespace kf::fusion
