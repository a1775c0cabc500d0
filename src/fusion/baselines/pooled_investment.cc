#include <algorithm>
#include <cmath>

#include "fusion/baselines/baselines.h"
#include "fusion/claim_graph.h"

namespace kf::fusion {

// The growth exponent g of PooledInvestment (Pasternack & Roth; COLING
// 2010).
constexpr double kGrowth = 1.4;

// PooledInvestment: like Investment, but the grown credit of each data
// item's claims is linearly rescaled so the item's pool of credit is
// conserved, which dampens the rich-get-richer dynamics.
FusionResult RunPooledInvestment(const extract::ExtractionDataset& dataset,
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

  std::vector<double> trust(graph.num_provs(), 1.0);
  std::vector<double> credit(dataset.num_triples(), 0.0);
  std::vector<uint8_t> claimed(dataset.num_triples(), 0);
  graph.ForEachClaim([&](kb::DataItemId, kb::TripleId triple, uint32_t) {
    claimed[triple] = 1;
  });

  for (size_t round = 0; round < options.max_rounds; ++round) {
    std::vector<double> invested(dataset.num_triples(), 0.0);
    graph.ForEachClaim([&](kb::DataItemId, kb::TripleId triple, uint32_t prov) {
      invested[triple] +=
          trust[prov] / static_cast<double>(prov_claims[prov]);
    });
    // Pool per item: H(v) = invested(v) * grown(v) / sum_item grown(u).
    std::vector<double> grown(dataset.num_triples(), 0.0);
    std::vector<double> item_grown(dataset.num_items(), 0.0);
    std::vector<double> item_invested(dataset.num_items(), 0.0);
    for (kb::TripleId t = 0; t < dataset.num_triples(); ++t) {
      if (!claimed[t]) continue;
      grown[t] = std::pow(invested[t], kGrowth);
      item_grown[dataset.triple(t).item] += grown[t];
      item_invested[dataset.triple(t).item] += invested[t];
    }
    for (kb::TripleId t = 0; t < dataset.num_triples(); ++t) {
      if (!claimed[t]) continue;
      kb::DataItemId item = dataset.triple(t).item;
      credit[t] = item_grown[item] > 0.0
                      ? item_invested[item] * grown[t] / item_grown[item]
                      : 0.0;
    }
    std::vector<double> new_trust(graph.num_provs(), 0.0);
    graph.ForEachClaim([&](kb::DataItemId, kb::TripleId triple, uint32_t prov) {
      double share = trust[prov] / static_cast<double>(prov_claims[prov]);
      if (invested[triple] > 0.0) {
        new_trust[prov] += credit[triple] * share / invested[triple];
      }
    });
    double sum = 0.0;
    for (double t : new_trust) sum += t;
    if (sum > 0.0) {
      double scale = static_cast<double>(graph.num_provs()) / sum;
      for (double& t : new_trust) t *= scale;
    }
    trust = std::move(new_trust);
  }

  std::vector<double> item_total(dataset.num_items(), 0.0);
  for (kb::TripleId t = 0; t < dataset.num_triples(); ++t) {
    if (claimed[t]) item_total[dataset.triple(t).item] += credit[t];
  }
  for (kb::TripleId t = 0; t < dataset.num_triples(); ++t) {
    if (!claimed[t]) continue;
    double denom = item_total[dataset.triple(t).item];
    result.probability[t] = denom > 0.0 ? credit[t] / denom : 0.0;
    result.has_probability[t] = 1;
  }
  result.num_rounds = options.max_rounds;
  return result;
}

}  // namespace kf::fusion
