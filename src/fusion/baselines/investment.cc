#include <algorithm>
#include <cmath>

#include "fusion/baselines/baselines.h"
#include "fusion/claim_graph.h"

namespace kf::fusion {

// The growth exponent g of Investment (Pasternack & Roth; COLING 2010).
constexpr double kGrowth = 1.2;

// Investment: each source spreads its trust uniformly over its claims;
// claim credit is the invested sum raised to the growth exponent; sources
// earn trust back proportional to their share of each claim's investment.
FusionResult RunInvestment(const extract::ExtractionDataset& dataset,
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
    for (kb::TripleId t = 0; t < dataset.num_triples(); ++t) {
      if (claimed[t]) credit[t] = std::pow(invested[t], kGrowth);
    }
    std::vector<double> new_trust(graph.num_provs(), 0.0);
    graph.ForEachClaim([&](kb::DataItemId, kb::TripleId triple, uint32_t prov) {
      double share = trust[prov] / static_cast<double>(prov_claims[prov]);
      if (invested[triple] > 0.0) {
        new_trust[prov] += credit[triple] * share / invested[triple];
      }
    });
    // Normalize trust to mean 1 to avoid blow-up across rounds.
    double sum = 0.0;
    for (double t : new_trust) sum += t;
    if (sum > 0.0) {
      double scale = static_cast<double>(graph.num_provs()) / sum;
      for (double& t : new_trust) t *= scale;
    }
    trust = std::move(new_trust);
  }

  // Per-item normalization turns credits into pseudo-probabilities.
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
