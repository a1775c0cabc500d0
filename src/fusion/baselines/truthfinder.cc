#include <algorithm>
#include <cmath>

#include "fusion/baselines/baselines.h"
#include "fusion/claim_graph.h"

namespace kf::fusion {

// TruthFinder (Yin, Han, Yu; SIGKDD 2007): every source starts at this
// trustworthiness, and gamma damps the logistic link of value confidence.
constexpr double kInitialTrust = 0.9;
constexpr double kDampening = 0.3;  // gamma

FusionResult RunTruthFinder(const extract::ExtractionDataset& dataset,
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

  std::vector<double> trust(graph.num_provs(), kInitialTrust);
  std::vector<double> conf(dataset.num_triples(), 0.0);
  std::vector<uint8_t> claimed(dataset.num_triples(), 0);
  graph.ForEachClaim([&](kb::DataItemId, kb::TripleId triple, uint32_t,
                         float) { claimed[triple] = 1; });

  for (size_t round = 0; round < options.max_rounds; ++round) {
    // Value confidence: sigma(v) = sum of tau(S) = -ln(1 - t(S)) over
    // claimants; conf(v) = 1 / (1 + exp(-gamma * sigma(v))).
    std::vector<double> sigma(dataset.num_triples(), 0.0);
    graph.ForEachClaim([&](kb::DataItemId, kb::TripleId triple,
                           uint32_t prov, float) {
      double t = std::min(trust[prov], 0.999999);
      sigma[triple] += -std::log(1.0 - t);
    });
    for (kb::TripleId t = 0; t < dataset.num_triples(); ++t) {
      if (!claimed[t]) continue;
      conf[t] = 1.0 / (1.0 + std::exp(-kDampening * sigma[t]));
    }
    // Source trustworthiness: mean confidence of claimed values.
    std::vector<double> sum(graph.num_provs(), 0.0);
    graph.ForEachClaim([&](kb::DataItemId, kb::TripleId triple,
                           uint32_t prov, float) {
      sum[prov] += conf[triple];
    });
    for (size_t p = 0; p < graph.num_provs(); ++p) {
      if (prov_claims[p] > 0) {
        trust[p] = sum[p] / static_cast<double>(prov_claims[p]);
      }
    }
  }
  for (kb::TripleId t = 0; t < dataset.num_triples(); ++t) {
    if (!claimed[t]) continue;
    result.probability[t] = conf[t];
    result.has_probability[t] = 1;
  }
  result.num_rounds = options.max_rounds;
  return result;
}

}  // namespace kf::fusion
