#include <algorithm>
#include <cmath>

#include "fusion/claim_graph.h"
#include "fusion/ext/extensions.h"

namespace kf::fusion {

// The latent-truth model's priors, in the spirit of Zhao et al. (PVLDB
// 2012). Provenances with fewer than kMinClaims claims keep the initial
// sensitivity and false-positive rate.
constexpr double kPriorTrue = 0.3;  // matches the corpus-level accuracy
constexpr double kInitSensitivity = 0.6;
constexpr double kInitFalsePos = 0.15;
constexpr uint32_t kMinClaims = 3;

// Per-triple independent posterior:
//   odds(t) = prior_odds * prod_{S claims t} (se_S / fp_S)
//                        * prod_{S covers item, no claim} ((1-se_S)/(1-fp_S))
// where "covers item" means the provenance claimed some value for t's data
// item. se and fp are re-estimated from the posterior each round.
//
// Both steps sweep the claim graph's item groups. A group's claims are
// sorted by triple (stable in first-seen order), so every per-triple sum
// is a run-length sweep, and the provenances covering the item are the
// group's prov column sorted and deduplicated.
FusionResult RunLatentTruth(const extract::ExtractionDataset& dataset,
                            const FusionOptions& options,
                            const FuseContext&) {
  const ClaimGraph graph(dataset, options.granularity, options.num_shards,
                         options.num_workers);
  const size_t num_provs = graph.num_provs();
  FusionResult result;
  result.probability.assign(dataset.num_triples(), 0.0);
  result.has_probability.assign(dataset.num_triples(), 0);
  result.from_fallback.assign(dataset.num_triples(), 0);
  result.num_provenances = num_provs;

  std::vector<double> prob(dataset.num_triples(), kPriorTrue);
  std::vector<double> se(num_provs, kInitSensitivity);
  std::vector<double> fp(num_provs, kInitFalsePos);
  const double prior_logodds = std::log(kPriorTrue / (1.0 - kPriorTrue));

  // Distinct provenances covering one item group, ascending.
  std::vector<uint32_t> provs;
  auto covering = [&provs](const ShardColumns& c, uint32_t b, uint32_t e) {
    provs.assign(c.claim_prov + b, c.claim_prov + e);
    std::sort(provs.begin(), provs.end());
    provs.erase(std::unique(provs.begin(), provs.end()), provs.end());
  };
  std::vector<double> presence(num_provs);  // ln(se / fp)
  std::vector<double> absence(num_provs);   // ln((1 - se) / (1 - fp))

  for (size_t round = 0; round < options.max_rounds; ++round) {
    // E-step: per-triple posterior. Claimants of t add the presence
    // ratio; the other provenances covering the item add the absence
    // ratio.
    for (size_t p = 0; p < num_provs; ++p) {
      presence[p] = std::log(se[p] / fp[p]);
      absence[p] = std::log((1.0 - se[p]) / (1.0 - fp[p]));
    }
    for (size_t s = 0; s < graph.num_shards(); ++s) {
      const ShardColumns c = graph.columns(s);
      for (size_t g = 0; g < c.num_items; ++g) {
        const uint32_t b = c.item_offsets[g];
        const uint32_t e = c.item_offsets[g + 1];
        covering(c, b, e);
        double absence_all = 0.0;
        for (uint32_t p : provs) absence_all += absence[p];
        for (uint32_t i = b; i < e;) {
          const kb::TripleId t = c.claim_triple[i];
          double pres = 0.0;
          double absence_of_claimants = 0.0;
          for (; i < e && c.claim_triple[i] == t; ++i) {
            pres += presence[c.claim_prov[i]];
            absence_of_claimants += absence[c.claim_prov[i]];
          }
          double logodds =
              prior_logodds + pres + (absence_all - absence_of_claimants);
          prob[t] = 1.0 / (1.0 + std::exp(-logodds));
        }
      }
    }
    // M-step: re-estimate sensitivity / false-positive rate per
    // provenance from expected counts over the items it covers.
    std::vector<double> claim_true(num_provs, 0.0);
    std::vector<double> claim_false(num_provs, 0.0);
    std::vector<double> cover_true(num_provs, 0.0);
    std::vector<double> cover_false(num_provs, 0.0);
    // A provenance covering item I is exposed to every claimed triple of
    // I; it claimed some subset of them.
    for (size_t s = 0; s < graph.num_shards(); ++s) {
      const ShardColumns c = graph.columns(s);
      for (size_t g = 0; g < c.num_items; ++g) {
        const uint32_t b = c.item_offsets[g];
        const uint32_t e = c.item_offsets[g + 1];
        double item_true_mass = 0.0;
        double item_false_mass = 0.0;
        for (uint32_t i = b; i < e; ++i) {
          const kb::TripleId t = c.claim_triple[i];
          if (i == b || t != c.claim_triple[i - 1]) {  // a run's first claim
            item_true_mass += prob[t];
            item_false_mass += 1.0 - prob[t];
          }
          claim_true[c.claim_prov[i]] += prob[t];
          claim_false[c.claim_prov[i]] += 1.0 - prob[t];
        }
        covering(c, b, e);
        for (uint32_t p : provs) {
          cover_true[p] += item_true_mass;
          cover_false[p] += item_false_mass;
        }
      }
    }
    for (size_t p = 0; p < num_provs; ++p) {
      if (graph.prov_claims()[p] < kMinClaims) continue;
      if (cover_true[p] > 1e-9) {
        se[p] = std::clamp(claim_true[p] / cover_true[p], 0.05, 0.95);
      }
      if (cover_false[p] > 1e-9) {
        fp[p] = std::clamp(claim_false[p] / cover_false[p], 0.01, 0.9);
      }
      // Keep the model identifiable: sensitivity must exceed the false
      // positive rate or the likelihood ratio inverts.
      if (se[p] <= fp[p] + 0.01) se[p] = std::min(0.95, fp[p] + 0.05);
    }
  }

  graph.ForEachClaim([&](kb::DataItemId, kb::TripleId t, uint32_t) {
    result.probability[t] = prob[t];
    result.has_probability[t] = 1;
  });
  result.num_rounds = options.max_rounds;
  return result;
}

}  // namespace kf::fusion
