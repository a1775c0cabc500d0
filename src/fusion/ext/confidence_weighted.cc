#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/logging.h"
#include "fusion/claim_graph.h"
#include "fusion/ext/extensions.h"

namespace kf::fusion {
namespace {

// Section 5.5's recalibration: per-extractor confidence buckets, and a
// weight floor so even low-confidence claims retain some vote.
constexpr int kCalibrationBuckets = 10;
constexpr double kMinWeight = 0.15;

/// The calibration bucket of a raw confidence in [0, 1].
size_t BucketOf(float conf) {
  return static_cast<size_t>(
      std::min(kCalibrationBuckets - 1,
               std::max(0, static_cast<int>(conf * kCalibrationBuckets))));
}

// Per-extractor recalibration table: maps a raw confidence bucket to the
// empirical accuracy of gold-labeled unique triples in that bucket. This
// is the principled fix for Fig. 21: extractors whose confidences are
// bimodal, inverted, or uninformative all become comparable.
struct Recalibration {
  std::vector<double> bucket_accuracy;  // size = kCalibrationBuckets
  double fallback = 0.5;                // extractor-wide accuracy

  double Map(float conf) const { return bucket_accuracy[BucketOf(conf)]; }
};

}  // namespace

FusionResult RunConfidenceWeighted(const extract::ExtractionDataset& dataset,
                                   const FusionOptions& options,
                                   const FuseContext& ctx) {
  KF_CHECK(ctx.gold != nullptr && ctx.gold->size() == dataset.num_triples());
  const std::vector<Label>& gold = *ctx.gold;
  const size_t n_ext = dataset.num_extractors();

  // ---- build recalibration tables ----
  // Unique (extractor, triple) max confidence.
  std::vector<std::unordered_map<kb::TripleId, float>> max_conf(n_ext);
  for (const extract::ExtractionRecord& r : dataset.records()) {
    if (!r.has_confidence) continue;
    auto [it, inserted] =
        max_conf[r.prov.extractor].emplace(r.triple, r.confidence);
    if (!inserted) it->second = std::max(it->second, r.confidence);
  }
  std::vector<Recalibration> recal(n_ext);
  for (size_t e = 0; e < n_ext; ++e) {
    std::vector<double> true_cnt(kCalibrationBuckets, 0.0);
    std::vector<double> total_cnt(kCalibrationBuckets, 0.0);
    double all_true = 0.0, all_total = 0.0;
    for (const auto& [t, conf] : max_conf[e]) {
      if (gold[t] == Label::kUnknown) continue;
      const size_t b = BucketOf(conf);
      total_cnt[b] += 1.0;
      all_total += 1.0;
      if (gold[t] == Label::kTrue) {
        true_cnt[b] += 1.0;
        all_true += 1.0;
      }
    }
    Recalibration& r = recal[e];
    r.fallback = all_total > 0.0 ? all_true / all_total : 0.5;
    r.bucket_accuracy.assign(kCalibrationBuckets, r.fallback);
    for (size_t b = 0; b < kCalibrationBuckets; ++b) {
      if (total_cnt[b] >= 10.0) {
        r.bucket_accuracy[b] = true_cnt[b] / total_cnt[b];
      }
    }
  }

  // ---- weighted POPACCU over the claim graph ----
  // Each claim carries a weight: the best recalibrated confidence among
  // its records (the extractor-wide accuracy for a record without one).
  // The graph's claim_confidence keeps only the max raw confidence, which
  // loses the extractor whenever one provenance spans extractors, so the
  // weights are keyed (dense prov id, triple) through record_provs().
  const ClaimGraph graph(dataset, options.granularity, options.num_shards,
                         options.num_workers);
  const size_t num_provs = graph.num_provs();
  auto pair_key = [](uint32_t prov, kb::TripleId triple) {
    return (static_cast<uint64_t>(prov) << 32) | static_cast<uint64_t>(triple);
  };
  std::unordered_map<uint64_t, double> pair_weight;
  for (size_t i = 0; i < dataset.num_records(); ++i) {
    const extract::ExtractionRecord& r = dataset.records()[i];
    double w = r.has_confidence
                   ? recal[r.prov.extractor].Map(r.confidence)
                   : recal[r.prov.extractor].fallback;
    auto [it, inserted] =
        pair_weight.emplace(pair_key(graph.record_provs()[i], r.triple), w);
    if (!inserted) it->second = std::max(it->second, w);
  }
  // Per shard, a weight column parallel to the claim columns.
  std::vector<std::vector<double>> weight(graph.num_shards());
  for (size_t s = 0; s < graph.num_shards(); ++s) {
    const ShardColumns c = graph.columns(s);
    weight[s].resize(c.num_claims);
    for (uint32_t i = 0; i < c.num_claims; ++i) {
      weight[s][i] = std::max(
          kMinWeight,
          pair_weight.at(pair_key(c.claim_prov[i], c.claim_triple[i])));
    }
  }

  FusionResult result;
  result.probability.assign(dataset.num_triples(), 0.0);
  result.has_probability.assign(dataset.num_triples(), 0);
  result.from_fallback.assign(dataset.num_triples(), 0);
  result.num_provenances = num_provs;

  // Iterative weighted fusion: provenance accuracy = weighted mean triple
  // probability; triple score = sum of weighted log-odds (POPACCU-style
  // popularity correction), one run-length sweep per item group.
  std::vector<double> accuracy(num_provs, options.default_accuracy);
  std::vector<double> log_odds(num_provs);
  TripleProbs scores;
  const size_t rounds = std::max<size_t>(1, options.max_rounds);
  for (size_t round = 0; round < rounds; ++round) {
    for (size_t p = 0; p < num_provs; ++p) {
      const double a = std::clamp(accuracy[p], 0.01, 0.99);
      log_odds[p] = std::log(a / (1.0 - a));
    }
    for (size_t s = 0; s < graph.num_shards(); ++s) {
      const ShardColumns c = graph.columns(s);
      const double* w = weight[s].data();
      for (size_t g = 0; g < c.num_items; ++g) {
        const uint32_t b = c.item_offsets[g];
        const uint32_t e = c.item_offsets[g + 1];
        double n = 0.0;
        for (uint32_t i = b; i < e; ++i) n += w[i];
        scores.clear();
        double max_score = 0.0;
        for (uint32_t i = b; i < e;) {
          const kb::TripleId t = c.claim_triple[i];
          double lo = 0.0;
          double count = 0.0;
          for (; i < e && c.claim_triple[i] == t; ++i) {
            lo += w[i] * log_odds[c.claim_prov[i]];
            count += w[i];
          }
          double score = lo - count * std::log(count / n);
          if (n - count > 1e-12) {
            score += (n - count) * std::log(n / (n - count));
          }
          scores.emplace_back(t, score);
          max_score = std::max(max_score, score);
        }
        double total = std::exp(-max_score);
        for (const auto& [t, score] : scores) {
          total += std::exp(score - max_score);
        }
        for (const auto& [t, score] : scores) {
          result.probability[t] = std::exp(score - max_score) / total;
          result.has_probability[t] = 1;
        }
      }
    }
    // Re-evaluate provenance accuracies (weighted).
    std::vector<double> acc_sum(num_provs, 0.0);
    std::vector<double> acc_w(num_provs, 0.0);
    for (size_t s = 0; s < graph.num_shards(); ++s) {
      const ShardColumns c = graph.columns(s);
      for (uint32_t i = 0; i < c.num_claims; ++i) {
        const uint32_t p = c.claim_prov[i];
        acc_sum[p] += weight[s][i] * result.probability[c.claim_triple[i]];
        acc_w[p] += weight[s][i];
      }
    }
    for (size_t p = 0; p < num_provs; ++p) {
      if (acc_w[p] > 0.0) {
        accuracy[p] = std::clamp(acc_sum[p] / acc_w[p], 0.01, 0.99);
      }
    }
  }
  result.num_rounds = rounds;
  return result;
}

}  // namespace kf::fusion
