#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "fusion/ext/extensions.h"
#include "fusion/partitioner.h"

namespace kf::fusion {

// Section 5.1's two-factor model starts every extractor at this precision.
constexpr double kInitExtractorPrecision = 0.5;

// Section 5.1: instead of crossing extractor and URL into one opaque
// pseudo-source, estimate them separately.
//
//   w(u, t)  = 1 - prod_{e reported (u,t)} (1 - q_e)
//              -- probability the page *really* claims t
//   score(t) = POPACCU-style log-odds over URLs u with accuracy a_u,
//              each contribution scaled by w(u, t)
//   q_e      = mean probability of the triples e extracted
//   a_u      = mean probability of the triples claimed on u, weighted by w
//
// The effect the paper calls for: a triple reported by one low-precision
// extractor on 1000 pages receives little belief, while the same support
// confirmed by 8 extractors receives much more (Fig. 18).
FusionResult RunSourceExtractor(const extract::ExtractionDataset& dataset,
                                const FusionOptions& options,
                                const FuseContext&) {
  const size_t n_ext = dataset.num_extractors();

  // Deduplicated (url, triple) pairs, and each pair's distinct extractor
  // ids in ascending order (a CSR into claim_ext): extractor ids are
  // interned strings, so their count is unbounded.
  struct UrlClaim {
    kb::TripleId triple;
    kb::DataItemId item;
    extract::UrlId url;
  };
  std::vector<UrlClaim> claims;
  std::vector<uint64_t> claim_ext_pairs;  // (claim << 32) | extractor
  claim_ext_pairs.reserve(dataset.num_records());
  {
    std::unordered_map<uint64_t, uint32_t> index;
    for (const extract::ExtractionRecord& r : dataset.records()) {
      uint64_t key = (static_cast<uint64_t>(r.prov.url) << 32) |
                     static_cast<uint64_t>(r.triple);
      auto [it, inserted] =
          index.emplace(key, static_cast<uint32_t>(claims.size()));
      if (inserted) {
        claims.push_back(
            UrlClaim{r.triple, dataset.triple(r.triple).item, r.prov.url});
      }
      claim_ext_pairs.push_back((static_cast<uint64_t>(it->second) << 32) |
                                r.prov.extractor);
    }
  }
  std::sort(claim_ext_pairs.begin(), claim_ext_pairs.end());
  claim_ext_pairs.erase(
      std::unique(claim_ext_pairs.begin(), claim_ext_pairs.end()),
      claim_ext_pairs.end());
  std::vector<uint32_t> ext_counts(claims.size(), 0);
  std::vector<uint32_t> claim_ext(claim_ext_pairs.size());
  for (size_t k = 0; k < claim_ext_pairs.size(); ++k) {
    ++ext_counts[claim_ext_pairs[k] >> 32];
    claim_ext[k] = static_cast<uint32_t>(claim_ext_pairs[k]);
  }
  const std::vector<uint32_t> ext_offsets = CsrOffsets(ext_counts);

  FusionResult result;
  result.probability.assign(dataset.num_triples(), 0.0);
  result.has_probability.assign(dataset.num_triples(), 0);
  result.from_fallback.assign(dataset.num_triples(), 0);

  std::vector<double> q(n_ext, kInitExtractorPrecision);
  std::vector<double> prob(dataset.num_triples(), 0.3);
  std::unordered_map<extract::UrlId, double> url_accuracy;

  std::vector<std::vector<uint32_t>> by_item(dataset.num_items());
  for (uint32_t i = 0; i < claims.size(); ++i) {
    by_item[claims[i].item].push_back(i);
  }

  // Multiplies in ascending extractor order, whatever the record order.
  auto claim_weight = [&](uint32_t ci) {
    double miss = 1.0;
    for (uint32_t k = ext_offsets[ci]; k < ext_offsets[ci + 1]; ++k) {
      miss *= 1.0 - q[claim_ext[k]];
    }
    return 1.0 - miss;
  };
  auto url_acc = [&](extract::UrlId u) {
    auto it = url_accuracy.find(u);
    return it == url_accuracy.end() ? options.default_accuracy
                                    : it->second;
  };

  for (size_t round = 0; round < options.max_rounds; ++round) {
    // ---- per-item truth inference over URL claims ----
    for (kb::DataItemId item = 0; item < dataset.num_items(); ++item) {
      const auto& cl = by_item[item];
      if (cl.empty()) continue;
      std::unordered_map<kb::TripleId, double> logodds;
      std::unordered_map<kb::TripleId, double> count;
      double n = 0.0;
      for (uint32_t ci : cl) {
        const UrlClaim& c = claims[ci];
        double w = claim_weight(ci);
        double a = std::clamp(url_acc(c.url), options.accuracy_floor,
                              options.accuracy_ceiling);
        logodds[c.triple] += w * std::log(a / (1.0 - a));
        count[c.triple] += w;
        n += w;
      }
      if (n <= 1e-12) continue;
      std::unordered_map<kb::TripleId, double> score;
      double max_score = 0.0;
      for (const auto& [t, lo] : logodds) {
        double c = count[t];
        double s = lo;
        if (c > 1e-12) s -= c * std::log(c / n);
        if (n - c > 1e-12) s += (n - c) * std::log(n / (n - c));
        score[t] = s;
        max_score = std::max(max_score, s);
      }
      double total = std::exp(-max_score);
      for (const auto& [t, s] : score) total += std::exp(s - max_score);
      for (const auto& [t, s] : score) {
        prob[t] = std::exp(s - max_score) / total;
        result.has_probability[t] = 1;
      }
    }

    // ---- re-estimate extractor precision ----
    // q_e: over unique triples e extracted, the mean probability. This
    // conflates extraction precision with source truthfulness, so rescale
    // by the current mean URL accuracy to isolate the extractor's share.
    std::vector<double> q_sum(n_ext, 0.0);
    std::vector<double> q_cnt(n_ext, 0.0);
    for (uint32_t ci = 0; ci < claims.size(); ++ci) {
      for (uint32_t k = ext_offsets[ci]; k < ext_offsets[ci + 1]; ++k) {
        q_sum[claim_ext[k]] += prob[claims[ci].triple];
        q_cnt[claim_ext[k]] += 1.0;
      }
    }
    double mean_url_acc = 0.0;
    {
      double s = 0.0, n2 = 0.0;
      for (const UrlClaim& c : claims) {
        s += url_acc(c.url);
        n2 += 1.0;
      }
      mean_url_acc = n2 > 0.0 ? s / n2 : options.default_accuracy;
    }
    for (size_t e = 0; e < n_ext; ++e) {
      if (q_cnt[e] < 5.0) continue;
      double raw = q_sum[e] / q_cnt[e];
      q[e] = std::clamp(raw / std::max(0.05, mean_url_acc), 0.02, 0.98);
    }

    // ---- re-estimate URL accuracy (weighted by claim reality) ----
    std::unordered_map<extract::UrlId, std::pair<double, double>> agg;
    for (uint32_t ci = 0; ci < claims.size(); ++ci) {
      const UrlClaim& c = claims[ci];
      double w = claim_weight(ci);
      auto& [sum, wsum] = agg[c.url];
      sum += w * prob[c.triple];
      wsum += w;
    }
    url_accuracy.clear();
    for (const auto& [u, sw] : agg) {
      if (sw.second > 1e-9) {
        url_accuracy[u] = std::clamp(sw.first / sw.second,
                                     options.accuracy_floor,
                                     options.accuracy_ceiling);
      }
    }
  }

  for (kb::TripleId t = 0; t < dataset.num_triples(); ++t) {
    if (result.has_probability[t]) result.probability[t] = prob[t];
  }
  result.num_rounds = options.max_rounds;
  // The provenances are the URLs and extractors the records use; the
  // dataset's extractor id space also holds TSV pattern strings.
  auto count_distinct = [](std::vector<uint32_t> ids) {
    std::sort(ids.begin(), ids.end());
    return static_cast<size_t>(std::unique(ids.begin(), ids.end()) -
                               ids.begin());
  };
  std::vector<uint32_t> urls;
  urls.reserve(claims.size());
  for (const UrlClaim& c : claims) urls.push_back(c.url);
  result.num_provenances =
      count_distinct(std::move(urls)) + count_distinct(claim_ext);
  return result;
}

}  // namespace kf::fusion
