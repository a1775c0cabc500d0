#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "fusion/scorer.h"

namespace kf::fusion {

// ACCU vote count of a source with accuracy A: ln(N * A / (1 - A)), read
// from the view's per-provenance table (PrecomputeLogOdds below). The
// posterior of value v is exp(sum of vote counts of its claimants),
// normalized over the observed values plus the (N + 1 - |V|) unobserved
// candidates, each of which carries weight exp(0) = 1. Accuracies are
// clamped by the engine, so the log-odds stay finite.
//
// Run-length sweep over the sorted view: one pass accumulates each run's
// log-score directly into `out` (which doubles as the scratch for the
// max-exponent normalization), a second pass over the runs normalizes in
// place. Per-triple sums add the same claims in the same (stable) order
// as the historical hash-map version, so run scores are bit-identical;
// only the normalization's summation order (sorted vs hash order) moved.
void AccuScorer::Score(const ItemClaims& claims, TripleProbs* out) const {
  KF_CHECK(claims.sorted);  // O(1) flag read — enforced in release too
  KF_DCHECK(claims.prov_log_odds != nullptr);
  const size_t base = out->size();
  double max_score = 0.0;  // the unobserved candidates carry score 0
  for (size_t i = 0; i < claims.size();) {
    const kb::TripleId t = claims.triple[i];
    double s = 0.0;
    size_t j = i;
    for (; j < claims.size() && claims.triple[j] == t; ++j) {
      s += claims.prov_log_odds[claims.prov[j]];
    }
    out->emplace_back(t, s);
    max_score = std::max(max_score, s);
    i = j;
  }
  // Stabilize: normalize relative to the max exponent.
  const double distinct = static_cast<double>(out->size() - base);
  double unobserved = std::max(0.0, n_false_values_ + 1.0 - distinct);
  double total = unobserved * std::exp(-max_score);
  for (size_t k = base; k < out->size(); ++k) {
    total += std::exp((*out)[k].second - max_score);
  }
  for (size_t k = base; k < out->size(); ++k) {
    (*out)[k].second = std::exp((*out)[k].second - max_score) / total;
  }
}

bool AccuScorer::PrecomputeLogOdds(const std::vector<double>& accuracy,
                                   std::vector<double>* out) const {
  out->resize(accuracy.size());
  for (size_t p = 0; p < accuracy.size(); ++p) {
    const double a = accuracy[p];
    (*out)[p] = std::log(n_false_values_ * a / (1.0 - a));
  }
  return true;
}

}  // namespace kf::fusion
