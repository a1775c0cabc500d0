#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "fusion/scorer.h"

namespace kf::fusion {

// POPACCU replaces ACCU's "N uniformly distributed false values" with the
// empirical popularity of the observed values (Section 4.1; Dong et al.,
// "Less is more", PVLDB 2013).
//
// Derivation of the implemented score. For candidate truth v, under source
// independence:
//   L(v) = prod_{claims of v} A_S * prod_{claims of u != v} (1-A_S) rho_v(u)
// where rho_v(u) = c(u) / (n - c(v)) is the popularity of u among the
// claims that are false when v is true (c(x) = #claims of x, n = total).
// Dividing by the all-false baseline prod_S (1-A_S) rho_0(u_S), with
// rho_0(u) = c(u)/n, gives the log-score
//   s(v) = sum_{S in S(v)} ln(A_S / (1-A_S))            (accuracy votes)
//          - c(v) ln(c(v)/n)                            (v is not "false-popular")
//          + (n - c(v)) ln(n / (n - c(v)))              (renormalized rivals)
// The "some unobserved value is true" candidate is the baseline itself and
// carries score 0; probabilities are exp(s) normalized over observed
// candidates plus the baseline. This reproduces the paper's diagnostic
// artifacts exactly: a singleton provenance with default accuracy 0.8
// yields p = 0.8, and two conflicting singletons yield p ~ 0.5 (the Fig. 9
// calibration valleys).
//
// Run-length sweep over the sorted view: a run IS a candidate value — its
// length is c(v) and its accuracy log-odds, read from the view's
// per-provenance table (PrecomputeLogOdds below), accumulate in claim
// order, so no count/logodds hash maps are needed. `out` doubles as the
// scratch for the max-exponent normalization, exactly as in accu.cc.
void PopAccuScorer::Score(const ItemClaims& claims, TripleProbs* out) const {
  KF_CHECK(claims.sorted);  // O(1) flag read — enforced in release too
  KF_DCHECK(claims.prov_log_odds != nullptr);
  const size_t base = out->size();
  const double n = static_cast<double>(claims.size());
  double max_score = 0.0;  // baseline candidate has score 0
  for (size_t i = 0; i < claims.size();) {
    const kb::TripleId t = claims.triple[i];
    double lo = 0.0;
    size_t j = i;
    for (; j < claims.size() && claims.triple[j] == t; ++j) {
      lo += claims.prov_log_odds[claims.prov[j]];
    }
    const double c = static_cast<double>(j - i);
    double s = lo - c * std::log(c / n);
    if (n - c > 0.0) s += (n - c) * std::log(n / (n - c));
    out->emplace_back(t, s);
    max_score = std::max(max_score, s);
    i = j;
  }
  double total = std::exp(-max_score);  // the unobserved baseline
  for (size_t k = base; k < out->size(); ++k) {
    total += std::exp((*out)[k].second - max_score);
  }
  for (size_t k = base; k < out->size(); ++k) {
    (*out)[k].second = std::exp((*out)[k].second - max_score) / total;
  }
}

bool PopAccuScorer::PrecomputeLogOdds(const std::vector<double>& accuracy,
                                      std::vector<double>* out) const {
  out->resize(accuracy.size());
  for (size_t p = 0; p < accuracy.size(); ++p) {
    const double a = accuracy[p];
    (*out)[p] = std::log(a / (1.0 - a));
  }
  return true;
}

}  // namespace kf::fusion
