#include "common/logging.h"
#include "fusion/scorer.h"

namespace kf::fusion {

// Run-length sweep over the sorted view: each contiguous run of one
// triple is its vote count. O(claims), no hash map, no allocation. Only
// the triple column is read, so VOTE takes a null log-odds table.
void VoteScorer::Score(const ItemClaims& claims, TripleProbs* out) const {
  KF_CHECK(claims.sorted);  // O(1) flag read — enforced in release too
  const double n = static_cast<double>(claims.size());
  for (size_t i = 0; i < claims.size();) {
    const kb::TripleId t = claims.triple[i];
    size_t j = i + 1;
    while (j < claims.size() && claims.triple[j] == t) ++j;
    out->emplace_back(t, static_cast<double>(j - i) / n);
    i = j;
  }
}

}  // namespace kf::fusion
