// Per-data-item truth scoring. Stage I of the engine sweeps the claim
// graph's shards (fusion/claim_graph.h), hands each item group to a Scorer
// as a (triple, provenance) span plus the round's per-provenance log-odds
// table, and scatters the resulting probabilities into dense per-triple
// arrays. Because the view is non-owning, the same scorer code runs
// unchanged over a shard's columns or an assembled scratch buffer
// (filtered/sampled groups, tests). All three scorers share the
// single-truth assumption of Section 4.1: probabilities of the triples of
// one data item sum to at most 1, with the remainder assigned to "some
// unobserved value".
//
// Scoring is run-length based: Score() requires a triple-sorted view
// (ItemClaims::sorted) and performs one linear sweep over the contiguous
// runs of equal triples — O(claims), no per-item hash maps, zero
// steady-state allocations. Views assembled from claim-graph shards are
// born sorted (the Shard sorted-group invariant); hand-built buffers track
// their own sortedness and can re-establish it with SortByTriple().
#ifndef KF_FUSION_SCORER_H_
#define KF_FUSION_SCORER_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "kb/ids.h"

namespace kf::fusion {

/// One data item's claims after filtering and sampling, as a non-owning
/// columnar view: claim i says triple[i] on behalf of provenance prov[i].
/// A (provenance, triple) pair appears at most once.
///
/// `sorted` is the run-length guarantee: claims are in nondecreasing
/// TripleId order, so equal triples form contiguous runs. Scorer::Score
/// requires it; views over claim-graph shards carry it for free.
///
/// `prov_log_odds` is the per-provenance table Scorer::PrecomputeLogOdds
/// fills once per Stage I round (accuracies are frozen during a sweep):
/// claim i's log-odds term is prov_log_odds[prov[i]], so the inner loop
/// reads a table instead of paying a std::log per claim. ACCU and POPACCU
/// require it; VOTE reads only `triple` and takes a null table. The same
/// view form serves the engine's zero-copy spans straight into a shard's
/// columns, its filtered ItemClaimsBuffer copies, and hand-built groups.
struct ItemClaims {
  const kb::TripleId* triple = nullptr;
  const uint32_t* prov = nullptr;
  const double* prov_log_odds = nullptr;
  size_t count = 0;
  bool sorted = false;

  size_t size() const { return count; }
};

/// Owning (triple, provenance) copy of an item group — the claims that
/// survive Stage I's filters and sampling — reused across items by the
/// shard sweep so steady-state scoring allocates nothing. Tracks whether
/// the pushes arrived in triple order: filtered copies out of a sorted
/// shard group stay sorted for free; reservoir samples and hand-built
/// buffers re-establish the order with SortByTriple() before scoring.
/// The columns are private so nothing can mutate them behind the
/// tracking's back.
class ItemClaimsBuffer {
 public:
  void clear() {
    triple_.clear();
    prov_.clear();
    sorted_ = true;
  }
  void push(kb::TripleId t, uint32_t prov) {
    if (!triple_.empty() && triple_.back() > t) sorted_ = false;
    triple_.push_back(t);
    prov_.push_back(prov);
  }
  size_t size() const { return triple_.size(); }
  const std::vector<kb::TripleId>& triples() const { return triple_; }
  const std::vector<uint32_t>& provs() const { return prov_; }
  /// Whether the pushes so far arrived in nondecreasing triple order.
  bool sorted() const { return sorted_; }
  /// Stable-sorts the claims by triple (no-op when already sorted):
  /// equal triples keep their relative push order.
  void SortByTriple();
  /// The buffer as a scorer input over `prov_log_odds` (null for VOTE).
  ItemClaims view(const double* prov_log_odds = nullptr) const {
    ItemClaims v;
    v.triple = triple_.data();
    v.prov = prov_.data();
    v.prov_log_odds = prov_log_odds;
    v.count = size();
    v.sorted = sorted_;
    return v;
  }

 private:
  std::vector<kb::TripleId> triple_;
  std::vector<uint32_t> prov_;
  bool sorted_ = true;
};

/// Output: (triple, probability) for each distinct triple in the group.
using TripleProbs = std::vector<std::pair<kb::TripleId, double>>;

class Scorer {
 public:
  virtual ~Scorer() = default;

  /// Computes probabilities for every distinct triple in `claims`.
  /// `claims` is non-empty and MUST be triple-sorted (claims.sorted;
  /// KF_CHECKed — the flag read is O(1), so the guard stays on in
  /// release builds). Appends to `out` one entry per distinct triple, in
  /// ascending triple order — one linear sweep over the sorted runs, no
  /// allocations beyond `out` growth.
  virtual void Score(const ItemClaims& claims, TripleProbs* out) const = 0;

  /// Fills out[p] with the scorer's per-claim additive log-odds term for
  /// a provenance of accuracy `accuracy[p]` and returns true, or returns
  /// false when the scorer has no such term (VOTE). The engine calls this
  /// once per Stage I round — accuracies are frozen during a sweep — and
  /// hands the table back through ItemClaims::prov_log_odds, so the inner
  /// loop reads a table instead of paying a std::log per claim.
  virtual bool PrecomputeLogOdds(const std::vector<double>& accuracy,
                                 std::vector<double>* out) const {
    (void)accuracy;
    (void)out;
    return false;
  }
};

/// VOTE (Section 4.1): p(T) = m/n where the data item has n claims and m of
/// them support T.
class VoteScorer : public Scorer {
 public:
  void Score(const ItemClaims& claims, TripleProbs* out) const override;
};

/// ACCU (Dong et al., PVLDB 2009, as adapted in Section 4.1): Bayesian
/// analysis under (1) single truth, (2) N uniformly distributed false
/// values, (3) independent sources.
class AccuScorer : public Scorer {
 public:
  explicit AccuScorer(double n_false_values)
      : n_false_values_(n_false_values) {}

  void Score(const ItemClaims& claims, TripleProbs* out) const override;
  /// ln(N * a / (1 - a)) per provenance.
  bool PrecomputeLogOdds(const std::vector<double>& accuracy,
                         std::vector<double>* out) const override;

 private:
  double n_false_values_;
};

/// POPACCU (Dong et al., PVLDB 2013): like ACCU but the false-value
/// distribution is the empirical popularity of the observed values, making
/// the method robust to copied false values.
class PopAccuScorer : public Scorer {
 public:
  void Score(const ItemClaims& claims, TripleProbs* out) const override;
  /// ln(a / (1 - a)) per provenance.
  bool PrecomputeLogOdds(const std::vector<double>& accuracy,
                         std::vector<double>* out) const override;
};

}  // namespace kf::fusion

#endif  // KF_FUSION_SCORER_H_
