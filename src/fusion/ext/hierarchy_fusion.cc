#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "fusion/ext/extensions.h"

namespace kf::fusion {

// Section 5.4: with hierarchical values, the triples (s, p, v) and
// (s, p, ancestor(v)) can both be true. POPACCU's single-truth
// probabilities split the mass between them; here the probability of a
// value is re-read as "the truth is v or any descendant of v", i.e. the
// sum of the item's probability mass at or below v.
FusionResult HierarchyAwareFuse(const extract::ExtractionDataset& dataset,
                                const FusionOptions& options,
                                const FuseContext& ctx) {
  KF_CHECK(ctx.hierarchy != nullptr);
  FusionOptions popaccu = options;
  popaccu.method = Method::kPopAccu;
  FusionResult base = Fuse(dataset, popaccu, ctx.gold);
  if (ctx.hierarchy->num_edges() == 0) return base;

  // Group predicted triples by item.
  std::vector<std::vector<kb::TripleId>> by_item(dataset.num_items());
  for (kb::TripleId t = 0; t < dataset.num_triples(); ++t) {
    if (base.has_probability[t]) by_item[dataset.triple(t).item].push_back(t);
  }

  FusionResult out = std::move(base);
  for (kb::DataItemId item = 0; item < dataset.num_items(); ++item) {
    const auto& triples = by_item[item];
    if (triples.size() < 2) continue;
    // Mass below each claimed value: add every claimed triple's mass to
    // all of its claimed ancestors within this item.
    std::unordered_map<kb::ValueId, double> mass;
    for (kb::TripleId t : triples) {
      mass.emplace(dataset.triple(t).object, 0.0);
    }
    if (mass.size() < 2) continue;
    std::vector<double> boosted(triples.size(), 0.0);
    for (size_t i = 0; i < triples.size(); ++i) {
      kb::TripleId t = triples[i];
      boosted[i] = out.probability[t];
      kb::ValueId v = dataset.triple(t).object;
      for (kb::TripleId u : triples) {
        if (u == t) continue;
        kb::ValueId w = dataset.triple(u).object;
        if (ctx.hierarchy->IsAncestorOf(v, w)) {
          // w is strictly below v: w true implies v true.
          boosted[i] += out.probability[u];
        }
      }
      if (boosted[i] > 1.0) boosted[i] = 1.0;
    }
    for (size_t i = 0; i < triples.size(); ++i) {
      out.probability[triples[i]] = boosted[i];
    }
  }
  return out;
}

}  // namespace kf::fusion
