// Reservoir sampling (algorithm R). Section 4.1: "we sample L triples each
// time instead of using all triples for Bayesian analysis or source accuracy
// evaluation" to bound reducer memory on skewed groups.
#ifndef KF_FUSION_RESERVOIR_H_
#define KF_FUSION_RESERVOIR_H_

#include <cstddef>
#include <vector>

#include "common/random.h"

namespace kf::fusion {

/// Downsamples `items` in place to at most `cap` elements, each retained
/// with equal probability. Keeps input order of the survivors stable only
/// in the no-op case (size <= cap); otherwise order follows the reservoir.
template <typename T>
void ReservoirSample(std::vector<T>* items, size_t cap, kf::Rng* rng) {
  if (items->size() <= cap) return;
  std::vector<T> reservoir(items->begin(), items->begin() + cap);
  for (size_t i = cap; i < items->size(); ++i) {
    size_t j = static_cast<size_t>(rng->NextBelow(i + 1));
    if (j < cap) reservoir[j] = (*items)[i];
  }
  *items = std::move(reservoir);
}

}  // namespace kf::fusion

#endif  // KF_FUSION_RESERVOIR_H_
