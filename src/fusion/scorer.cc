#include "fusion/scorer.h"

#include "fusion/column_sort.h"

namespace kf::fusion {

void ItemClaimsBuffer::SortByTriple() {
  if (sorted_) return;
  std::vector<uint32_t> perm;
  StableSortPermutation(triple_.data(), triple_.size(), &perm);
  std::vector<kb::TripleId> triple_scratch;
  std::vector<uint32_t> prov_scratch;
  ApplyPermutation(perm, triple_.data(), &triple_scratch);
  ApplyPermutation(perm, prov_.data(), &prov_scratch);
  sorted_ = true;
}

}  // namespace kf::fusion
