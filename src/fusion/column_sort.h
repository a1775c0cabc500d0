// Stable permutation sorts of parallel columns by a key column — the one
// implementation of the sorted-group invariant's stability contract
// (claims of equal triples keep their prior order). Users:
// ClaimGraph::RebuildShard visits a shard's claims in stable triple order
// as it scatters them into item groups, and orders them by provenance for
// the local cross-index (both RadixSortPermutation: the keys are dense
// ids); ItemClaimsBuffer::SortByTriple sorts its two columns
// (StableSortPermutation, then ApplyPermutation).
#ifndef KF_FUSION_COLUMN_SORT_H_
#define KF_FUSION_COLUMN_SORT_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <type_traits>
#include <vector>

namespace kf::fusion {

/// Fills `perm` with the stable sorting permutation of keys[0..n):
/// applying it visits keys in nondecreasing order, equal keys in their
/// original order.
template <typename Key>
void StableSortPermutation(const Key* keys, size_t n,
                           std::vector<uint32_t>* perm) {
  perm->resize(n);
  std::iota(perm->begin(), perm->end(), 0u);
  std::stable_sort(perm->begin(), perm->end(),
                   [keys](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });
}

/// The permutation StableSortPermutation returns (a stable sorting
/// permutation is unique), for unsigned keys of at most 32 bits, by
/// least-significant-digit counting passes of 11 bits: one pass per digit
/// the largest key has, each O(n + 2048). For dense ids, where a
/// comparison sort pays log n per key.
template <typename Key>
void RadixSortPermutation(const Key* keys, size_t n,
                          std::vector<uint32_t>* perm) {
  static_assert(std::is_unsigned_v<Key> && sizeof(Key) <= sizeof(uint32_t),
                "keys are unsigned ids of at most 32 bits");
  constexpr unsigned kDigitBits = 11;
  constexpr uint32_t kDigitMask = (1u << kDigitBits) - 1;
  perm->resize(n);
  uint64_t max_key = 0;  // 64 bits: max_key >> 33 is defined
  for (size_t i = 0; i < n; ++i) max_key = std::max<uint64_t>(max_key, keys[i]);
  std::vector<uint32_t> counts(size_t{1} << kDigitBits);
  std::vector<uint32_t> other;
  const uint32_t* in = nullptr;  // nullptr: the identity, before pass 1
  uint32_t* out = perm->data();
  for (unsigned shift = 0; shift == 0 || (max_key >> shift) != 0;
       shift += kDigitBits) {
    auto digit = [&](uint32_t i) { return (keys[i] >> shift) & kDigitMask; };
    std::fill(counts.begin(), counts.end(), 0u);
    for (size_t i = 0; i < n; ++i) ++counts[digit(static_cast<uint32_t>(i))];
    uint32_t sum = 0;  // exclusive prefix sums: each digit's first slot
    for (uint32_t& c : counts) {
      const uint32_t width = c;
      c = sum;
      sum += width;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint32_t j = in == nullptr ? static_cast<uint32_t>(i) : in[i];
      out[counts[digit(j)]++] = j;
    }
    if (other.empty() && (max_key >> (shift + kDigitBits)) != 0) {
      other.resize(n);  // a second pass needs a second buffer
    }
    in = out;
    out = out == perm->data() ? other.data() : perm->data();
  }
  if (in != perm->data()) perm->swap(other);
}

/// Reorders col[0..perm.size()) in place as col[i] = old col[perm[i]],
/// staging the old values through `scratch`.
template <typename T>
void ApplyPermutation(const std::vector<uint32_t>& perm, T* col,
                      std::vector<T>* scratch) {
  scratch->assign(col, col + perm.size());
  for (size_t i = 0; i < perm.size(); ++i) col[i] = (*scratch)[perm[i]];
}

}  // namespace kf::fusion

#endif  // KF_FUSION_COLUMN_SORT_H_
