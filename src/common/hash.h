// Small hashing utilities used for interning and shard partitioning.
#ifndef KF_COMMON_HASH_H_
#define KF_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace kf {

/// 64-bit finalizer from SplitMix64; good avalanche for integer keys.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-dependent combination of two 64-bit hashes.
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return Mix64(seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                       (seed >> 2)));
}

/// FNV-1a over bytes; used for strings.
inline uint64_t HashBytes(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

}  // namespace kf

#endif  // KF_COMMON_HASH_H_
