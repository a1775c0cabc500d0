#include "fusion/partitioner.h"

#include <gtest/gtest.h>

namespace kf::fusion {
namespace {

TEST(PartitionerTest, AssignmentInRangeAndStable) {
  Partitioner p(7);
  EXPECT_EQ(p.num_shards(), 7u);
  for (uint64_t key = 0; key < 1000; ++key) {
    size_t s = p.ShardOf(key);
    EXPECT_LT(s, 7u);
    EXPECT_EQ(s, p.ShardOf(key));  // pure function of the key
  }
}

TEST(PartitionerTest, SpreadsSequentialKeys) {
  // Dense sequential ids (the common DataItemId case) must not pile into a
  // few shards; Mix64 avalanches them first.
  Partitioner p(16);
  std::vector<size_t> counts(16, 0);
  for (uint64_t key = 0; key < 16000; ++key) ++counts[p.ShardOf(key)];
  for (size_t c : counts) {
    EXPECT_GT(c, 500u);
    EXPECT_LT(c, 1500u);
  }
}

TEST(PartitionerTest, SingleShardTakesEverything) {
  Partitioner p(1);
  for (uint64_t key = 0; key < 100; ++key) EXPECT_EQ(p.ShardOf(key), 0u);
}

TEST(CsrOffsetsTest, PrefixSums) {
  std::vector<uint32_t> offsets = CsrOffsets({3, 0, 2, 1});
  ASSERT_EQ(offsets.size(), 5u);
  EXPECT_EQ(offsets[0], 0u);
  EXPECT_EQ(offsets[1], 3u);
  EXPECT_EQ(offsets[2], 3u);
  EXPECT_EQ(offsets[3], 5u);
  EXPECT_EQ(offsets[4], 6u);
}

TEST(CsrOffsetsTest, Empty) {
  std::vector<uint32_t> offsets = CsrOffsets({});
  ASSERT_EQ(offsets.size(), 1u);
  EXPECT_EQ(offsets[0], 0u);
}

TEST(SuggestShardsTest, Clamped) {
  EXPECT_EQ(SuggestShards(0), 16u);
  EXPECT_EQ(SuggestShards(1 << 20), (1u << 20) / 4096);
  EXPECT_EQ(SuggestShards(100000000), 1024u);
}

}  // namespace
}  // namespace kf::fusion
