#include "fusion/reservoir.h"

#include <gtest/gtest.h>

#include <numeric>

namespace kf::fusion {
namespace {

TEST(ReservoirTest, NoOpWhenUnderCap) {
  std::vector<int> items = {1, 2, 3};
  Rng rng(1);
  ReservoirSample(&items, 5, &rng);
  EXPECT_EQ(items, (std::vector<int>{1, 2, 3}));
}

TEST(ReservoirTest, ExactCapUnchanged) {
  std::vector<int> items = {1, 2, 3};
  Rng rng(1);
  ReservoirSample(&items, 3, &rng);
  EXPECT_EQ(items.size(), 3u);
}

TEST(ReservoirTest, DownsamplesToCap) {
  std::vector<int> items(1000);
  std::iota(items.begin(), items.end(), 0);
  Rng rng(2);
  ReservoirSample(&items, 100, &rng);
  EXPECT_EQ(items.size(), 100u);
  // Survivors are distinct original elements.
  std::sort(items.begin(), items.end());
  EXPECT_EQ(std::unique(items.begin(), items.end()), items.end());
  for (int x : items) {
    EXPECT_GE(x, 0);
    EXPECT_LT(x, 1000);
  }
}

TEST(ReservoirTest, Deterministic) {
  std::vector<int> a(500), b(500);
  std::iota(a.begin(), a.end(), 0);
  std::iota(b.begin(), b.end(), 0);
  Rng ra(7), rb(7);
  ReservoirSample(&a, 50, &ra);
  ReservoirSample(&b, 50, &rb);
  EXPECT_EQ(a, b);
}

TEST(ReservoirTest, ApproximatelyUniform) {
  // Each element should survive with probability cap/n.
  const int n = 200, cap = 50, trials = 2000;
  std::vector<int> hits(n, 0);
  for (int t = 0; t < trials; ++t) {
    std::vector<int> items(n);
    std::iota(items.begin(), items.end(), 0);
    Rng rng(1000 + t);
    ReservoirSample(&items, cap, &rng);
    for (int x : items) ++hits[x];
  }
  double expected = static_cast<double>(cap) / n * trials;  // 500
  for (int h : hits) EXPECT_NEAR(h, expected, expected * 0.25);
}

}  // namespace
}  // namespace kf::fusion
