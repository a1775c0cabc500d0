#include "fusion/scorer.h"

#include <gtest/gtest.h>

#include "common/random.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

namespace kf::fusion {
namespace {

// A hand-built item group: each claim gets its own provenance id, and
// the scorer's log-odds table is built from those provenances' accuracies
// with PrecomputeLogOdds — the form Stage I hands every scorer.
struct Group {
  ItemClaimsBuffer claims;
  std::vector<double> accuracy;  // by provenance id

  void push(kb::TripleId t, double a) {
    claims.push(t, static_cast<uint32_t>(accuracy.size()));
    accuracy.push_back(a);
  }
};

TripleProbs ScoreGroup(const Scorer& scorer, const Group& group) {
  std::vector<double> table;  // stays empty for VOTE
  scorer.PrecomputeLogOdds(group.accuracy, &table);
  TripleProbs out;
  scorer.Score(group.claims.view(table.empty() ? nullptr : table.data()),
               &out);
  return out;
}

std::map<kb::TripleId, double> Score(const Scorer& scorer,
                                     const Group& group) {
  std::map<kb::TripleId, double> result;
  for (const auto& [t, p] : ScoreGroup(scorer, group)) result[t] = p;
  return result;
}

Group Claims(std::vector<kb::TripleId> triples,
             std::vector<double> accuracies) {
  Group g;
  for (size_t i = 0; i < triples.size(); ++i) g.push(triples[i], accuracies[i]);
  g.claims.SortByTriple();  // scorers require the sorted view
  return g;
}

// ---- VOTE ----

TEST(VoteTest, ProbabilityIsSupportFraction) {
  VoteScorer vote;
  auto probs = Score(vote, Claims({1, 1, 1, 2}, {.8, .8, .8, .8}));
  EXPECT_DOUBLE_EQ(probs[1], 0.75);
  EXPECT_DOUBLE_EQ(probs[2], 0.25);
}

TEST(VoteTest, SingletonGetsOne) {
  VoteScorer vote;
  auto probs = Score(vote, Claims({5}, {.8}));
  EXPECT_DOUBLE_EQ(probs[5], 1.0);  // the paper's VOTE pathology
}

TEST(VoteTest, IgnoresAccuracies) {
  VoteScorer vote;
  auto a = Score(vote, Claims({1, 2}, {.9, .1}));
  EXPECT_DOUBLE_EQ(a[1], 0.5);
  EXPECT_DOUBLE_EQ(a[2], 0.5);
}

// ---- ACCU ----

TEST(AccuTest, AgreementBeatsLoneVoice) {
  AccuScorer accu(100);
  auto probs = Score(accu, Claims({1, 1, 2}, {.8, .8, .8}));
  EXPECT_GT(probs[1], probs[2]);
  EXPECT_GT(probs[1], 0.8);
}

TEST(AccuTest, ProbabilitiesSumBelowOne) {
  // The remaining mass goes to the N unobserved false values.
  AccuScorer accu(100);
  auto probs = Score(accu, Claims({1, 2}, {.6, .6}));
  double sum = probs[1] + probs[2];
  EXPECT_LT(sum, 1.0);
  EXPECT_GT(sum, 0.5);
}

TEST(AccuTest, HigherAccuracySourceWins) {
  AccuScorer accu(100);
  auto probs = Score(accu, Claims({1, 2}, {.95, .55}));
  EXPECT_GT(probs[1], probs[2]);
}

TEST(AccuTest, SingletonWithDefaultAccuracy) {
  // One claim at accuracy 0.8 with N=100: vote weight 100*.8/.2 = 400;
  // P = 400 / (400 + 100) = 0.8.
  AccuScorer accu(100);
  auto probs = Score(accu, Claims({1}, {.8}));
  EXPECT_NEAR(probs[1], 0.8, 1e-9);
}

TEST(AccuTest, ManyAgreeingSourcesSaturate) {
  AccuScorer accu(100);
  auto probs = Score(
      accu, Claims({1, 1, 1, 1, 1, 1}, {.8, .8, .8, .8, .8, .8}));
  EXPECT_GT(probs[1], 0.999);
}

// ---- POPACCU ----

TEST(PopAccuTest, SingletonReproducesDefaultAccuracy) {
  // The Fig. 9 valley at 0.8: a lone provenance with default accuracy 0.8
  // yields p = 0.8 exactly.
  PopAccuScorer pop;
  auto probs = Score(pop, Claims({1}, {.8}));
  EXPECT_NEAR(probs[1], 0.8, 1e-9);
}

TEST(PopAccuTest, TwoConflictingSingletonsNearHalf) {
  // The Fig. 9 valley at ~0.5.
  PopAccuScorer pop;
  auto probs = Score(pop, Claims({1, 2}, {.8, .8}));
  EXPECT_NEAR(probs[1], probs[2], 1e-12);
  EXPECT_NEAR(probs[1], 0.485, 0.02);
}

TEST(PopAccuTest, PopularFalseValueDiscounted) {
  // 5 sources say A, 5 say B; but the A-sayers are accurate while the
  // B-sayers are poor: A must win decisively.
  PopAccuScorer pop;
  auto probs = Score(pop, Claims({1, 1, 1, 1, 1, 2, 2, 2, 2, 2},
                                 {.9, .9, .9, .9, .9, .3, .3, .3, .3, .3}));
  EXPECT_GT(probs[1], 0.95);
  EXPECT_LT(probs[2], 0.05);
}

TEST(PopAccuTest, AgreementIncreasesConfidence) {
  PopAccuScorer pop;
  auto one = Score(pop, Claims({1}, {.8}));
  auto two = Score(pop, Claims({1, 1}, {.8, .8}));
  auto three = Score(pop, Claims({1, 1, 1}, {.8, .8, .8}));
  EXPECT_GT(two[1], one[1]);
  EXPECT_GT(three[1], two[1]);
}

TEST(PopAccuTest, ProbabilitiesWithinUnitInterval) {
  PopAccuScorer pop;
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    size_t n = 1 + rng.NextBelow(20);
    Group group;
    for (size_t i = 0; i < n; ++i) {
      group.push(static_cast<kb::TripleId>(rng.NextBelow(5)),
                 rng.Uniform(0.01, 0.99));
    }
    group.claims.SortByTriple();
    double sum = 0.0;
    for (const auto& [t, p] : ScoreGroup(pop, group)) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
      sum += p;
    }
    EXPECT_LE(sum, 1.0 + 1e-9);  // single-truth assumption
  }
}

// Property sweep: all three scorers must be monotone in support.
class ScorerMonotonicity
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(ScorerMonotonicity, MoreSupportNeverLowersProbability) {
  auto [scorer_id, accuracy] = GetParam();
  std::unique_ptr<Scorer> scorer;
  switch (scorer_id) {
    case 0: scorer = std::make_unique<VoteScorer>(); break;
    case 1: scorer = std::make_unique<AccuScorer>(100); break;
    default: scorer = std::make_unique<PopAccuScorer>(); break;
  }
  // Fixed rival with 2 claims; grow support for triple 1.
  double prev = -1.0;
  for (int m = 1; m <= 8; ++m) {
    Group group;
    for (int i = 0; i < m; ++i) group.push(1, accuracy);
    group.push(2, accuracy);
    group.push(2, accuracy);
    double p1 = 0;
    for (const auto& [t, p] : ScoreGroup(*scorer, group)) {
      if (t == 1) p1 = p;
    }
    EXPECT_GE(p1, prev - 1e-9) << "support " << m;
    prev = p1;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScorerMonotonicity,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0.6, 0.8, 0.95)));

// ---- run-length scorers vs the historical hash-map implementations ----
//
// The shipped scorers are single linear sweeps over sorted runs. These are
// the pre-sorting unordered_map implementations, kept as test-only
// references: the property test below runs both on randomized groups and
// bounds the divergence at 1e-12 (per-triple log-score accumulation order
// is preserved by the stable sort; only the normalization's summation
// order differs, so the probabilities may move in the last few ulps).

std::map<kb::TripleId, double> ReferenceVote(const Group& g) {
  std::unordered_map<kb::TripleId, uint32_t> votes;
  for (kb::TripleId t : g.claims.triples()) ++votes[t];
  const double n = static_cast<double>(g.claims.size());
  std::map<kb::TripleId, double> out;
  for (const auto& [t, m] : votes) out[t] = static_cast<double>(m) / n;
  return out;
}

std::map<kb::TripleId, double> ReferenceAccu(const Group& g,
                                             double n_false_values) {
  std::unordered_map<kb::TripleId, double> score;
  for (size_t i = 0; i < g.claims.size(); ++i) {
    double a = g.accuracy[g.claims.provs()[i]];
    score[g.claims.triples()[i]] += std::log(n_false_values * a / (1.0 - a));
  }
  double max_score = 0.0;
  for (const auto& [t, s] : score) max_score = std::max(max_score, s);
  double unobserved = std::max(
      0.0, n_false_values + 1.0 - static_cast<double>(score.size()));
  double total = unobserved * std::exp(-max_score);
  for (const auto& [t, s] : score) total += std::exp(s - max_score);
  std::map<kb::TripleId, double> out;
  for (const auto& [t, s] : score) out[t] = std::exp(s - max_score) / total;
  return out;
}

std::map<kb::TripleId, double> ReferencePopAccu(const Group& g) {
  std::unordered_map<kb::TripleId, double> logodds;
  std::unordered_map<kb::TripleId, double> count;
  for (size_t i = 0; i < g.claims.size(); ++i) {
    double a = g.accuracy[g.claims.provs()[i]];
    logodds[g.claims.triples()[i]] += std::log(a / (1.0 - a));
    count[g.claims.triples()[i]] += 1.0;
  }
  const double n = static_cast<double>(g.claims.size());
  std::unordered_map<kb::TripleId, double> score;
  double max_score = 0.0;
  for (const auto& [t, lo] : logodds) {
    double c = count[t];
    double s = lo - c * std::log(c / n);
    if (n - c > 0.0) s += (n - c) * std::log(n / (n - c));
    score[t] = s;
    max_score = std::max(max_score, s);
  }
  double total = std::exp(-max_score);
  for (const auto& [t, s] : score) total += std::exp(s - max_score);
  std::map<kb::TripleId, double> out;
  for (const auto& [t, s] : score) out[t] = std::exp(s - max_score) / total;
  return out;
}

TEST(RunLengthEquivalenceTest, MatchesHashMapReferencesOnRandomGroups) {
  VoteScorer vote;
  AccuScorer accu(100);
  PopAccuScorer pop;
  Rng rng(17);
  for (int trial = 0; trial < 500; ++trial) {
    // Randomized group shapes: singletons, heavy agreement, wide conflict.
    size_t n = 1 + rng.NextBelow(30);
    size_t num_values = 1 + rng.NextBelow(8);
    Group group;
    for (size_t i = 0; i < n; ++i) {
      group.push(static_cast<kb::TripleId>(rng.NextBelow(num_values)),
                 rng.Uniform(0.05, 0.95));
    }
    // References consume the unsorted claims (order-insensitive by
    // construction) — evaluated before SortByTriple() reorders them.
    const struct {
      const Scorer* scorer;
      std::map<kb::TripleId, double> expected;
    } cases[] = {
        {&vote, ReferenceVote(group)},
        {&accu, ReferenceAccu(group, 100)},
        {&pop, ReferencePopAccu(group)},
    };
    group.claims.SortByTriple();
    for (const auto& c : cases) {
      auto probs = Score(*c.scorer, group);
      ASSERT_EQ(probs.size(), c.expected.size());
      for (const auto& [t, p] : c.expected) {
        ASSERT_TRUE(probs.count(t));
        ASSERT_NEAR(probs[t], p, 1e-12) << "trial " << trial;
      }
    }
  }
}

// ---- the sorted guarantee on views and buffers ----

TEST(ItemClaimsBufferTest, TracksSortednessAcrossPushes) {
  ItemClaimsBuffer claims;
  EXPECT_TRUE(claims.sorted());
  claims.push(2, 0);
  claims.push(2, 1);
  claims.push(5, 2);
  EXPECT_TRUE(claims.sorted());
  EXPECT_TRUE(claims.view().sorted);
  claims.push(1, 3);  // out of order
  EXPECT_FALSE(claims.sorted());
  EXPECT_FALSE(claims.view().sorted);
  claims.clear();
  EXPECT_TRUE(claims.sorted());
}

TEST(ItemClaimsBufferTest, SortByTripleIsStableWithinTriple) {
  ItemClaimsBuffer claims;
  claims.push(3, 0);
  claims.push(1, 1);
  claims.push(3, 2);
  claims.push(1, 3);
  ASSERT_FALSE(claims.sorted());
  claims.SortByTriple();
  ASSERT_TRUE(claims.sorted());
  EXPECT_EQ(claims.triples(), (std::vector<kb::TripleId>{1, 1, 3, 3}));
  // Equal triples keep their push order.
  EXPECT_EQ(claims.provs(), (std::vector<uint32_t>{1, 3, 0, 2}));
}

}  // namespace
}  // namespace kf::fusion
