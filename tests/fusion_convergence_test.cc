// Convergence robustness (ROADMAP "convergence robustness"): POPACCU's
// popularity rewrite keeps a few tie-cycling provenances moving above
// convergence_epsilon for hundreds of rounds, so the strict max-delta
// criterion burns the whole round cap — which also destroys the
// warm-start Refuse() win. The delta-quantile criterion
// (FusionOptions::convergence_quantile) tolerates the straggler tail and
// converges well under the cap; the damped Stage II update
// (FusionOptions::accuracy_damping) scales the applied accuracy steps for
// oscillatory regimes. Both have warm-start overrides
// (WarmStartOptions::{damping,quantile}), and the defaults (1.0 / 1.0)
// reproduce the previous behavior bit-exactly.
#include <gtest/gtest.h>

#include <cmath>

#include "extract/dataset.h"
#include "fusion/engine.h"
#include "kf/session.h"
#include "synth/corpus.h"

namespace kf::fusion {
namespace {

const synth::SynthCorpus& SmallCorpus() {
  static const synth::SynthCorpus& corpus = *new synth::SynthCorpus(
      synth::GenerateCorpus(synth::SynthConfig::Small()));
  return corpus;
}

/// POPACCU with a generous round cap and the epsilon the streaming tests
/// use: tight enough that the strict criterion never fires on the small
/// corpus within the cap (the documented straggler cycling).
FusionOptions PopAccuStreaming() {
  FusionOptions options;
  options.method = Method::kPopAccu;
  options.max_rounds = 60;
  options.convergence_epsilon = 1e-3;
  options.num_shards = 16;
  return options;
}

TEST(ConvergenceTest, StrictCriterionRunsPopAccuToTheRoundCap) {
  // Documents the failure mode the new knobs exist for: under the strict
  // max-delta criterion POPACCU burns every round of the cap.
  FusionResult result = Fuse(SmallCorpus().dataset, PopAccuStreaming());
  EXPECT_EQ(result.num_rounds, PopAccuStreaming().max_rounds);
}

TEST(ConvergenceTest, QuantileCriterionConvergesWellUnderTheCap) {
  FusionOptions options = PopAccuStreaming();
  options.convergence_quantile = 0.98;  // tolerate 2% tie-cycling provs
  FusionResult result = Fuse(SmallCorpus().dataset, options);
  EXPECT_LT(result.num_rounds, 40u);  // measured: 28 vs the cap of 60

  // Early convergence changes where the stragglers stop, not what gets
  // predicted: the coverage mask matches the strict run exactly.
  FusionResult strict = Fuse(SmallCorpus().dataset, PopAccuStreaming());
  EXPECT_EQ(result.has_probability, strict.has_probability);
  EXPECT_EQ(result.num_provenances, strict.num_provenances);
}

TEST(ConvergenceTest, DampingScalesTheAppliedStageIISteps) {
  // Two engines in the same prepared state: a half-damped sweep applies
  // exactly half the accuracy movement of an undamped one (modulo the
  // clamp, which the first round's well-interior accuracies never hit).
  FusionOptions options = PopAccuStreaming();
  options.accuracy_damping = 1.0;
  FusionOptions half_options = options;
  half_options.accuracy_damping = 0.5;
  FusionEngine full(SmallCorpus().dataset, options);
  FusionEngine half(SmallCorpus().dataset, half_options);
  FusionResult result = full.Prepare();
  FusionResult result_half = half.Prepare();
  full.StageI(1, &result);
  half.StageI(1, &result_half);
  ASSERT_EQ(result.probability, result_half.probability);
  double d_full = full.StageII(result);
  double d_half = half.StageII(result_half);
  EXPECT_NEAR(d_half, 0.5 * d_full, 1e-12);
}

TEST(ConvergenceTest, DampedQuantileRunStillConvergesUnderTheCap) {
  FusionOptions options = PopAccuStreaming();
  options.accuracy_damping = 0.5;
  options.convergence_quantile = 0.98;
  FusionResult result = Fuse(SmallCorpus().dataset, options);
  EXPECT_LT(result.num_rounds, options.max_rounds);  // measured: 48
}

TEST(ConvergenceTest, DefaultKnobsReproducePreviousBehaviorBitExactly) {
  FusionOptions base = PopAccuStreaming();
  FusionOptions explicit_defaults = base;
  explicit_defaults.accuracy_damping = 1.0;
  explicit_defaults.convergence_quantile = 1.0;
  FusionResult a = Fuse(SmallCorpus().dataset, base);
  FusionResult b = Fuse(SmallCorpus().dataset, explicit_defaults);
  EXPECT_EQ(a.probability, b.probability);
  EXPECT_EQ(a.has_probability, b.has_probability);
  EXPECT_EQ(a.num_rounds, b.num_rounds);
}

// The point of the exercise: with the quantile criterion, POPACCU's
// Refuse() regains its warm-start win — reconverging after a 1-record
// append in ~1 round instead of limit-cycling through the whole cap.
TEST(ConvergenceTest, QuantileRefuseKeepsTheWarmStartWin) {
  const auto& src = SmallCorpus().dataset;
  const size_t base = src.num_records() - 1;

  FusionOptions options = PopAccuStreaming();
  options.convergence_quantile = 0.98;

  kf::Session session(extract::CloneRecordPrefix(src, base));
  Result<FusionResult> cold = session.Fuse(options);
  ASSERT_TRUE(cold.ok());
  ASSERT_LT(cold->num_rounds, options.max_rounds);  // converged, not capped

  std::vector<extract::ExtractionRecord> batch =
      extract::ReinternTail(src, base, &session.mutable_dataset());
  ASSERT_TRUE(session.Append(batch).ok());
  Result<FusionResult> warm = session.Refuse();
  ASSERT_TRUE(warm.ok());
  // Reconvergence after a 1-record append is dramatically cheaper than
  // the cold run (measured: 1 round vs 28)...
  EXPECT_LE(warm->num_rounds, 3u);
  EXPECT_LE(warm->num_rounds * 5, cold->num_rounds);
  // ...and the warm result covers the grown dataset like a cold rerun.
  Result<FusionResult> full =
      kf::Session(extract::CloneRecordPrefix(src, src.num_records()))
          .Fuse(options);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(warm->has_probability, full->has_probability);
}

// warm_start.{damping,quantile} override only the re-fusion: the cold run
// still honors the strict defaults (and hits the cap), while Refuse()
// reconverges under the relaxed criterion.
TEST(ConvergenceTest, WarmStartOverridesApplyOnlyToRefuse) {
  const auto& src = SmallCorpus().dataset;
  const size_t base = src.num_records() - 1;

  FusionOptions options = PopAccuStreaming();
  options.warm_start.damping = 0.5;
  options.warm_start.quantile = 0.98;

  kf::Session session(extract::CloneRecordPrefix(src, base));
  Result<FusionResult> cold = session.Fuse(options);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->num_rounds, options.max_rounds);  // cold stays strict

  std::vector<extract::ExtractionRecord> batch =
      extract::ReinternTail(src, base, &session.mutable_dataset());
  ASSERT_TRUE(session.Append(batch).ok());
  Result<FusionResult> warm = session.Refuse();
  ASSERT_TRUE(warm.ok());
  EXPECT_LE(warm->num_rounds, 3u);
}

TEST(ConvergenceTest, ValidateRejectsBadKnobs) {
  FusionOptions options;
  options.accuracy_damping = 0.0;
  EXPECT_FALSE(options.Validate().ok());
  options.accuracy_damping = 1.5;
  EXPECT_FALSE(options.Validate().ok());
  options = FusionOptions();
  options.convergence_quantile = 0.0;
  EXPECT_FALSE(options.Validate().ok());
  options.convergence_quantile = -0.5;
  EXPECT_FALSE(options.Validate().ok());
  options = FusionOptions();
  options.warm_start.damping = -0.1;
  EXPECT_FALSE(options.Validate().ok());
  options = FusionOptions();
  options.warm_start.quantile = 1.1;
  EXPECT_FALSE(options.Validate().ok());
  // 0 means "inherit" for the warm overrides and is valid.
  options = FusionOptions();
  options.warm_start.damping = 0.0;
  options.warm_start.quantile = 0.0;
  EXPECT_TRUE(options.Validate().ok());
}

}  // namespace
}  // namespace kf::fusion
