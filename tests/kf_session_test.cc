// The kf::Session facade contract: batch fusion matches the engine,
// evaluation matches eval::EvaluateModel, non-engine methods run through
// their registry row, and streaming Append + warm-start Refuse
// reconverges to the cold-run result in strictly fewer rounds.
#include "kf/session.h"

#include <gtest/gtest.h>

#include <cmath>

#include "eval/gold_standard.h"
#include "fusion/baselines/baselines.h"
#include "fusion/registry.h"
#include "synth/corpus.h"

namespace kf {
namespace {

const synth::SynthCorpus& SmallCorpus() {
  static const synth::SynthCorpus& corpus = *new synth::SynthCorpus(
      synth::GenerateCorpus(synth::SynthConfig::Small()));
  return corpus;
}

const std::vector<Label>& SmallLabels() {
  static const std::vector<Label>& labels = *new std::vector<Label>(
      eval::BuildGoldStandard(SmallCorpus().dataset, SmallCorpus().freebase));
  return labels;
}

/// The streaming configuration of the warm-start tests: ACCU actually
/// reaches convergence_epsilon (POPACCU's popularity rewrite can
/// limit-cycle on small corpora and run to the round cap instead).
fusion::FusionOptions StreamingOptions() {
  fusion::FusionOptions options;
  options.method = fusion::Method::kAccu;
  options.max_rounds = 100;
  options.convergence_epsilon = 1e-3;
  options.num_shards = 16;
  return options;
}

// ---- batch ----

TEST(SessionTest, BorrowedFuseMatchesDirectEngine) {
  fusion::FusionOptions options = fusion::FusionOptions::PopAccu();
  options.num_shards = 16;
  Session session = Session::Borrow(SmallCorpus().dataset);
  Result<fusion::FusionResult> result = session.Fuse(options);
  ASSERT_TRUE(result.ok());
  fusion::FusionResult direct = fusion::Fuse(SmallCorpus().dataset, options);
  EXPECT_EQ(result->probability, direct.probability);
  EXPECT_EQ(result->has_probability, direct.has_probability);
  EXPECT_EQ(result->num_rounds, direct.num_rounds);
  EXPECT_EQ(session.method(), "popaccu");
  ASSERT_NE(session.last_result(), nullptr);
  EXPECT_EQ(session.last_result()->probability, direct.probability);
}

TEST(SessionTest, MethodNameDispatchMatchesDirectBaseline) {
  fusion::FusionOptions options;
  options.method = fusion::Method::kTruthFinder;
  Session session = Session::Borrow(SmallCorpus().dataset);
  Result<fusion::FusionResult> result = session.Fuse(options);
  ASSERT_TRUE(result.ok());
  fusion::FusionResult direct = fusion::RunTruthFinder(
      SmallCorpus().dataset, options, fusion::FuseContext());
  EXPECT_EQ(result->probability, direct.probability);
  EXPECT_EQ(session.method(), "truthfinder");
}

TEST(SessionTest, SwitchingMethodsReusesOneSession) {
  Session session = Session::Borrow(SmallCorpus().dataset);
  fusion::FusionOptions options;
  for (fusion::Method method :
       {fusion::Method::kVote, fusion::Method::kTruthFinder,
        fusion::Method::kPopAccu}) {
    options.method = method;
    const char* name = fusion::Registry::NameOf(method);
    ASSERT_TRUE(session.Fuse(options).ok()) << name;
    EXPECT_EQ(session.method(), name);
  }
}

TEST(SessionTest, InvalidOptionsAndUnknownMethodsAreRejected) {
  Session session = Session::Borrow(SmallCorpus().dataset);
  EXPECT_FALSE(fusion::Registry::Parse("not_a_method").ok());
  fusion::FusionOptions options;
  options.method = static_cast<fusion::Method>(fusion::kNumMethods);
  EXPECT_FALSE(session.Fuse(options).ok());
  options.method = fusion::Method::kPopAccu;
  options.max_rounds = 0;
  EXPECT_FALSE(session.Fuse(options).ok());
  options = fusion::FusionOptions();
  options.warm_start.epsilon = -1.0;
  EXPECT_FALSE(session.Fuse(options).ok());
  // Gold-needing configurations fail up front without labels.
  EXPECT_FALSE(session.Fuse(fusion::FusionOptions::PopAccuPlus()).ok());
}

TEST(SessionTest, EvaluateMatchesEvaluateModel) {
  Session session = Session::Borrow(SmallCorpus().dataset);
  EXPECT_FALSE(session.Evaluate(SmallLabels()).ok());  // before any Fuse
  fusion::FusionOptions options = fusion::FusionOptions::PopAccu();
  ASSERT_TRUE(session.Fuse(options).ok());
  Result<eval::ModelReport> report = session.Evaluate(SmallLabels());
  ASSERT_TRUE(report.ok());
  eval::ModelReport direct = eval::EvaluateModel(
      "popaccu", *session.last_result(), SmallLabels());
  EXPECT_DOUBLE_EQ(report->auc_pr, direct.auc_pr);
  EXPECT_DOUBLE_EQ(report->weighted_deviation, direct.weighted_deviation);
  EXPECT_EQ(report->name, "popaccu");
  // Mis-sized labels are rejected.
  std::vector<Label> short_gold(3, Label::kTrue);
  EXPECT_FALSE(session.Evaluate(short_gold).ok());
}

TEST(SessionTest, EvaluateAfterAppendChecksAgainstResultSize) {
  const auto& src = SmallCorpus().dataset;
  Session session(extract::CloneRecordPrefix(src, src.num_records()));
  ASSERT_TRUE(session.Fuse(fusion::FusionOptions::PopAccu()).ok());

  // Intern a NEW triple and append a claim for it: the dataset grows but
  // the last result still covers the pre-append triples.
  extract::ExtractionRecord novel = session.dataset().records()[0];
  const extract::TripleInfo& info = session.dataset().triple(novel.triple);
  novel.triple = session.mutable_dataset().InternTriple(
      session.dataset().item(info.item), info.object + 200000, false,
      false);
  ASSERT_TRUE(session.Append({novel}).ok());

  // Labels sized to the OLD result still evaluate (Status, no abort)...
  EXPECT_TRUE(session.Evaluate(SmallLabels()).ok());
  // ...labels sized to the grown dataset are rejected, not KF_CHECKed.
  std::vector<Label> grown(session.dataset().num_triples(),
                           Label::kUnknown);
  EXPECT_FALSE(session.Evaluate(grown).ok());
  // After Refuse() re-sizes the result, the grown labels work.
  ASSERT_TRUE(session.Refuse().ok());
  EXPECT_TRUE(session.Evaluate(grown).ok());
}

TEST(SessionTest, RejectedFuseKeepsPreviousWarmState) {
  const auto& src = SmallCorpus().dataset;
  const size_t base = src.num_records() - 3;
  Session session(extract::CloneRecordPrefix(src, base));
  fusion::FusionOptions options = StreamingOptions();
  ASSERT_TRUE(session.Fuse(options).ok());

  // A method switch that fails validation (confidence_weighted without
  // gold) must not clobber the converged ACCU state or method().
  fusion::FusionOptions bad;
  bad.method = fusion::Method::kConfidenceWeighted;
  EXPECT_FALSE(session.Fuse(bad).ok());
  EXPECT_EQ(session.method(), "accu");

  std::vector<extract::ExtractionRecord> batch =
      extract::ReinternTail(src, base, &session.mutable_dataset());
  ASSERT_TRUE(session.Append(batch).ok());
  Result<fusion::FusionResult> warm = session.Refuse();
  ASSERT_TRUE(warm.ok());  // still warm-startable
  EXPECT_LT(warm->num_rounds, 10u);
}

TEST(SessionTest, UnreadOptionIsRejectedAndKeepsPreviousState) {
  const auto& src = SmallCorpus().dataset;
  const size_t base = src.num_records() - 3;
  Session session(extract::CloneRecordPrefix(src, base));
  ASSERT_TRUE(session.Fuse(StreamingOptions()).ok());
  const std::vector<double> previous = session.last_result()->probability;

  // TruthFinder does not read the coverage filter: the run is refused,
  // naming the field, instead of silently running without it.
  fusion::FusionOptions bad;
  bad.method = fusion::Method::kTruthFinder;
  bad.filter_by_coverage = true;
  Result<fusion::FusionResult> refused = session.Fuse(bad);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status().message().find("filter_by_coverage"),
            std::string::npos)
      << refused.status().ToString();
  EXPECT_EQ(session.method(), "accu");
  ASSERT_NE(session.last_result(), nullptr);
  EXPECT_EQ(session.last_result()->probability, previous);

  std::vector<extract::ExtractionRecord> batch =
      extract::ReinternTail(src, base, &session.mutable_dataset());
  ASSERT_TRUE(session.Append(batch).ok());
  EXPECT_TRUE(session.Refuse().ok());  // still warm-startable
}

// ---- streaming ----

TEST(SessionTest, AppendOnBorrowedDatasetFails) {
  Session session = Session::Borrow(SmallCorpus().dataset);
  Status status = session.Append({});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(session.owns_dataset());
}

TEST(SessionTest, RefuseBeforeFuseFails) {
  Session session = Session::Borrow(SmallCorpus().dataset);
  EXPECT_FALSE(session.can_refuse());
  EXPECT_EQ(session.engine(), nullptr);
  EXPECT_FALSE(session.Refuse().ok());
}

TEST(SessionTest, RefuseAfterBaselineMethodFails) {
  Session session = Session::Borrow(SmallCorpus().dataset);
  fusion::FusionOptions options;
  options.method = fusion::Method::kInvestment;
  ASSERT_TRUE(session.Fuse(options).ok());
  // Baselines keep no engine, so there is no warm state to start from.
  EXPECT_FALSE(session.can_refuse());
  EXPECT_EQ(session.engine(), nullptr);
  Result<fusion::FusionResult> refused = session.Refuse();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
}

// The headline streaming contract (ISSUE 3 acceptance): after a small
// append, warm-start Refuse() reconverges to the same result as a cold
// Run over the combined dataset — in strictly fewer rounds. "Same" means
// identical prediction masks and probabilities equal up to the
// convergence tolerance (both runs stop within convergence_epsilon of the
// same fixed point, not at bit-identical accuracies).
TEST(SessionTest, WarmRefuseMatchesColdRunInFewerRounds) {
  const auto& src = SmallCorpus().dataset;
  const size_t base = src.num_records() - 5;
  fusion::FusionOptions options = StreamingOptions();

  Session warm_session(extract::CloneRecordPrefix(src, base));
  Result<fusion::FusionResult> cold_base = warm_session.Fuse(options);
  ASSERT_TRUE(cold_base.ok());
  std::vector<extract::ExtractionRecord> batch =
      extract::ReinternTail(src, base, &warm_session.mutable_dataset());
  ASSERT_EQ(batch.size(), 5u);
  ASSERT_TRUE(warm_session.Append(batch).ok());
  Result<fusion::FusionResult> warm = warm_session.Refuse();
  ASSERT_TRUE(warm.ok());

  Session cold_session(extract::CloneRecordPrefix(src, src.num_records()));
  Result<fusion::FusionResult> cold = cold_session.Fuse(options);
  ASSERT_TRUE(cold.ok());

  // Reconvergence is dramatically cheaper than the cold rerun...
  EXPECT_LT(warm->num_rounds, cold->num_rounds);
  EXPECT_LE(warm->num_rounds * 3, cold->num_rounds);
  // ...and lands on the same result.
  ASSERT_EQ(warm->probability.size(), cold->probability.size());
  EXPECT_EQ(warm->has_probability, cold->has_probability);
  EXPECT_EQ(warm->from_fallback, cold->from_fallback);
  EXPECT_EQ(warm->num_provenances, cold->num_provenances);
  double max_diff = 0.0;
  for (size_t t = 0; t < cold->probability.size(); ++t) {
    if (!cold->has_probability[t]) continue;
    max_diff = std::max(
        max_diff, std::fabs(cold->probability[t] - warm->probability[t]));
  }
  EXPECT_LT(max_diff, 0.05);
  // The session exposes the warm result as its latest.
  EXPECT_EQ(warm_session.last_result()->num_rounds, warm->num_rounds);
}

TEST(SessionTest, WarmStartOptionsCapRefuseRounds) {
  const auto& src = SmallCorpus().dataset;
  const size_t base = src.num_records() - 5;
  fusion::FusionOptions options = StreamingOptions();
  options.warm_start.max_rounds = 1;
  options.warm_start.epsilon = 1e-12;  // never reconverges in one round

  Session session(extract::CloneRecordPrefix(src, base));
  ASSERT_TRUE(session.Fuse(options).ok());
  std::vector<extract::ExtractionRecord> batch =
      extract::ReinternTail(src, base, &session.mutable_dataset());
  ASSERT_TRUE(session.Append(batch).ok());
  Result<fusion::FusionResult> warm = session.Refuse();
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->num_rounds, 1u);
}

TEST(SessionTest, RefuseHandlesNewTriplesAndProvenances) {
  const auto& src = SmallCorpus().dataset;
  // Hold back the tail so it contains unseen triples AND provenances.
  const size_t base = src.num_records() * 2 / 3;
  fusion::FusionOptions options = StreamingOptions();

  Session session(extract::CloneRecordPrefix(src, base));
  ASSERT_TRUE(session.Fuse(options).ok());
  const size_t triples_before = session.dataset().num_triples();
  std::vector<extract::ExtractionRecord> batch =
      extract::ReinternTail(src, base, &session.mutable_dataset());
  ASSERT_GT(session.dataset().num_triples(), triples_before);
  ASSERT_TRUE(session.Append(batch).ok());
  Result<fusion::FusionResult> warm = session.Refuse();
  ASSERT_TRUE(warm.ok());
  // The warm result is sized for the grown dataset and covers it.
  EXPECT_EQ(warm->probability.size(), session.dataset().num_triples());
  EXPECT_GT(warm->Coverage(), 0.9);
}

TEST(SessionTest, RepeatedAppendRefuseCyclesStayConsistent) {
  const auto& src = SmallCorpus().dataset;
  const size_t base = src.num_records() - 6;
  fusion::FusionOptions options = StreamingOptions();

  Session session(extract::CloneRecordPrefix(src, base));
  ASSERT_TRUE(session.Fuse(options).ok());
  std::vector<extract::ExtractionRecord> batch =
      extract::ReinternTail(src, base, &session.mutable_dataset());
  for (const extract::ExtractionRecord& record : batch) {
    ASSERT_TRUE(session.Append({record}).ok());
    Result<fusion::FusionResult> warm = session.Refuse();
    ASSERT_TRUE(warm.ok());
    EXPECT_GE(warm->num_rounds, 1u);
  }
  // After draining the batch one by one, the session agrees with a cold
  // run over the full dataset (same fixed point, tolerance as above).
  Session cold_session(extract::CloneRecordPrefix(src, src.num_records()));
  Result<fusion::FusionResult> cold = cold_session.Fuse(options);
  ASSERT_TRUE(cold.ok());
  const fusion::FusionResult& warm = *session.last_result();
  ASSERT_EQ(warm.probability.size(), cold->probability.size());
  double max_diff = 0.0;
  for (size_t t = 0; t < cold->probability.size(); ++t) {
    if (!cold->has_probability[t] || !warm.has_probability[t]) continue;
    max_diff = std::max(
        max_diff, std::fabs(cold->probability[t] - warm.probability[t]));
  }
  EXPECT_LT(max_diff, 0.05);
}

TEST(SessionTest, OwnedSessionInternsThroughMutableDataset) {
  const auto& src = SmallCorpus().dataset;
  Session session(extract::CloneRecordPrefix(src, src.num_records()));
  ASSERT_TRUE(session.owns_dataset());
  fusion::FusionOptions options = StreamingOptions();
  ASSERT_TRUE(session.Fuse(options).ok());

  // A claim for a brand-new triple of an existing item, from a fresh
  // pseudo-source.
  extract::ExtractionRecord novel = session.dataset().records()[0];
  const extract::TripleInfo& info =
      session.dataset().triple(novel.triple);
  novel.triple = session.mutable_dataset().InternTriple(
      session.dataset().item(info.item), info.object + 100000, false,
      false);
  novel.prov.url = static_cast<extract::UrlId>(
      session.dataset().num_urls() + 77);
  ASSERT_TRUE(session.Append({novel}).ok());
  Result<fusion::FusionResult> warm = session.Refuse();
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->has_probability[novel.triple]);
}

}  // namespace
}  // namespace kf
