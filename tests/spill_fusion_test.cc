// The kf::spill headline contract: a memory-budgeted out-of-core run is
// BIT-IDENTICAL to the fully-resident run — for every engine method,
// every budget (from "everything fits" down to one-shard-at-a-time),
// and every worker count — while the accounted spillable bytes stay
// within the scheduler's plan. Plus the subsystem's edges: incremental
// Append+Refuse over spilled dirty shards, Session routing and its
// budget/method rejections, and spill-directory failure handling (clean
// Status, no leaked temp dirs).
//
// KF_SPILL_FORCE_TINY_BUDGET=1 (set by the ASan CI job) forces every
// budgeted run in this suite down to a 1-byte budget — every shard its
// own subset, maximal spill/attach churn — so the whole file-lifecycle
// state machine runs under the sanitizer.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "eval/gold_standard.h"
#include "extract/tsv_io.h"
#include "fusion/engine.h"
#include "kf/session.h"
#include "spill/spill.h"
#include "synth/corpus.h"

namespace kf::spill {
namespace {

using extract::CloneRecordPrefix;
using extract::ReinternTail;
using fusion::FusionEngine;
using fusion::FusionOptions;
using fusion::FusionResult;
using fusion::Method;

struct Workload {
  synth::SynthCorpus corpus;
  std::vector<Label> labels;
};

const Workload& GetWorkload() {
  static Workload* w = [] {
    auto* x = new Workload{
        synth::GenerateCorpus(synth::SynthConfig::Small()), {}};
    x->labels = eval::BuildGoldStandard(x->corpus.dataset, x->corpus.freebase);
    return x;
  }();
  return *w;
}

bool ForceTinyBudget() {
  const char* env = std::getenv("KF_SPILL_FORCE_TINY_BUDGET");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// The graph's total and largest-shard spillable bytes under `opts`,
/// measured off a throwaway resident engine — what the budget fractions
/// below are fractions OF.
struct GraphBytes {
  size_t total = 0;
  size_t largest = 0;
};

GraphBytes MeasureGraph(const extract::ExtractionDataset& dataset,
                        FusionOptions opts) {
  opts.num_workers = 1;
  // Shard sizes depend only on the graph structure, not on the accuracy
  // initialization — drop the gold requirement for the probe build.
  opts.init_accuracy_from_gold = false;
  FusionEngine engine(dataset, opts);
  engine.Prepare();
  GraphBytes g;
  for (size_t s = 0; s < engine.graph().num_shards(); ++s) {
    const size_t bytes = engine.graph().shard(s).SpillableBytes();
    g.total += bytes;
    g.largest = std::max(g.largest, bytes);
  }
  return g;
}

/// Budgets forcing ~25% / ~50% / 100% residency, plus the 1-byte floor
/// (each shard alone in its subset). Under KF_SPILL_FORCE_TINY_BUDGET
/// only the floor runs.
std::vector<size_t> BudgetSweep(const GraphBytes& g) {
  if (ForceTinyBudget()) return {1};
  return {1, g.total / 4, g.total / 2, g.total + 1};
}

size_t OneBudget(const GraphBytes& g) {
  return ForceTinyBudget() ? 1 : g.total / 4;
}

struct Capture {
  FusionResult result;
  std::vector<double> accuracies;
  std::vector<uint32_t> prov_claims;
};

Capture RunResident(const extract::ExtractionDataset& dataset,
                    FusionOptions opts,
                    const std::vector<Label>* gold = nullptr) {
  opts.num_workers = 1;
  FusionEngine engine(dataset, opts);
  Capture c;
  c.result = engine.Run(gold);
  c.accuracies = engine.provenance_accuracy();
  c.prov_claims = engine.provenance_claims();
  return c;
}

/// What a Session's engine holds after its last run.
Capture SessionCapture(const kf::Session& session, FusionResult result) {
  return {std::move(result), session.engine()->provenance_accuracy(),
          session.engine()->provenance_claims()};
}

Capture RunBudgeted(const extract::ExtractionDataset& dataset,
                    FusionOptions opts, size_t budget, size_t workers,
                    const std::vector<Label>* gold = nullptr) {
  opts.num_workers = workers;
  opts.memory_budget_bytes = budget;
  kf::Session session = kf::Session::Borrow(dataset);
  Result<FusionResult> run = session.Fuse(opts, gold);
  KF_CHECK_OK(run.status());
  KF_CHECK(session.spill_stats() != nullptr);  // the run was budgeted
  return SessionCapture(session, std::move(run).value());
}

/// A budgeted cold run driven on the spill manager directly, the way
/// kf::Session drives one, for the tests that read the manager's plan.
struct ManagedRun {
  std::unique_ptr<FusionEngine> engine;
  std::unique_ptr<ShardSpillManager> manager;  // destroyed before engine
  FusionResult result;
};

ManagedRun RunManaged(const extract::ExtractionDataset& dataset,
                      const FusionOptions& opts) {
  ManagedRun run;
  run.engine = std::make_unique<FusionEngine>(dataset, opts);
  run.result = run.engine->Prepare();
  auto manager = ShardSpillManager::Create(run.engine.get());
  KF_CHECK_OK(manager.status());
  run.manager = std::move(manager).value();
  KF_CHECK_OK(
      run.manager->RunRounds(FusionEngine::Start::kCold, &run.result));
  return run;
}

void ExpectBitIdentical(const Capture& a, const Capture& b) {
  ASSERT_EQ(a.result.probability.size(), b.result.probability.size());
  // Element-wise == on doubles: any reordering of a floating-point
  // reduction — or any subset-dependent accumulation — shows up here.
  EXPECT_EQ(a.result.probability, b.result.probability);
  EXPECT_EQ(a.result.has_probability, b.result.has_probability);
  EXPECT_EQ(a.result.from_fallback, b.result.from_fallback);
  EXPECT_EQ(a.result.num_rounds, b.result.num_rounds);
  EXPECT_EQ(a.result.num_provenances, b.result.num_provenances);
  EXPECT_EQ(a.result.num_unevaluated_provenances,
            b.result.num_unevaluated_provenances);
  EXPECT_EQ(a.accuracies, b.accuracies);
  EXPECT_EQ(a.prov_claims, b.prov_claims);
}

// ---- the determinism sweep --------------------------------------------

class BudgetMethodSweep : public ::testing::TestWithParam<Method> {};

TEST_P(BudgetMethodSweep, BitIdenticalAcrossBudgetsAndWorkers) {
  const auto& dataset = GetWorkload().corpus.dataset;
  FusionOptions opts;
  opts.method = GetParam();
  opts.num_shards = 8;
  const Capture reference = RunResident(dataset, opts);
  const GraphBytes g = MeasureGraph(dataset, opts);
  for (size_t budget : BudgetSweep(g)) {
    for (size_t workers : {size_t{1}, size_t{8}}) {
      SCOPED_TRACE("budget=" + std::to_string(budget) +
                   " workers=" + std::to_string(workers));
      ExpectBitIdentical(reference,
                         RunBudgeted(dataset, opts, budget, workers));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, BudgetMethodSweep,
                         ::testing::Values(Method::kVote, Method::kAccu,
                                           Method::kPopAccu));

TEST(SpillFusionTest, FilteredStackBitIdentical) {
  // Coverage filter + theta + fallback + multi-round re-evaluation: the
  // buffer-assembly sweep path, budgeted vs resident.
  const auto& dataset = GetWorkload().corpus.dataset;
  FusionOptions opts = FusionOptions::PopAccuPlusUnsup();
  opts.num_shards = 8;
  const GraphBytes g = MeasureGraph(dataset, opts);
  ExpectBitIdentical(RunResident(dataset, opts),
                     RunBudgeted(dataset, opts, OneBudget(g), 8));
}

TEST(SpillFusionTest, SampleCapReservoirBitIdentical) {
  // A tiny sample_cap forces the oversized-provenance reservoir in the
  // two-level Stage II — the subtlest of the subset-invariant folds.
  const auto& dataset = GetWorkload().corpus.dataset;
  FusionOptions opts = FusionOptions::PopAccu();
  opts.num_shards = 8;
  opts.sample_cap = 3;
  const GraphBytes g = MeasureGraph(dataset, opts);
  ExpectBitIdentical(RunResident(dataset, opts),
                     RunBudgeted(dataset, opts, OneBudget(g), 8));
}

TEST(SpillFusionTest, GoldInitializedBitIdentical) {
  const auto& dataset = GetWorkload().corpus.dataset;
  const std::vector<Label>* gold = &GetWorkload().labels;
  FusionOptions opts = FusionOptions::PopAccuPlus();
  opts.num_shards = 8;
  opts.gold_sample_rate = 0.5;
  const GraphBytes g = MeasureGraph(dataset, opts);
  ExpectBitIdentical(RunResident(dataset, opts, gold),
                     RunBudgeted(dataset, opts, OneBudget(g), 8, gold));
}

TEST(SpillFusionTest, EmptyShardsSpillAndMapBack) {
  // At 1024 shards some shards of the small corpus receive no record; a
  // 1-byte budget writes each of them to its own file and maps it back.
  const auto& dataset = GetWorkload().corpus.dataset;
  FusionOptions opts = FusionOptions::PopAccu();
  opts.num_shards = 1024;
  {
    const FusionEngine probe(dataset, opts);
    size_t empty = 0;
    for (size_t s = 0; s < probe.graph().num_shards(); ++s) {
      if (probe.graph().shard(s).records.empty()) ++empty;
    }
    ASSERT_GT(empty, 0u);
  }
  ExpectBitIdentical(RunResident(dataset, opts),
                     RunBudgeted(dataset, opts, /*budget=*/1, 8));
}

// ---- budget accounting ------------------------------------------------

TEST(SpillFusionTest, HighWaterStaysWithinThePlan) {
  // The CI fault matrix re-runs this suite under KF_FAULT schedules; the
  // bit-identity tests must hold there (recovery is transparent), but
  // exact file/byte counters legitimately shift when faults fire.
  if (fault::AnyArmed()) GTEST_SKIP() << "stats-exact; fault schedule armed";
  const auto& dataset = GetWorkload().corpus.dataset;
  FusionOptions opts = FusionOptions::PopAccu();
  opts.num_shards = 8;
  opts.num_workers = 8;
  const GraphBytes g = MeasureGraph(dataset, opts);
  const size_t budget = ForceTinyBudget() ? 1 : g.total / 4;
  opts.memory_budget_bytes = budget;
  const ManagedRun run = RunManaged(dataset, opts);
  const SpillPlan& plan = run.manager->plan();
  const SpillStats& stats = run.manager->stats();
  // The plan partitions the shards within the budget, floored at the
  // largest single shard; the manager's round-loop high-water must stay
  // within the heaviest planned subset.
  ASSERT_GT(plan.subsets.size(), 1u);  // the budget actually binds
  EXPECT_LE(plan.max_subset_bytes, std::max(budget, plan.largest_shard_bytes));
  EXPECT_LE(stats.accounted_high_water, plan.max_subset_bytes);
  EXPECT_GT(stats.files_written, 0u);
  EXPECT_GT(stats.maps_opened, 0u);
}

TEST(SpillFusionTest, UnconstrainedBudgetSpillsNothingDuringRounds) {
  if (fault::AnyArmed()) GTEST_SKIP() << "stats-exact; fault schedule armed";
  const auto& dataset = GetWorkload().corpus.dataset;
  FusionOptions opts = FusionOptions::PopAccu();
  opts.num_shards = 8;
  const GraphBytes g = MeasureGraph(dataset, opts);
  opts.memory_budget_bytes = g.total + 1;
  const ManagedRun run = RunManaged(dataset, opts);
  // One subset holds everything; the round loop never evicts. The only
  // writes are the end-of-run MapAll spill-down: one file per shard.
  EXPECT_EQ(run.manager->plan().subsets.size(), 1u);
  EXPECT_EQ(run.manager->stats().files_written,
            run.engine->graph().num_shards());
}

// ---- incremental: Append + Refuse over spilled dirty shards -----------

// Every warm path of the round loop, resident vs budgeted: each engine
// method plus the coverage-filtered stack (whose prefer-evaluated switch
// reads the global round number), with warm settings inherited and with
// warm_start overriding the round cap, across two Append + Refuse cycles.
TEST(SpillFusionTest, WarmRefuseBitIdenticalToResident) {
  const auto& src = GetWorkload().corpus.dataset;
  const size_t base = src.num_records() * 2 / 3;
  const size_t mid = (base + src.num_records()) / 2;
  // Cycle 1 appends records [base, mid), cycle 2 appends [mid, end).
  const extract::ExtractionDataset mid_src = CloneRecordPrefix(src, mid);
  const extract::ExtractionDataset* const tail_src[] = {&mid_src, &src};
  const size_t tail_begin[] = {base, mid};

  fusion::WarmStartOptions tuned;
  tuned.max_rounds = 2;
  const std::pair<const char*, FusionOptions> stacks[] = {
      {"vote", FusionOptions::Vote()},
      {"accu", FusionOptions::Accu()},
      {"popaccu", FusionOptions::PopAccu()},
      {"popaccu+unsup", FusionOptions::PopAccuPlusUnsup()},
  };
  for (const auto& [stack, stack_opts] : stacks) {
    for (const bool inherit : {true, false}) {
      SCOPED_TRACE(std::string(stack) +
                   (inherit ? " inherited warm_start" : " tuned warm_start"));
      FusionOptions opts = stack_opts;
      opts.num_shards = 8;
      if (!inherit) opts.warm_start = tuned;
      const GraphBytes g = MeasureGraph(src, opts);

      // Resident reference: a Session's Fuse, then two Append + Refuse
      // cycles.
      opts.num_workers = 1;
      kf::Session resident(CloneRecordPrefix(src, base));
      KF_CHECK_OK(resident.Fuse(opts).status());
      std::vector<Capture> ref_warm;
      for (size_t cycle = 0; cycle < 2; ++cycle) {
        KF_CHECK_OK(resident.Append(ReinternTail(
            *tail_src[cycle], tail_begin[cycle], &resident.mutable_dataset())));
        auto warm = resident.Refuse();
        ASSERT_TRUE(warm.ok());
        ref_warm.push_back(SessionCapture(resident, std::move(warm).value()));
      }

      // Budgeted run: same record sequence, dirty shards spilled between
      // the cold Fuse and each Refuse.
      for (size_t workers : {size_t{1}, size_t{8}}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        FusionOptions bopts = opts;
        bopts.num_workers = workers;
        bopts.memory_budget_bytes = OneBudget(g);
        kf::Session budgeted(CloneRecordPrefix(src, base));
        KF_CHECK_OK(budgeted.Fuse(bopts).status());
        ASSERT_NE(budgeted.spill_stats(), nullptr);
        for (size_t cycle = 0; cycle < 2; ++cycle) {
          SCOPED_TRACE("cycle=" + std::to_string(cycle + 1));
          KF_CHECK_OK(budgeted.Append(
              ReinternTail(*tail_src[cycle], tail_begin[cycle],
                           &budgeted.mutable_dataset())));
          auto warm = budgeted.Refuse();
          ASSERT_TRUE(warm.ok());
          const Capture& ref = ref_warm[cycle];
          EXPECT_EQ(warm->probability, ref.result.probability);
          EXPECT_EQ(warm->has_probability, ref.result.has_probability);
          EXPECT_EQ(warm->from_fallback, ref.result.from_fallback);
          EXPECT_EQ(warm->num_rounds, ref.result.num_rounds);
          EXPECT_EQ(budgeted.engine()->provenance_accuracy(), ref.accuracies);
          EXPECT_EQ(budgeted.engine()->provenance_claims(), ref.prov_claims);
        }
      }
    }
  }
}

// A Refuse with nothing appended re-syncs nothing: every shard stays
// mapped from the cold run, and the warm rounds read those mappings.
TEST(SpillFusionTest, RefuseWithNothingAppendedMatchesResident) {
  const auto& src = GetWorkload().corpus.dataset;
  FusionOptions opts = FusionOptions::PopAccu();
  opts.num_shards = 8;
  opts.num_workers = 1;
  const GraphBytes g = MeasureGraph(src, opts);

  kf::Session resident = kf::Session::Borrow(src);
  ASSERT_TRUE(resident.Fuse(opts).ok());
  auto ref = resident.Refuse();
  ASSERT_TRUE(ref.ok());

  FusionOptions bopts = opts;
  bopts.memory_budget_bytes = OneBudget(g);
  kf::Session budgeted = kf::Session::Borrow(src);
  ASSERT_TRUE(budgeted.Fuse(bopts).ok());
  auto warm = budgeted.Refuse();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ExpectBitIdentical(SessionCapture(resident, std::move(ref).value()),
                     SessionCapture(budgeted, std::move(warm).value()));
}

// ---- Session routing and the FusedKB acceptance check -----------------

TEST(SpillFusionTest, SessionSnapshotEqualsUnbudgetedRun) {
  const auto& src = GetWorkload().corpus.dataset;
  FusionOptions opts = FusionOptions::PopAccu();
  opts.num_shards = 8;
  const GraphBytes g = MeasureGraph(src, opts);

  kf::Session resident = kf::Session::Borrow(src);
  ASSERT_TRUE(resident.Fuse(opts).ok());
  auto kb_resident = resident.Snapshot();
  ASSERT_TRUE(kb_resident.ok());

  FusionOptions bopts = opts;
  bopts.memory_budget_bytes = OneBudget(g);
  kf::Session budgeted = kf::Session::Borrow(src);
  ASSERT_TRUE(budgeted.Fuse(bopts).ok());
  auto kb_budgeted = budgeted.Snapshot();
  ASSERT_TRUE(kb_budgeted.ok());

  // The acceptance bar: the budgeted FusedKB is operator==-equal to the
  // unbudgeted one — verdicts, accuracies, provenance table, the lot.
  EXPECT_TRUE(*kb_resident == *kb_budgeted);
}

TEST(SpillFusionTest, SessionRejectsBudgetedBaselines) {
  const auto& src = GetWorkload().corpus.dataset;
  kf::Session session = kf::Session::Borrow(src);
  FusionOptions opts;
  opts.method = Method::kTruthFinder;
  opts.memory_budget_bytes = 1 << 20;
  auto result = session.Fuse(opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("cannot run out-of-core"),
            std::string::npos);
  // The rejection must not clobber the session's (empty) engine state.
  EXPECT_FALSE(session.can_refuse());
}

TEST(SpillFusionTest, SessionSwitchesBetweenBudgetedAndResident) {
  const auto& src = GetWorkload().corpus.dataset;
  FusionOptions opts = FusionOptions::PopAccu();
  opts.num_shards = 8;
  const GraphBytes g = MeasureGraph(src, opts);
  kf::Session session = kf::Session::Borrow(src);
  auto cold = session.Fuse(opts);
  ASSERT_TRUE(cold.ok());
  FusionOptions bopts = opts;
  bopts.memory_budget_bytes = OneBudget(g);
  auto budgeted = session.Fuse(bopts);
  ASSERT_TRUE(budgeted.ok());
  EXPECT_EQ(cold->probability, budgeted->probability);
  auto back = session.Fuse(opts);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(cold->probability, back->probability);
}

// ---- spill-directory failure handling ---------------------------------

TEST(SpillFusionTest, FileAsSpillDirIsACleanStatus) {
  const std::string file_path = ::testing::TempDir() + "spill_not_a_dir";
  ASSERT_TRUE(extract::WriteFile(file_path, "occupied").ok());
  // Both the validation-time probe and manager creation must refuse.
  Status probe = ProbeSpillDir(file_path);
  ASSERT_FALSE(probe.ok());
  EXPECT_NE(probe.message().find("not a directory"), std::string::npos);

  const auto& src = GetWorkload().corpus.dataset;
  FusionOptions opts = FusionOptions::PopAccu();
  opts.memory_budget_bytes = 1 << 20;
  opts.spill_dir = file_path;
  kf::Session session = kf::Session::Borrow(src);
  auto result = session.Fuse(opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  ::remove(file_path.c_str());
}

// A budgeted Fuse rejected at validation must leave a warm resident
// session exactly as it was: same method, still warm, still unbudgeted,
// and its next Refuse equal to one from a session that never saw the
// rejected call.
TEST(SpillFusionTest, RejectedBudgetedFuseKeepsResidentWarmState) {
  const std::string file_path = ::testing::TempDir() + "spill_rejected";
  ASSERT_TRUE(extract::WriteFile(file_path, "occupied").ok());
  const auto& src = GetWorkload().corpus.dataset;
  const size_t base = src.num_records() * 2 / 3;
  FusionOptions opts = FusionOptions::PopAccu();
  opts.num_shards = 8;

  kf::Session session(CloneRecordPrefix(src, base));
  kf::Session untouched(CloneRecordPrefix(src, base));
  ASSERT_TRUE(session.Fuse(opts).ok());
  ASSERT_TRUE(untouched.Fuse(opts).ok());

  FusionOptions bopts = opts;
  bopts.memory_budget_bytes = 1 << 20;
  bopts.spill_dir = file_path;
  auto rejected = session.Fuse(bopts);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kIOError);
  EXPECT_EQ(session.method(), "popaccu");
  EXPECT_TRUE(session.can_refuse());
  EXPECT_EQ(session.spill_stats(), nullptr);
  ::remove(file_path.c_str());

  for (kf::Session* s : {&session, &untouched}) {
    ASSERT_TRUE(
        s->Append(ReinternTail(src, base, &s->mutable_dataset())).ok());
  }
  auto warm = session.Refuse();
  auto ref = untouched.Refuse();
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(ref.ok());
  ExpectBitIdentical(SessionCapture(untouched, std::move(ref).value()),
                     SessionCapture(session, std::move(warm).value()));
}

TEST(SpillFusionTest, UncreatableSpillDirIsACleanStatus) {
  const std::string file_path = ::testing::TempDir() + "spill_blocker";
  ASSERT_TRUE(extract::WriteFile(file_path, "occupied").ok());
  // A path UNDER a regular file cannot be created (ENOTDIR) — and must
  // not leave anything behind.
  Status probe = ProbeSpillDir(file_path + "/sub");
  ASSERT_FALSE(probe.ok());
  struct stat st;
  EXPECT_NE(::stat((file_path + "/sub").c_str(), &st), 0);
  ::remove(file_path.c_str());
}

TEST(SpillFusionTest, ManagerRemovesItsOwnedTempDir) {
  const auto& dataset = GetWorkload().corpus.dataset;
  FusionOptions opts = FusionOptions::PopAccu();
  opts.num_shards = 8;
  opts.num_workers = 1;
  opts.memory_budget_bytes = 1;  // force real spill files
  FusionEngine engine(dataset, opts);
  engine.Prepare();
  std::string dir;
  {
    auto mgr = ShardSpillManager::Create(&engine);
    ASSERT_TRUE(mgr.ok()) << mgr.status().message();
    dir = (*mgr)->dir();
    ASSERT_TRUE((*mgr)->EnsureOnly({0}).ok());
    EXPECT_GT((*mgr)->stats().files_written, 0u);
    struct stat st;
    ASSERT_EQ(::stat(dir.c_str(), &st), 0);
  }
  // Manager gone: files and the owned temp directory with it, and every
  // shard is resident again or rebuildable (nothing dangles mapped).
  struct stat st;
  EXPECT_NE(::stat(dir.c_str(), &st), 0);
}

}  // namespace
}  // namespace kf::spill
