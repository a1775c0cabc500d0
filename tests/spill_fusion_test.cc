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
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "eval/gold_standard.h"
#include "extract/tsv_io.h"
#include "fusion/engine.h"
#include "fusion/registry.h"
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

Capture RunBudgeted(const extract::ExtractionDataset& dataset,
                    FusionOptions opts, size_t budget, size_t workers,
                    const std::vector<Label>* gold = nullptr) {
  opts.num_workers = workers;
  opts.memory_budget_bytes = budget;
  std::unique_ptr<fusion::Fuser> fuser = MakeOutOfCoreFuser(opts.method);
  fusion::FuseContext ctx;
  ctx.gold = gold;
  KF_CHECK_OK(fuser->ValidateContext(dataset, opts, ctx));
  Capture c;
  Result<FusionResult> run = fuser->Run(dataset, opts, ctx);
  KF_CHECK_OK(run.status());
  c.result = std::move(run).value();
  c.accuracies = fuser->engine()->provenance_accuracy();
  c.prov_claims = fuser->engine()->provenance_claims();
  return c;
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
  std::unique_ptr<fusion::Fuser> fuser = MakeOutOfCoreFuser(Method::kPopAccu);
  fusion::FuseContext ctx;
  KF_CHECK_OK(fuser->ValidateContext(dataset, opts, ctx));
  KF_CHECK_OK(fuser->Run(dataset, opts, ctx).status());
  auto* intro = dynamic_cast<OutOfCoreIntrospection*>(fuser.get());
  ASSERT_NE(intro, nullptr);
  const SpillPlan& plan = intro->spill_plan();
  const SpillStats& stats = intro->spill_stats();
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
  std::unique_ptr<fusion::Fuser> fuser = MakeOutOfCoreFuser(Method::kPopAccu);
  fusion::FuseContext ctx;
  KF_CHECK_OK(fuser->ValidateContext(dataset, opts, ctx));
  KF_CHECK_OK(fuser->Run(dataset, opts, ctx).status());
  auto* intro = dynamic_cast<OutOfCoreIntrospection*>(fuser.get());
  ASSERT_NE(intro, nullptr);
  // One subset holds everything; the round loop never evicts. The only
  // writes are the end-of-run MapAll spill-down: one file per shard.
  EXPECT_EQ(intro->spill_plan().subsets.size(), 1u);
  EXPECT_EQ(intro->spill_stats().files_written,
            fuser->engine()->graph().num_shards());
}

// ---- incremental: Append + Refuse over spilled dirty shards -----------

// Every warm path of the round loop, resident vs budgeted: each engine
// method plus the coverage-filtered stack (whose prefer-evaluated switch
// reads the global round number), with warm settings inherited and with
// warm_start overriding the round cap, damping, and quantile, across two
// Append + Refuse cycles.
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
  tuned.damping = 0.5;
  tuned.quantile = 0.98;
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

      // Resident reference: registry EngineFuser, Run then two Append +
      // Refuse cycles.
      extract::ExtractionDataset resident = CloneRecordPrefix(src, base);
      auto created =
          fusion::Registry::Create(fusion::Registry::NameOf(opts.method));
      ASSERT_TRUE(created.ok());
      std::unique_ptr<fusion::Fuser> ref_fuser = std::move(*created);
      fusion::FuseContext ctx;
      opts.num_workers = 1;
      KF_CHECK_OK(ref_fuser->Run(resident, opts, ctx).status());
      std::vector<Capture> ref_warm;
      for (size_t cycle = 0; cycle < 2; ++cycle) {
        KF_CHECK_OK(resident.Append(
            ReinternTail(*tail_src[cycle], tail_begin[cycle], &resident)));
        auto warm = ref_fuser->Refuse(resident);
        ASSERT_TRUE(warm.ok());
        ref_warm.push_back({std::move(warm).value(),
                            ref_fuser->engine()->provenance_accuracy(),
                            ref_fuser->engine()->provenance_claims()});
      }

      // Budgeted run: same record sequence, dirty shards spilled between
      // the cold Run and each Refuse.
      for (size_t workers : {size_t{1}, size_t{8}}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        extract::ExtractionDataset budgeted = CloneRecordPrefix(src, base);
        FusionOptions bopts = opts;
        bopts.num_workers = workers;
        bopts.memory_budget_bytes = OneBudget(g);
        std::unique_ptr<fusion::Fuser> fuser = MakeOutOfCoreFuser(opts.method);
        KF_CHECK_OK(fuser->ValidateContext(budgeted, bopts, ctx));
        KF_CHECK_OK(fuser->Run(budgeted, bopts, ctx).status());
        for (size_t cycle = 0; cycle < 2; ++cycle) {
          SCOPED_TRACE("cycle=" + std::to_string(cycle + 1));
          KF_CHECK_OK(budgeted.Append(
              ReinternTail(*tail_src[cycle], tail_begin[cycle], &budgeted)));
          auto warm = fuser->Refuse(budgeted);
          ASSERT_TRUE(warm.ok());
          const Capture& ref = ref_warm[cycle];
          EXPECT_EQ(warm->probability, ref.result.probability);
          EXPECT_EQ(warm->has_probability, ref.result.has_probability);
          EXPECT_EQ(warm->from_fallback, ref.result.from_fallback);
          EXPECT_EQ(warm->num_rounds, ref.result.num_rounds);
          EXPECT_EQ(fuser->engine()->provenance_accuracy(), ref.accuracies);
          EXPECT_EQ(fuser->engine()->provenance_claims(), ref.prov_claims);
        }
      }
    }
  }
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
  opts.method_name = "truthfinder";
  opts.memory_budget_bytes = 1 << 20;
  auto result = session.Fuse(opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("cannot run out-of-core"),
            std::string::npos);
  // The rejection must not clobber the session's (empty) fuser state.
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
  // Bare manager, no rematerialize hook: armed spill faults would turn
  // into hard Statuses here by design — not this test's subject.
  if (fault::AnyArmed()) GTEST_SKIP() << "no recovery hook; faults armed";
  const auto& dataset = GetWorkload().corpus.dataset;
  FusionOptions opts = FusionOptions::PopAccu();
  opts.num_shards = 8;
  opts.num_workers = 1;
  FusionEngine engine(dataset, opts);
  engine.Prepare();
  std::string dir;
  {
    ShardSpillManager::Options mo;
    mo.budget_bytes = 1;  // force real spill files
    auto mgr = ShardSpillManager::Create(&engine.mutable_graph(), mo);
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
