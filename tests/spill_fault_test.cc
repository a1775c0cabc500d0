// The kf::spill degradation ladder under injected I/O failure:
//   retry        transient spill-write errors are absorbed, run equal
//   quarantine   a corrupt spilled shard is discarded and rebuilt from
//                the always-resident record lists, run equal
//   resident     a permanently dead spill destination waives the budget
//   fallback     and the run finishes fully resident, run STILL equal
//   Status       with recovery impossible (the rebuild faulted) the
//                failure surfaces as a clean Status — never an abort —
//                and Session/KbServer reset or keep serving accordingly.
// "Equal" throughout means operator==-level: probabilities, accuracies,
// and the FusedKB built on top, bit for bit against the unfaulted run.
#include <sys/stat.h>

#include <cerrno>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "eval/gold_standard.h"
#include "extract/tsv_io.h"
#include "fusion/engine.h"
#include "kf/kb_server.h"
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

const extract::ExtractionDataset& GetDataset() {
  static const synth::SynthCorpus* corpus =
      new synth::SynthCorpus(synth::GenerateCorpus(synth::SynthConfig::Small()));
  return corpus->dataset;
}

/// Total spillable bytes of the graph under `opts` — the denominator of
/// the 25%-budget runs below.
size_t TotalSpillableBytes(const extract::ExtractionDataset& dataset,
                           FusionOptions opts) {
  opts.num_workers = 1;
  opts.init_accuracy_from_gold = false;
  FusionEngine engine(dataset, opts);
  engine.Prepare();
  size_t total = 0;
  for (size_t s = 0; s < engine.graph().num_shards(); ++s) {
    total += engine.graph().shard(s).SpillableBytes();
  }
  return total;
}

FusionOptions BaseOptions() {
  FusionOptions opts = FusionOptions::PopAccu();
  opts.num_shards = 8;
  opts.num_workers = 4;
  return opts;
}

struct Capture {
  FusionResult result;
  std::vector<double> accuracies;
};

/// Every test arms exactly the schedule it is about: the fixture's
/// ScopedFaults neutralizes any ambient KF_FAULT schedule (the CI fault
/// matrix re-runs this binary under several) for the test's duration.
class SpillFaultTest : public ::testing::Test {
 private:
  fault::ScopedFaults scope_;
};

Capture RunResident(const extract::ExtractionDataset& dataset,
                    FusionOptions opts) {
  opts.num_workers = 1;
  FusionEngine engine(dataset, opts);
  Capture c;
  c.result = engine.Run();
  c.accuracies = engine.provenance_accuracy();
  return c;
}

void ExpectEqualRun(const Capture& a, const FusionResult& result,
                    const std::vector<double>& accuracies) {
  EXPECT_EQ(a.result.probability, result.probability);
  EXPECT_EQ(a.result.has_probability, result.has_probability);
  EXPECT_EQ(a.result.from_fallback, result.from_fallback);
  EXPECT_EQ(a.result.num_rounds, result.num_rounds);
  EXPECT_EQ(a.accuracies, accuracies);
}

// ---- rung 1: transient errors are retried and absorbed ---------------

TEST_F(SpillFaultTest, TransientWriteFaultsRecoverBitIdentical) {
  // The acceptance run: POPACCU at a 25% budget with seeded transient
  // failures injected into the shard writes. The retry rung absorbs
  // them (degrading further if a burst outlasts the retry budget — the
  // result is equal either way).
  const auto& dataset = GetDataset();
  FusionOptions opts = BaseOptions();
  const Capture reference = RunResident(dataset, opts);
  opts.memory_budget_bytes = TotalSpillableBytes(dataset, opts) / 4;

  fault::ScopedFaults scope;
  ASSERT_TRUE(fault::ArmFromConfig("spill.write=eintr%4(seed=11)").ok());

  Session session = Session::Borrow(dataset);
  Result<FusionResult> run = session.Fuse(opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ExpectEqualRun(reference, *run, session.engine()->provenance_accuracy());

  ASSERT_GT(fault::Hits("spill.write"), 0u);
  ASSERT_NE(session.spill_stats(), nullptr);
  EXPECT_GT(session.spill_stats()->transient_retries, 0u);
}

// ---- rung 2: corruption is quarantined and rebuilt from memory -------

TEST_F(SpillFaultTest, ByteFlipBetweenRoundsQuarantinesAndRecovers) {
  // Drive the engine's round loop by hand (the same decomposition
  // ShardSpillManager::RunRounds runs) so bytes can be flipped in spilled
  // shard files BETWEEN rounds, then assert the quarantine +
  // rewrite-from-resident path converges to a FusedKB operator==-equal to
  // the resident run's.
  const auto& dataset = GetDataset();
  FusionOptions opts = BaseOptions();
  opts.num_workers = 1;

  // Resident reference run + its FusedKB.
  FusionEngine ref_engine(dataset, opts);
  FusionResult ref_result = ref_engine.Run();
  auto ref_kb = FusedKB::Snapshot(dataset, ref_engine, ref_result, "popaccu",
                                  SnapshotNaming{});
  ASSERT_TRUE(ref_kb.ok());

  FusionOptions budgeted = opts;
  budgeted.memory_budget_bytes = TotalSpillableBytes(dataset, opts) / 4;
  FusionEngine engine(dataset, budgeted);
  FusionResult result = engine.Prepare();
  auto mgr = ShardSpillManager::Create(&engine);
  ASSERT_TRUE(mgr.ok());
  ShardSpillManager& manager = **mgr;
  const SpillPlan plan =
      PlanSubsets(engine.graph(), budgeted.memory_budget_bytes);
  ASSERT_GT(plan.subsets.size(), 1u);  // the budget binds: real files

  for (size_t round = 1; round <= opts.max_rounds; ++round) {
    engine.BeginStageI(round, &result);
    engine.BeginStageII(result);
    for (const std::vector<uint32_t>& subset : plan.subsets) {
      ASSERT_TRUE(manager.EnsureOnly(subset).ok());
      engine.SweepStageI(subset, &result);
      engine.AccumulateStageII(subset, result);
    }
    result.num_rounds = round;
    const double delta = engine.FinishStageII(opts.accuracy_damping,
                                              opts.convergence_quantile);
    if (round > 1 && delta < opts.convergence_epsilon) break;

    // Between rounds: flip a byte in the middle of every EVICTED
    // shard's spill file (mapped files stay untouched — their pages
    // back live columns). The next round must attach these files,
    // detect the corruption, and rebuild the shards from memory.
    for (uint32_t s = 0; s < engine.graph().num_shards(); ++s) {
      if (engine.graph().shard_residency(s) !=
          fusion::ShardResidency::kEvicted) {
        continue;
      }
      const std::string path =
          StrFormat("%s/shard-%06u.kfs", manager.dir().c_str(), s);
      auto bytes = extract::ReadFile(path);
      ASSERT_TRUE(bytes.ok());
      std::string flipped = std::move(bytes).value();
      ASSERT_FALSE(flipped.empty());
      flipped[flipped.size() / 2] ^= 0x5a;
      ASSERT_TRUE(extract::WriteFile(path, flipped).ok());
    }
  }
  ASSERT_TRUE(manager.MapAll().ok());
  size_t unevaluated = 0;
  for (uint8_t e : engine.provenance_evaluated()) {
    if (!e) ++unevaluated;
  }
  result.num_unevaluated_provenances = unevaluated;

  EXPECT_GT(manager.stats().shards_quarantined, 0u);
  EXPECT_GE(manager.stats().shards_rematerialized,
            manager.stats().shards_quarantined);
  EXPECT_FALSE(manager.stats().resident_fallback);

  ExpectEqualRun(Capture{ref_result, ref_engine.provenance_accuracy()},
                 result, engine.provenance_accuracy());
  auto kb = FusedKB::Snapshot(dataset, engine, result, "popaccu",
                              SnapshotNaming{});
  ASSERT_TRUE(kb.ok());
  EXPECT_TRUE(*ref_kb == *kb);
}

// ---- rung 3: a dead destination degrades to fully-resident -----------

TEST_F(SpillFaultTest, DeadSpillDirFallsBackToResidentBitIdentical) {
  const auto& dataset = GetDataset();
  FusionOptions opts = BaseOptions();
  const Capture reference = RunResident(dataset, opts);
  opts.memory_budget_bytes = TotalSpillableBytes(dataset, opts) / 4;

  fault::ScopedFaults scope;
  // Every shard write fails with ENOSPC, forever: retries exhaust, the
  // budget is waived, and the run must finish fully resident — equal.
  ASSERT_TRUE(fault::ArmFromConfig("spill.write=enospc").ok());

  Session session = Session::Borrow(dataset);
  Result<FusionResult> run = session.Fuse(opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ExpectEqualRun(reference, *run, session.engine()->provenance_accuracy());

  ASSERT_NE(session.spill_stats(), nullptr);
  const SpillStats& stats = *session.spill_stats();
  EXPECT_TRUE(stats.resident_fallback);
  EXPECT_GE(stats.transient_retries, 3u);  // one exhausted retry loop
  EXPECT_EQ(stats.files_written, 0u);
}

// ---- rung 4: the ladder runs dry — a clean Status, never an abort ----

/// Prepares `engine`, whose options set a 1-byte budget (every EnsureOnly
/// really spills), and returns its manager with shard 0 resident and
/// every other shard spilled.
std::unique_ptr<ShardSpillManager> SpillAllButShardZero(FusionEngine* engine) {
  engine->Prepare();
  auto mgr = ShardSpillManager::Create(engine);
  KF_CHECK_OK(mgr.status());
  KF_CHECK_OK((*mgr)->EnsureOnly({0}));
  return std::move(mgr).value();
}

TEST_F(SpillFaultTest, FailedRematerializePropagatesWriteFailure) {
  const auto& dataset = GetDataset();
  FusionOptions opts = BaseOptions();
  opts.num_workers = 1;
  opts.memory_budget_bytes = 1;
  FusionEngine engine(dataset, opts);
  auto manager = SpillAllButShardZero(&engine);

  fault::ScopedFaults scope;
  // Shard 0's write fails for good, so the manager degrades to resident;
  // rebuilding the spilled shards fails too: the ladder runs dry.
  ASSERT_TRUE(
      fault::ArmFromConfig("spill.write=enospc;spill.remat=eio").ok());
  Status st = manager->EnsureOnly({1});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_NE(st.message().find("rematerialize shard"), std::string::npos);
  EXPECT_FALSE(manager->stats().resident_fallback);
}

TEST_F(SpillFaultTest, FailedRematerializePropagatesCorruptAttach) {
  const auto& dataset = GetDataset();
  FusionOptions opts = BaseOptions();
  opts.num_workers = 1;
  opts.memory_budget_bytes = 1;
  FusionEngine engine(dataset, opts);
  auto manager = SpillAllButShardZero(&engine);

  fault::ScopedFaults scope;
  // EIO is not transient: no retry, straight to quarantine — whose
  // rebuild fails as well.
  ASSERT_TRUE(
      fault::ArmFromConfig("spill.attach=eio@1;spill.remat=eio").ok());
  Status st = manager->EnsureOnly({1});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_NE(st.message().find("rematerialize shard"), std::string::npos);
  EXPECT_EQ(manager->stats().shards_quarantined, 1u);
}

TEST_F(SpillFaultTest, SessionResetsCleanlyWhenTheLadderRunsDry) {
  const auto& dataset = GetDataset();
  FusionOptions opts = BaseOptions();
  opts.memory_budget_bytes = TotalSpillableBytes(dataset, opts) / 4;
  Session session = Session::Borrow(dataset);
  {
    fault::ScopedFaults scope;
    // Writes dead from the SECOND shard on (so one shard is already
    // evicted when the fallback tries to rematerialize) AND recovery
    // dead: the whole ladder runs dry — nothing left but a Status.
    ASSERT_TRUE(
        fault::ArmFromConfig("spill.write=err@2+;spill.remat=err").ok());
    auto run = session.Fuse(opts);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kIOError);
    // The failed run left no half-built warm state behind.
    EXPECT_FALSE(session.can_refuse());
    EXPECT_EQ(session.last_result(), nullptr);
    EXPECT_EQ(session.spill_stats(), nullptr);
  }
  // Faults cleared: the same Session recovers with a cold retry.
  auto retry = session.Fuse(opts);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  ASSERT_NE(session.spill_stats(), nullptr);
  EXPECT_FALSE(session.spill_stats()->resident_fallback);
}

TEST_F(SpillFaultTest, SnapshotAfterFailedRefuseFailsUntilARetrySucceeds) {
  // A failed budgeted Refuse keeps the engine so a retry stays warm, but
  // that engine already holds the appended records (and the ladder left
  // shards evicted) while the last result predates them: Snapshot must
  // report that as a Status instead of reading the evicted columns.
  const auto& src = GetDataset();
  ASSERT_GT(src.num_records(), 4u);
  const size_t base = src.num_records() - 3;
  FusionOptions opts = BaseOptions();
  opts.memory_budget_bytes = TotalSpillableBytes(src, opts) / 4;
  Session session(CloneRecordPrefix(src, base));
  ASSERT_TRUE(session.Fuse(opts).ok());
  ASSERT_TRUE(
      session.Append(ReinternTail(src, base, &session.mutable_dataset()))
          .ok());
  {
    fault::ScopedFaults scope;
    ASSERT_TRUE(
        fault::ArmFromConfig("spill.write=enospc;spill.remat=err").ok());
    auto failed = session.Refuse();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
  }
  auto stale = session.Snapshot();
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(session.can_refuse());

  // Faults cleared: the retried Refuse succeeds and snapshots again.
  auto retry = session.Refuse();
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  auto kb = session.Snapshot();
  ASSERT_TRUE(kb.ok()) << kb.status().ToString();
  EXPECT_EQ(kb->num_triples(), retry->probability.size());
}

// ---- the serving layer: Publish fails, readers keep the generation ---

TEST_F(SpillFaultTest, PublishFailureKeepsReadersOnLastGoodGeneration) {
  const auto& src = GetDataset();
  // A tiny tail: a few appended records dirty a few shards while the
  // rest stay clean and MAPPED — so the faulted warm Publish both has
  // to write spill files (dirty shards) and, when that fails, has to
  // rematerialize mapped shards (also faulted). A big tail would dirty
  // every shard and let the budget waiver succeed trivially with nothing
  // to rematerialize.
  ASSERT_GT(src.num_records(), 4u);
  const size_t base = src.num_records() - 3;
  KbServer::Options options;
  options.fusion = BaseOptions();
  options.fusion.memory_budget_bytes =
      TotalSpillableBytes(src, options.fusion) / 4;
  KbServer server(CloneRecordPrefix(src, base), options);

  auto gen1 = server.Publish();
  ASSERT_TRUE(gen1.ok()) << gen1.status().ToString();
  EXPECT_EQ(gen1->seqno, 1u);
  EXPECT_FALSE(gen1->spill_resident_fallback);
  KbSnapshotRef pinned = server.Acquire();
  ASSERT_NE(pinned, nullptr);
  const auto top_before = server.TopK(5);

  // Appended records dirty some shards, so the failing warm Publish
  // below really has to write spill files (clean shards stay mapped).
  ASSERT_TRUE(
      server.Append(ReinternTail(src, base, &server.mutable_dataset())).ok());
  {
    fault::ScopedFaults scope;
    ASSERT_TRUE(
        fault::ArmFromConfig("spill.write=enospc;spill.remat=err").ok());
    auto failed = server.Publish();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
  }
  // Nothing was published: same generation, same answers, and the
  // failure is counted.
  EXPECT_EQ(server.published_seqno(), 1u);
  EXPECT_EQ(server.Acquire().get(), pinned.get());
  EXPECT_EQ(server.stats().publish_failures, 1u);
  EXPECT_EQ(server.stats().publishes, 1u);
  const auto top_after = server.TopK(5);
  ASSERT_EQ(top_after.size(), top_before.size());
  for (size_t i = 0; i < top_after.size(); ++i) {
    EXPECT_EQ(top_after[i].probability, top_before[i].probability);
    EXPECT_EQ(top_after[i].seqno, 1u);
  }

  // Faults cleared: the writer simply retries and generation 2 lands,
  // now covering the appended records.
  auto gen2 = server.Publish();
  ASSERT_TRUE(gen2.ok()) << gen2.status().ToString();
  EXPECT_EQ(gen2->seqno, 2u);
  EXPECT_EQ(server.published_seqno(), 2u);
  EXPECT_EQ(server.stats().publish_failures, 1u);
  // The pinned generation-1 snapshot is still alive and unchanged.
  EXPECT_EQ(pinned->stats().seqno, 1u);
}

TEST_F(SpillFaultTest, PublishSurfacesRecoveryCountersInSnapshotStats) {
  KbServer::Options options;
  options.fusion = BaseOptions();
  options.fusion.memory_budget_bytes =
      TotalSpillableBytes(GetDataset(), options.fusion) / 4;
  KbServer server(CloneRecordPrefix(GetDataset(), GetDataset().num_records()),
                  options);

  fault::ScopedFaults scope;
  // One transient hiccup on the first shard write: absorbed by retry,
  // published, and visible in the generation's stats.
  ASSERT_TRUE(fault::ArmFromConfig("spill.write=eintr@1").ok());
  auto gen1 = server.Publish();
  ASSERT_TRUE(gen1.ok()) << gen1.status().ToString();
  EXPECT_GE(gen1->spill_transient_retries, 1u);
  EXPECT_EQ(gen1->spill_shards_quarantined, 0u);
  EXPECT_FALSE(gen1->spill_resident_fallback);
  EXPECT_EQ(server.stats().current.spill_transient_retries,
            gen1->spill_transient_retries);
}

TEST_F(SpillFaultTest, SnapshotStatsCountOnlyTheProducingRun) {
  // A warm Publish keeps the spill manager, whose counters run over its
  // lifetime: generation 2 must not report generation 1's recovery.
  const auto& src = GetDataset();
  ASSERT_GT(src.num_records(), 4u);
  const size_t base = src.num_records() - 3;
  KbServer::Options options;
  options.fusion = BaseOptions();
  options.fusion.memory_budget_bytes =
      TotalSpillableBytes(src, options.fusion) / 4;
  KbServer server(CloneRecordPrefix(src, base), options);
  {
    fault::ScopedFaults scope;
    ASSERT_TRUE(fault::ArmFromConfig("spill.write=eintr@1").ok());
    auto gen1 = server.Publish();
    ASSERT_TRUE(gen1.ok()) << gen1.status().ToString();
    ASSERT_GE(gen1->spill_transient_retries, 1u);
  }
  ASSERT_TRUE(
      server.Append(ReinternTail(src, base, &server.mutable_dataset())).ok());
  auto gen2 = server.Publish();
  ASSERT_TRUE(gen2.ok()) << gen2.status().ToString();
  EXPECT_EQ(gen2->seqno, 2u);
  EXPECT_EQ(gen2->spill_transient_retries, 0u);
  EXPECT_EQ(gen2->spill_shards_quarantined, 0u);
}

// ---- probe hygiene (the ProbeWritable leak regression) ---------------

TEST_F(SpillFaultTest, ProbeFileIsUnlinkedOnSuccessAndFailure) {
  const std::string dir = ::testing::TempDir() + "kf-probe-dir";
  ASSERT_TRUE(ProbeSpillDir(dir).ok());
  struct stat st;
  EXPECT_NE(::stat((dir + "/.kf-spill-probe").c_str(), &st), 0)
      << "probe file leaked on the success path";

  // Fail the probe's write AFTER the file was created: the probe file
  // must still be cleaned up.
  fault::ScopedFaults scope;
  ASSERT_TRUE(fault::ArmFromConfig("tsv.write.write=err").ok());
  Status probe = ProbeSpillDir(dir);
  ASSERT_FALSE(probe.ok());
  EXPECT_NE(probe.message().find("not writable"), std::string::npos);
  EXPECT_NE(::stat((dir + "/.kf-spill-probe").c_str(), &st), 0)
      << "probe file leaked on the failure path";
  ::rmdir(dir.c_str());
}

TEST_F(SpillFaultTest, TempDirCreationFailureIsACleanStatus) {
  fault::ScopedFaults scope;
  ASSERT_TRUE(fault::ArmFromConfig("spill.mkdtemp=enospc").ok());
  Status st = ProbeSpillDir("");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.raw_errno(), ENOSPC);
}

}  // namespace
}  // namespace kf::spill
