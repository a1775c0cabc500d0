// spill::OutOfCoreFuser — the budgeted counterpart of the registry's
// EngineFuser. Same engine, same round loop (FusionEngine::RunRounds);
// this fuser only owns residency: the spill manager's lifecycle, the
// subset plan, and the hook that makes each subset readable before the
// engine sweeps it. Because the engine's subset decomposition is
// bit-identical to the one-shot sweeps for any disjoint subset plan, the
// fuser's results are bit-identical to EngineFuser's for every budget
// and worker count.
#include <functional>
#include <optional>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/memprobe.h"
#include "common/string_util.h"
#include "fusion/registry.h"
#include "spill/spill.h"

namespace kf::spill {

namespace {

using fusion::FuseContext;
using fusion::FusionEngine;
using fusion::FusionOptions;
using fusion::FusionResult;

class OutOfCoreFuser : public fusion::Fuser, public OutOfCoreIntrospection {
 public:
  explicit OutOfCoreFuser(fusion::Method method) : method_(method) {}

  std::string_view name() const override {
    return fusion::Registry::NameOf(method_);
  }

  Status ValidateContext(const extract::ExtractionDataset& dataset,
                         const FusionOptions& options,
                         const FuseContext& ctx) const override {
    KF_RETURN_IF_ERROR(fusion::CheckGold(dataset, options, ctx));
    if (options.memory_budget_bytes == 0) {
      return Status::InvalidArgument(
          "out-of-core fusion requires memory_budget_bytes > 0");
    }
    // Surface spill-destination problems as a Status before any work;
    // faults that strike mid-run go through the manager's degradation
    // ladder (retry → quarantine+rematerialize → resident fallback) and
    // only reach the caller as a Status when every rung fails.
    return ProbeSpillDir(options.spill_dir);
  }

  Result<FusionResult> Run(const extract::ExtractionDataset& dataset,
                           const FusionOptions& options,
                           const FuseContext& ctx) override {
    FusionOptions opts = options;
    opts.method_name.clear();
    opts.method = method_;
    // The manager holds mappings the old graph references: drop it
    // before the engine (and with it the graph) is replaced.
    manager_.reset();
    engine_.emplace(dataset, opts);
    dataset_ = &dataset;
    // Prepare (graph build + accuracy init) runs fully resident —
    // documented: the budget governs the round loop, and its floor is
    // the build footprint. Out-of-core construction is future work.
    FusionResult result = engine_->Prepare(ctx.gold);
    ShardSpillManager::Options mo;
    mo.budget_bytes = opts.memory_budget_bytes;
    mo.spill_dir = opts.spill_dir;
    mo.rematerialize = MakeRematerializeHook();
    Result<std::unique_ptr<ShardSpillManager>> mgr =
        ShardSpillManager::Create(&engine_->mutable_graph(), mo);
    if (!mgr.ok()) return mgr.status();
    manager_ = std::move(*mgr);
    KF_RETURN_IF_ERROR(RunBudgetedRounds(FusionEngine::Start::kCold, &result));
    return result;
  }

  bool SupportsWarmStart() const override { return true; }

  const FusionEngine* engine() const override {
    return engine_ ? &*engine_ : nullptr;
  }

  Result<FusionResult> Refuse(
      const extract::ExtractionDataset& dataset) override {
    if (!engine_ || dataset_ != &dataset) {
      return Status::FailedPrecondition(
          "Refuse() needs a prior Run() over the same dataset");
    }
    // PrepareWarm ingests the appended records: dirty shards come back
    // resident (rebuilt from the always-resident record lists — no disk
    // reads), then the manager invalidates their stale files and the
    // plan is recut for the new shard sizes.
    FusionResult result = engine_->PrepareWarm();
    manager_->Reconcile();
    KF_RETURN_IF_ERROR(RunBudgetedRounds(FusionEngine::Start::kWarm, &result));
    return result;
  }

  // ---- OutOfCoreIntrospection ----
  const SpillStats& spill_stats() const override {
    static const SpillStats kEmpty;
    return manager_ ? manager_->stats() : kEmpty;
  }
  const SpillPlan& spill_plan() const override { return plan_; }
  size_t round_loop_peak_rss() const override { return peak_rss_; }

 private:
  /// The manager's recovery hook: rebuilds an evicted shard's columns
  /// bit-identical from the engine's always-resident record lists. A
  /// failpoint site of its own so tests can exhaust the whole ladder
  /// (spill.remat armed = even recovery fails → clean Status).
  std::function<Status(uint32_t)> MakeRematerializeHook() {
    return [this](uint32_t s) -> Status {
      if (const int e = fault::Inject("spill.remat")) {
        return Status::FromErrno("rematerialize shard",
                                 StrFormat("%u", s), e);
      }
      engine_->RematerializeShard(s);
      return Status::OK();
    };
  }

  /// Cuts the subset plan for the current shard sizes and runs the
  /// engine's round loop over it, each subset made readable by the
  /// manager right before its sweep. Ends with every shard on disk and
  /// mapped, so Snapshot / ForEachClaim read zero-copy while the columns
  /// stay reclaimable (or fully resident when the run degraded). An
  /// error means the manager's degradation ladder ran dry — the run
  /// cannot produce a result.
  Status RunBudgetedRounds(FusionEngine::Start start, FusionResult* result) {
    plan_ = PlanSubsets(engine_->graph(),
                        engine_->options().memory_budget_bytes);
    // Constructed here, after the plan and before round 1: the tracker
    // resets the kernel's RSS high-water mark, so the peak covers the
    // round loop and not the graph build.
    PeakRssTracker rss;
    KF_RETURN_IF_ERROR(engine_->RunRounds(
        start, result, &plan_.subsets,
        [&](const std::vector<uint32_t>& subset) {
          const Status made = manager_->EnsureOnly(subset);
          rss.Sample();
          return made;
        }));
    KF_RETURN_IF_ERROR(manager_->MapAll());
    rss.Sample();
    peak_rss_ = rss.PeakBytes();
    return Status::OK();
  }

  fusion::Method method_;
  std::optional<FusionEngine> engine_;
  /// Declared after engine_: destroyed first, detaching its mappings
  /// from the graph before the graph goes away.
  std::unique_ptr<ShardSpillManager> manager_;
  const extract::ExtractionDataset* dataset_ = nullptr;
  SpillPlan plan_;
  size_t peak_rss_ = 0;
};

}  // namespace

std::unique_ptr<fusion::Fuser> MakeOutOfCoreFuser(fusion::Method method) {
  return std::make_unique<OutOfCoreFuser>(method);
}

}  // namespace kf::spill
