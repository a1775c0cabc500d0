#include "kf/session.h"

#include <utility>

#include "common/logging.h"
#include "fusion/registry.h"

namespace kf {

Session::Session(std::optional<extract::ExtractionDataset> owned,
                 const extract::ExtractionDataset* borrowed)
    : owned_(std::move(owned)),
      dataset_(owned_ ? &*owned_ : borrowed) {
  KF_CHECK(dataset_ != nullptr);
}

Session::Session(extract::ExtractionDataset dataset)
    : Session(std::move(dataset), nullptr) {}

Session Session::Borrow(const extract::ExtractionDataset& dataset) {
  return Session(std::nullopt, &dataset);
}

extract::ExtractionDataset& Session::mutable_dataset() {
  KF_CHECK(owned_.has_value());
  return *owned_;
}

Result<fusion::FusionResult> Session::Fuse(
    const fusion::FusionOptions& options, const std::vector<Label>* gold) {
  KF_RETURN_IF_ERROR(options.Validate());
  // The row rejects the fields its method does not read, budgets included.
  fusion::FuseContext ctx;
  ctx.gold = gold;
  ctx.hierarchy = hierarchy_;
  KF_RETURN_IF_ERROR(
      fusion::Registry::ValidateContext(*dataset_, options, ctx));
  // Surface spill-destination problems as a Status before any work;
  // faults that strike mid-run go through the manager's degradation
  // ladder (retry → quarantine+rematerialize → resident fallback) and
  // only reach the caller as a Status when every rung fails.
  const bool budgeted = options.memory_budget_bytes > 0;
  if (budgeted) KF_RETURN_IF_ERROR(spill::ProbeSpillDir(options.spill_dir));

  // Validated: the previous run's state goes. The manager holds mappings
  // the old graph references, so it goes before the engine.
  spill_.reset();
  engine_.reset();
  method_ = fusion::Registry::NameOf(options.method);
  Result<fusion::FusionResult> run =
      fusion::IsEngineMethod(options.method)
          ? FuseEngine(options, gold)
          : fusion::Registry::Run(*dataset_, options, ctx);
  if (!run.ok()) {
    // An unrecoverable failure (the spill layer's degradation ladder ran
    // dry) leaves the engine mid-run; drop every trace of it so
    // Refuse/Snapshot cannot read a half-built engine. The session is
    // back to its pre-first-Fuse state and a retry starts cold.
    spill_.reset();
    engine_.reset();
    last_.reset();
    method_.clear();
    return run.status();
  }
  last_ = std::move(run).value();
  fused_records_ = dataset_->num_records();
  refuse_failed_ = false;
  return *last_;
}

Result<fusion::FusionResult> Session::FuseEngine(
    const fusion::FusionOptions& options, const std::vector<Label>* gold) {
  engine_.emplace(*dataset_, options);
  // Prepare (graph build + accuracy init) runs fully resident —
  // documented: the budget governs the round loop, and its floor is the
  // build footprint. Out-of-core construction is future work.
  fusion::FusionResult result = engine_->Prepare(gold);
  if (options.memory_budget_bytes > 0) {
    Result<std::unique_ptr<spill::ShardSpillManager>> manager =
        spill::ShardSpillManager::Create(&*engine_);
    if (!manager.ok()) return manager.status();
    spill_ = std::move(manager).value();
  }
  KF_RETURN_IF_ERROR(RunRounds(fusion::FusionEngine::Start::kCold, &result));
  return result;
}

Status Session::RunRounds(fusion::FusionEngine::Start start,
                          fusion::FusionResult* result) {
  return spill_ ? spill_->RunRounds(&*engine_, start, result)
                : engine_->RunRounds(start, result);
}

Status Session::Append(
    const std::vector<extract::ExtractionRecord>& records) {
  if (!owned_) {
    return Status::FailedPrecondition(
        "Append() on a borrowed dataset; construct the Session owning its "
        "dataset to stream");
  }
  return owned_->Append(records);
}

Result<fusion::FusionResult> Session::Refuse() {
  if (!last_) {
    return Status::FailedPrecondition("Refuse() before any Fuse()");
  }
  if (!engine_) {
    return Status::FailedPrecondition(
        method_ + " does not support warm-start re-fusion; run a cold "
        "Fuse() instead");
  }
  // Ingest appended records incrementally and keep the converged
  // accuracies — the warm seed. New provenances enter at the default.
  // Dirty shards come back resident (rebuilt from the always-resident
  // record lists — no disk reads); on a budgeted run the manager then
  // invalidates their stale files, and RunRounds recuts the plan for the
  // new shard sizes.
  fusion::FusionResult result = engine_->PrepareWarm();
  if (spill_) spill_->Reconcile();
  Status rounds = RunRounds(fusion::FusionEngine::Start::kWarm, &result);
  refuse_failed_ = !rounds.ok();
  KF_RETURN_IF_ERROR(rounds);
  last_ = std::move(result);
  fused_records_ = dataset_->num_records();
  return *last_;
}

Result<FusedKB> Session::Snapshot(const SnapshotNaming& naming,
                                  const std::vector<Label>* gold) const {
  if (!last_) {
    return Status::FailedPrecondition("Snapshot() before any Fuse()");
  }
  if (!engine_) {
    return Status::FailedPrecondition(
        method_ +
        " does not retain engine state; Snapshot() needs an engine method "
        "(vote, accu, popaccu)");
  }
  if (refuse_failed_) {
    return Status::FailedPrecondition(
        "Snapshot() after a failed Refuse(): the engine already holds the "
        "appended records but not their result; retry Refuse() or Fuse()");
  }
  return FusedKB::Snapshot(*dataset_, *engine_, *last_, method_, naming,
                           gold);
}

Result<eval::ModelReport> Session::Evaluate(
    const std::vector<Label>& gold) const {
  if (!last_) {
    return Status::FailedPrecondition("Evaluate() before any Fuse()");
  }
  // Sized against the evaluated result, not the live dataset: an Append
  // that interned new triples grows the dataset before the next
  // Fuse/Refuse re-sizes the result.
  if (gold.size() != last_->probability.size()) {
    return Status::InvalidArgument(
        "gold labels must cover every unique triple of the fused result");
  }
  return eval::EvaluateModel(method_, *last_, gold);
}

}  // namespace kf
