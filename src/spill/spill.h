// kf::spill — memory-budgeted out-of-core fusion over mmap-backed shard
// files.
//
// When FusionOptions::memory_budget_bytes is set, the claim graph's
// spillable columns (items, the claim columns, the local prov
// cross-index — ~12 B/claim + ~13 B/item) no longer need to be resident
// all at once. ShardSpillManager writes cold shards to per-shard
// kf::store kClaimShard files and maps them back zero-copy when the
// SpillScheduler's plan brings them on budget; the engine sweeps
// whatever columns the graph serves, so resident and mapped shards take
// the same code path.
//
// Determinism contract (the headline guarantee): a budgeted run is
// BIT-IDENTICAL to the fully-resident run, for every budget and every
// worker count. Stage I writes disjoint per-triple slots under tables
// frozen per round, so subset order cannot change bits; Stage II sums
// each shard's local provenance groups into their own slots, and the
// finish step folds a provenance's slots in ascending shard order, so
// neither the grouping of shards into subsets nor their order can either
// (fusion/engine.h, "subset decompositions").
//
// Budget semantics: the budget bounds the ACCOUNTED spillable bytes
// (resident + mapped shard columns) during the round loop, after the
// initial spill-down. The floor is the largest single shard — one shard
// must always be readable. Graph construction (Prepare) is fully
// resident; spilling begins with the first scheduled subset. Mapped
// bytes are file-backed and reclaimable, but they count against the
// budget anyway so the accounting is an upper bound on what the sweeps
// can touch.
//
// Single-process, single-driver: residency changes only between sweeps.
#ifndef KF_SPILL_SPILL_H_
#define KF_SPILL_SPILL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "fusion/claim_graph.h"
#include "fusion/engine.h"
#include "fusion/options.h"
#include "store/shard_store.h"

namespace kf::spill {

/// The scheduler's sweep plan: ordered shard subsets, each fitting the
/// budget (or holding exactly one over-budget shard — the documented
/// floor). Subsets partition the shard set; an empty shard costs the 4 B
/// of its lone [0] offset and joins the first subset with room for it.
struct SpillPlan {
  std::vector<std::vector<uint32_t>> subsets;
  /// Spillable bytes of the largest single shard (the budget floor).
  size_t largest_shard_bytes = 0;
  /// Accounted bytes of the heaviest subset: what the manager's
  /// high-water must stay within.
  size_t max_subset_bytes = 0;
};

/// Deterministic largest-first first-fit-decreasing packing of the
/// graph's shards into subsets of at most `budget_bytes` accounted
/// spillable bytes. Stable: equal-sized shards keep ascending id order,
/// so the plan — like everything downstream of it — is a pure function
/// of the graph and the budget.
SpillPlan PlanSubsets(const fusion::ClaimGraph& graph, size_t budget_bytes);

/// Running counters the bench family and the budget tests read.
struct SpillStats {
  /// Max accounted (resident + mapped) spillable bytes observed at the
  /// end of any EnsureOnly() — the steady-state per-subset footprint.
  size_t accounted_high_water = 0;
  size_t files_written = 0;      // shard files written (once per dirty shard)
  size_t bytes_written = 0;      // file bytes written
  size_t maps_opened = 0;        // mmap attach count (re-maps included)

  // ---- fault recovery (the degradation ladder, rung by rung) ----
  /// Transient I/O errors (EINTR/EAGAIN/ENOSPC) absorbed by the bounded
  /// retry-with-backoff around shard writes and attaches.
  uint64_t transient_retries = 0;
  /// Shard files discarded as corrupt or unreadable after retries.
  size_t shards_quarantined = 0;
  /// Shards rebuilt resident from their always-resident record lists
  /// (quarantine recovery and resident-fallback restores).
  size_t shards_rematerialized = 0;
  /// The budget was waived mid-run: the spill destination became
  /// unusable, every shard was rematerialized, and the run finished
  /// fully resident (bit-identical result, budget no longer enforced).
  bool resident_fallback = false;
};

/// Owns the spill directory and the per-shard file + mapping lifecycle
/// for one engine's ClaimGraph. The graph stays file-unaware: this class
/// is the only writer/reader of its residency states.
class ShardSpillManager {
 public:
  /// The manager of a budgeted run over `engine`'s graph, with the budget
  /// and spill directory of the engine's options. An empty spill_dir
  /// gets a fresh kf-spill-XXXXXX temp directory, removed with the
  /// manager; a named one is created if missing, and only the files go
  /// with the manager. Creates (or claims) the directory and probes it
  /// for writability. The engine must outlive the manager.
  static Result<std::unique_ptr<ShardSpillManager>> Create(
      fusion::FusionEngine* engine);

  /// Detaches every mapping it installed and removes its files (and the
  /// directory, when owned). Best-effort: destruction never throws.
  ~ShardSpillManager();

  ShardSpillManager(const ShardSpillManager&) = delete;
  ShardSpillManager& operator=(const ShardSpillManager&) = delete;

  /// Makes exactly `subset` readable (resident or mapped) and evicts
  /// every other shard, writing a shard's file first if the disk copy is
  /// stale. The workhorse of the round loop: evicts before mapping, so
  /// accounted bytes never exceed max(previous, new) subset footprint.
  Status EnsureOnly(const std::vector<uint32_t>& subset);

  /// Spills every still-resident shard and maps ALL shards: everything
  /// readable (Snapshot / ForEachClaim serve zero-copy off the files)
  /// while the owning vectors stay freed. The end-of-run state.
  Status MapAll();

  /// Re-syncs with the graph after a dataset Update(): shards the graph
  /// rebuilt are resident again with stale disk copies — their files are
  /// invalidated and any mapping dropped. Call right after PrepareWarm.
  void Reconcile();

  /// The budgeted round loop of the engine's run: cuts the subset plan
  /// for the current shard sizes and runs the engine's RunRounds over it,
  /// each subset made readable by EnsureOnly right before its sweep. Ends
  /// with MapAll, so every shard is on disk and mapped (Snapshot /
  /// ForEachClaim read zero-copy while the columns stay reclaimable) or,
  /// after a resident fallback, fully resident. An error means the
  /// degradation ladder ran dry and the run has no result.
  Status RunRounds(fusion::FusionEngine::Start start,
                   fusion::FusionResult* result);

  /// The subset plan of the last RunRounds.
  const SpillPlan& plan() const { return plan_; }
  /// Peak RSS (bytes) sampled across the round loop of the last
  /// RunRounds, per common/memprobe.h.
  size_t round_loop_peak_rss() const { return peak_rss_; }

  const SpillStats& stats() const { return stats_; }
  const std::string& dir() const { return dir_; }

 private:
  ShardSpillManager() = default;

  /// Writes shard `s`'s columns to its file (overwriting a stale copy).
  /// Transient errors are retried with backoff before failing.
  Status WriteShard(uint32_t s);
  /// Opens + validates shard `s`'s file and attaches the mapping.
  /// Transient open errors are retried; a corrupt, swapped, or
  /// persistently unreadable file is quarantined (unlinked, file_valid_
  /// cleared) and the shard rematerialized.
  Status AttachShard(uint32_t s);
  /// Rebuilds evicted shard `s` resident from the engine's always-resident
  /// record lists, bit-identical to what eviction released. A failpoint
  /// site of its own, `spill.remat`, so tests can exhaust the whole
  /// ladder.
  Status Rematerialize(uint32_t s);
  /// The last rung of the ladder: rematerializes every evicted shard,
  /// drops all mappings and files, and waives the budget for the rest
  /// of the run. Fails (leaving the manager unusable) only when a
  /// rematerialize fails.
  Status DegradeToResident();
  /// Releases or detaches shard `s` (no-op when already evicted).
  void EvictShard(uint32_t s);
  std::string ShardPath(uint32_t s) const;
  /// Folds the current accounted (resident + mapped) bytes into
  /// SpillStats::accounted_high_water.
  void UpdateHighWater();
  /// Removes every file this manager wrote, and the directory when
  /// owned. Mappings must already be detached.
  void RemoveFilesBestEffort();

  fusion::FusionEngine* engine_ = nullptr;
  fusion::ClaimGraph* graph_ = nullptr;  // engine_'s graph
  std::string dir_;
  bool owns_dir_ = false;
  /// Budget waived: fully-resident execution until the manager dies.
  bool degraded_ = false;
  /// Per shard: whether the on-disk file matches the current columns.
  std::vector<uint8_t> file_valid_;
  /// Per shard: the live mapping backing a kMapped attachment.
  std::vector<store::ShardMmapView> maps_;
  SpillStats stats_;
  SpillPlan plan_;
  size_t peak_rss_ = 0;
};

/// Validation-time probe of a budgeted run's spill destination: creates
/// the directory if needed and round-trips a probe file, so in-run IO
/// aborts are unreachable for plain misconfiguration (wrong path,
/// read-only directory). An empty `spill_dir` probes the temp-dir
/// default and removes the probe directory again; a user-supplied
/// directory is created and left in place.
Status ProbeSpillDir(const std::string& spill_dir);

}  // namespace kf::spill

#endif  // KF_SPILL_SPILL_H_
