#include "spill/spill.h"

#include <errno.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/memprobe.h"
#include "common/retry.h"
#include "common/string_util.h"
#include "extract/tsv_io.h"
#include "store/atomic_writer.h"

namespace kf::spill {

namespace {

/// Creates `dir` if missing and fails cleanly if the path exists but is
/// not a directory.
Status EnsureDirectory(const std::string& dir) {
  if (const int e = fault::Inject("spill.mkdir")) {
    return Status::FromErrno("mkdir", dir, e);
  }
  if (::mkdir(dir.c_str(), 0755) == 0) return Status::OK();
  if (errno != EEXIST) return Status::FromErrno("mkdir", dir);
  struct stat st;
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::IOError(StrFormat(
        "spill: %s exists and is not a directory", dir.c_str()));
  }
  return Status::OK();
}

/// A short write-then-unlink round trip: surfaces a read-only or
/// quota-exhausted directory as a Status before any shard is spilled.
/// The probe file is unlinked on EVERY path — a failed WriteFile may
/// still have created (and partially filled) it.
Status ProbeWritable(const std::string& dir) {
  const std::string probe = dir + "/.kf-spill-probe";
  Status st = extract::WriteFile(probe, "kf");
  ::unlink(probe.c_str());
  if (!st.ok()) {
    return Status::IOError(StrFormat("spill: directory %s is not writable: %s",
                                     dir.c_str(), st.message().c_str()));
  }
  return Status::OK();
}

Result<std::string> MakeTempDir() {
  const char* base = ::getenv("TMPDIR");
  std::string templ = (base != nullptr && base[0] != '\0') ? base : "/tmp";
  templ += "/kf-spill-XXXXXX";
  if (const int e = fault::Inject("spill.mkdtemp")) {
    return Status::FromErrno("mkdtemp", templ, e);
  }
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    return Status::FromErrno("mkdtemp", templ);
  }
  return std::string(buf.data());
}

/// The store-facing span view of a shard's columns. The claim-graph
/// column types (kb::DataItemId, kb::TripleId) are uint32_t typedefs,
/// so the adaptation is purely structural.
store::ShardFileColumns ToFileColumns(uint32_t shard_id,
                                      const fusion::ShardColumns& c) {
  // A shard that never received a record keeps default-empty column
  // vectors: num_items == 0 yet the CSR contract still promises
  // num_items + 1 offset entries. Serve the lone [0] offset from a
  // static so the writer never reads through a null pointer.
  static constexpr uint32_t kEmptyOffsets[1] = {0};
  KF_CHECK(c.item_offsets != nullptr || c.num_items == 0);
  store::ShardFileColumns f;
  f.shard_id = shard_id;
  f.items = {c.items, c.num_items};
  f.item_offsets = {c.item_offsets != nullptr ? c.item_offsets : kEmptyOffsets,
                    static_cast<size_t>(c.num_items) + 1};
  f.item_multi = {c.item_multi, c.num_items};
  f.item_distinct = {c.item_distinct, c.num_items};
  f.claim_triple = {c.claim_triple, c.num_claims};
  f.claim_prov = {c.claim_prov, c.num_claims};
  f.prov_triples = {c.prov_triples, c.num_claims};
  return f;
}

fusion::ShardColumns ToGraphColumns(const store::ShardFileColumns& f) {
  fusion::ShardColumns c;
  c.items = f.items.ptr;
  c.item_offsets = f.item_offsets.ptr;
  c.item_multi = f.item_multi.ptr;
  c.item_distinct = f.item_distinct.ptr;
  c.claim_triple = f.claim_triple.ptr;
  c.claim_prov = f.claim_prov.ptr;
  c.prov_triples = f.prov_triples.ptr;
  c.num_items = static_cast<uint32_t>(f.num_items());
  c.num_claims = static_cast<uint32_t>(f.num_claims());
  return c;
}

}  // namespace

Status ProbeSpillDir(const std::string& spill_dir) {
  if (spill_dir.empty()) {
    Result<std::string> dir = MakeTempDir();
    if (!dir.ok()) return dir.status();
    Status probe = ProbeWritable(*dir);
    ::rmdir(dir->c_str());
    return probe;
  }
  KF_RETURN_IF_ERROR(EnsureDirectory(spill_dir));
  return ProbeWritable(spill_dir);
}

// ---- SpillScheduler ---------------------------------------------------

SpillPlan PlanSubsets(const fusion::ClaimGraph& graph, size_t budget_bytes) {
  const size_t n = graph.num_shards();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::vector<size_t> bytes(n);
  for (size_t s = 0; s < n; ++s) bytes[s] = graph.shard(s).SpillableBytes();
  // Largest first; stable so equal sizes keep ascending shard id — the
  // plan is a pure function of (shard sizes, budget).
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return bytes[a] > bytes[b];
  });

  SpillPlan plan;
  std::vector<size_t> subset_bytes;
  for (uint32_t s : order) {
    plan.largest_shard_bytes = std::max(plan.largest_shard_bytes, bytes[s]);
    // First-fit-decreasing over the open subsets. A shard larger than
    // the whole budget gets a subset of its own: the budget floor is
    // one shard (documented in spill.h).
    size_t target = subset_bytes.size();
    for (size_t i = 0; i < subset_bytes.size(); ++i) {
      if (subset_bytes[i] + bytes[s] <= budget_bytes) {
        target = i;
        break;
      }
    }
    if (target == subset_bytes.size()) {
      plan.subsets.emplace_back();
      subset_bytes.push_back(0);
    }
    plan.subsets[target].push_back(s);
    subset_bytes[target] += bytes[s];
  }
  if (plan.subsets.empty()) plan.subsets.emplace_back();  // 0-shard graph
  for (size_t b : subset_bytes) {
    plan.max_subset_bytes = std::max(plan.max_subset_bytes, b);
  }
  // Within a subset, sweep order is irrelevant to the bits (disjoint
  // slots) but ascending ids keep file access monotone.
  for (std::vector<uint32_t>& subset : plan.subsets) {
    std::sort(subset.begin(), subset.end());
  }
  return plan;
}

// ---- ShardSpillManager ------------------------------------------------

Result<std::unique_ptr<ShardSpillManager>> ShardSpillManager::Create(
    fusion::FusionEngine* engine) {
  KF_CHECK(engine != nullptr);
  const fusion::FusionOptions& options = engine->options();
  if (options.memory_budget_bytes == 0) {
    return Status::InvalidArgument(
        "spill: memory_budget_bytes must be positive (unbudgeted runs never "
        "construct a spill manager)");
  }
  std::unique_ptr<ShardSpillManager> mgr(new ShardSpillManager());
  mgr->engine_ = engine;
  mgr->graph_ = &engine->mutable_graph();
  if (options.spill_dir.empty()) {
    Result<std::string> dir = MakeTempDir();
    if (!dir.ok()) return dir.status();
    mgr->dir_ = *dir;
    mgr->owns_dir_ = true;
  } else {
    KF_RETURN_IF_ERROR(EnsureDirectory(options.spill_dir));
    mgr->dir_ = options.spill_dir;
  }
  Status probe = ProbeWritable(mgr->dir_);
  if (!probe.ok()) {
    // The destructor would remove an owned temp dir anyway, but be
    // explicit: a failed Create leaves nothing behind.
    if (mgr->owns_dir_) ::rmdir(mgr->dir_.c_str());
    mgr->owns_dir_ = false;
    mgr->dir_.clear();
    return probe;
  }
  mgr->file_valid_.assign(mgr->graph_->num_shards(), 0);
  mgr->maps_.resize(mgr->graph_->num_shards());
  return mgr;
}

ShardSpillManager::~ShardSpillManager() {
  if (graph_ != nullptr) {
    for (size_t s = 0; s < maps_.size(); ++s) {
      if (graph_->shard_residency(s) == fusion::ShardResidency::kMapped) {
        graph_->DetachShardColumns(s);
      }
    }
  }
  maps_.clear();  // unmap before the files go away
  RemoveFilesBestEffort();
}

std::string ShardSpillManager::ShardPath(uint32_t s) const {
  return StrFormat("%s/shard-%06u.kfs", dir_.c_str(), s);
}

Status ShardSpillManager::WriteShard(uint32_t s) {
  const fusion::ShardColumns cols = graph_->columns(s);
  const std::string image =
      store::BuildShardFile(ToFileColumns(s, cols));
  const std::string path = ShardPath(s);
  // Transient errors (EINTR/EAGAIN/ENOSPC) get a bounded retry before
  // the caller's degradation ladder takes over. AtomicWriteFile keeps
  // the destination old-or-new across every attempt, so retries never
  // see a torn file.
  KF_RETURN_IF_ERROR(
      RetryTransient(RetryPolicy{}, &stats_.transient_retries, [&] {
        if (const int e = fault::Inject("spill.write")) {
          return Status::FromErrno("write shard", path, e);
        }
        return store::AtomicWriteFile(path, image);
      }));
  file_valid_[s] = 1;
  ++stats_.files_written;
  stats_.bytes_written += image.size();
  return Status::OK();
}

Status ShardSpillManager::AttachShard(uint32_t s) {
  KF_CHECK(file_valid_[s]);  // evicted shards always have a current file
  const std::string path = ShardPath(s);
  store::ShardMmapView view;
  Status st = RetryTransient(RetryPolicy{}, &stats_.transient_retries, [&] {
    if (const int e = fault::Inject("spill.attach")) {
      return Status::FromErrno("open shard", path, e);
    }
    Result<store::ShardMmapView> opened = store::ShardMmapView::Open(path);
    if (!opened.ok()) return opened.status();
    view = std::move(*opened);
    return Status::OK();
  });
  // Validate beyond the container's own CRC/layout checks: the file must
  // hold THIS shard with the counts the graph remembers. A mismatch is
  // corruption (or a swapped file), not a usable attachment — checked
  // here so it lands on the quarantine path instead of the KF_CHECK in
  // AttachShardColumns.
  if (st.ok()) {
    const auto& sh = graph_->shard(s);
    if (view.columns().shard_id != s ||
        view.columns().num_items() != sh.num_items() ||
        view.columns().num_claims() != sh.num_claims()) {
      st = Status::InvalidArgument(
          StrFormat("spill: %s does not hold shard %u with the expected "
                    "column counts",
                    path.c_str(), s));
    }
  }
  if (!st.ok()) {
    // Quarantine: the file is unusable — drop it so nothing re-reads it,
    // then rebuild the shard from its always-resident record list. The
    // rebuilt columns are bit-identical to the spilled ones, so the run
    // carries on as if the fault never happened (it just re-spills the
    // shard the next time it goes cold).
    ::unlink(path.c_str());
    file_valid_[s] = 0;
    ++stats_.shards_quarantined;
    return Rematerialize(s);
  }
  maps_[s] = std::move(view);
  graph_->AttachShardColumns(s, ToGraphColumns(maps_[s].columns()));
  ++stats_.maps_opened;
  return Status::OK();
}

Status ShardSpillManager::Rematerialize(uint32_t s) {
  if (const int e = fault::Inject("spill.remat")) {
    return Status::FromErrno("rematerialize shard", StrFormat("%u", s), e);
  }
  engine_->RematerializeShard(s);
  ++stats_.shards_rematerialized;
  return Status::OK();
}

Status ShardSpillManager::DegradeToResident() {
  // Budget waiver: bring every shard back resident from memory, drop all
  // mappings and files, and stop touching the (dead) spill destination
  // for good. The result bits are unaffected — rematerialized columns
  // are identical to the spilled ones.
  const size_t n = graph_->num_shards();
  for (uint32_t s = 0; s < n; ++s) {
    switch (graph_->shard_residency(s)) {
      case fusion::ShardResidency::kResident:
        break;
      case fusion::ShardResidency::kMapped:
        graph_->DetachShardColumns(s);
        maps_[s] = store::ShardMmapView();
        KF_RETURN_IF_ERROR(Rematerialize(s));
        break;
      case fusion::ShardResidency::kEvicted:
        KF_RETURN_IF_ERROR(Rematerialize(s));
        break;
    }
    ::unlink(ShardPath(s).c_str());
    file_valid_[s] = 0;
  }
  degraded_ = true;
  stats_.resident_fallback = true;
  return Status::OK();
}

void ShardSpillManager::EvictShard(uint32_t s) {
  switch (graph_->shard_residency(s)) {
    case fusion::ShardResidency::kResident:
      graph_->ReleaseShardColumns(s);
      break;
    case fusion::ShardResidency::kMapped:
      graph_->DetachShardColumns(s);
      maps_[s] = store::ShardMmapView();
      break;
    case fusion::ShardResidency::kEvicted:
      break;
  }
}

Status ShardSpillManager::EnsureOnly(const std::vector<uint32_t>& subset) {
  const size_t n = graph_->num_shards();
  std::vector<uint8_t> want(n, 0);
  for (uint32_t s : subset) {
    KF_CHECK(s < n);
    want[s] = 1;
  }
  // Budget already waived: everything is resident and stays that way.
  if (degraded_) return Status::OK();
  // Evict first, then map: accounted bytes peak at
  // max(previous subset, new subset), never their sum.
  for (uint32_t s = 0; s < n; ++s) {
    if (want[s]) continue;
    if (graph_->shard_residency(s) == fusion::ShardResidency::kResident &&
        !file_valid_[s] && !WriteShard(s).ok()) {
      // A write that survived its retries means the destination is gone
      // (full disk, yanked mount): waive the budget and finish the run
      // fully resident rather than failing it.
      return DegradeToResident();
    }
    EvictShard(s);
  }
  for (uint32_t s = 0; s < n; ++s) {
    if (want[s] &&
        graph_->shard_residency(s) == fusion::ShardResidency::kEvicted) {
      // AttachShard recovers corrupt/unreadable files itself (quarantine
      // + rematerialize); an error here means the ladder ran dry.
      KF_RETURN_IF_ERROR(AttachShard(s));
    }
  }
  UpdateHighWater();
  return Status::OK();
}

Status ShardSpillManager::MapAll() {
  // Degraded: the end-of-run state is fully resident instead of fully
  // mapped — columns equally readable, just not file-backed.
  if (degraded_) return Status::OK();
  const size_t n = graph_->num_shards();
  // Spill every still-resident shard, then attach everything: all
  // columns readable, all backing pages file-backed and reclaimable.
  for (uint32_t s = 0; s < n; ++s) {
    if (graph_->shard_residency(s) == fusion::ShardResidency::kResident) {
      if (!file_valid_[s] && !WriteShard(s).ok()) return DegradeToResident();
      graph_->ReleaseShardColumns(s);
    }
  }
  for (uint32_t s = 0; s < n; ++s) {
    if (graph_->shard_residency(s) == fusion::ShardResidency::kEvicted) {
      KF_RETURN_IF_ERROR(AttachShard(s));
    }
  }
  // One repair pass: a shard whose file was quarantined during attach
  // came back resident with no current file — re-spill and re-attach it
  // so the end state is uniformly mapped. A second quarantine of the
  // same freshly-written file leaves the shard resident (columns still
  // readable).
  for (uint32_t s = 0; s < n; ++s) {
    if (graph_->shard_residency(s) == fusion::ShardResidency::kResident &&
        !file_valid_[s]) {
      if (!WriteShard(s).ok()) return DegradeToResident();
      graph_->ReleaseShardColumns(s);
      KF_RETURN_IF_ERROR(AttachShard(s));
    }
  }
  // Deliberately all-mapped: the end-of-run state exceeds the budget in
  // accounted bytes, but every page is file-backed and reclaimable — kept
  // out of the round-loop high-water by design.
  return Status::OK();
}

void ShardSpillManager::Reconcile() {
  // Shards the graph rebuilt are resident again with brand-new columns;
  // their disk copies are stale and any mapping we held for them now
  // backs nothing.
  for (uint32_t s : graph_->last_rebuilt_shards()) {
    KF_CHECK(s < file_valid_.size());
    file_valid_[s] = 0;
    maps_[s] = store::ShardMmapView();
  }
}

Status ShardSpillManager::RunRounds(fusion::FusionEngine::Start start,
                                    fusion::FusionResult* result) {
  plan_ = PlanSubsets(*graph_, engine_->options().memory_budget_bytes);
  // Constructed here, after the plan and before round 1: the tracker
  // resets the kernel's RSS high-water mark, so the peak covers the
  // round loop and not the graph build.
  PeakRssTracker rss;
  KF_RETURN_IF_ERROR(engine_->RunRounds(
      start, result, &plan_.subsets,
      [&](const std::vector<uint32_t>& subset) {
        const Status made = EnsureOnly(subset);
        rss.Sample();
        return made;
      }));
  KF_RETURN_IF_ERROR(MapAll());
  rss.Sample();
  peak_rss_ = rss.PeakBytes();
  return Status::OK();
}

void ShardSpillManager::UpdateHighWater() {
  size_t bytes = 0;
  for (size_t s = 0; s < graph_->num_shards(); ++s) {
    if (graph_->shard_residency(s) != fusion::ShardResidency::kEvicted) {
      bytes += graph_->shard(s).SpillableBytes();
    }
  }
  stats_.accounted_high_water = std::max(stats_.accounted_high_water, bytes);
}

void ShardSpillManager::RemoveFilesBestEffort() {
  if (dir_.empty()) return;
  for (size_t s = 0; s < file_valid_.size(); ++s) {
    ::unlink(ShardPath(static_cast<uint32_t>(s)).c_str());
  }
  if (owns_dir_) ::rmdir(dir_.c_str());
}

}  // namespace kf::spill
