// The sharded, columnar claim graph: the item/provenance groupings of the
// three-stage architecture (Fig. 8), built once instead of re-shuffled
// every round. Claims are hash-partitioned into shards by DataItemId; each
// shard stores its claims as CSR-grouped columns (item -> claim range) and
// regroups them by provenance in a local CSR (prov -> its claims in this
// shard). That local index is the only provenance index: no global
// directory spans the shards. Stage I of the engine sweeps the item
// groups; Stage II sweeps the local provenance groups and folds them per
// provenance in ascending shard order. Neither re-hashes or re-groups
// anything.
//
// Build: provenances get dense ids in global record order; each shard
// then deduplicates its records by (provenance, triple) and groups them by
// item. All three interning steps go through KeyIndex
// (common/flat_table.h), the shard's two presized from its record count,
// so no node-based map is on the build path. Stable radix permutations
// over the dense ids (fusion/column_sort.h) order a shard's claims by
// triple, as they are scattered into item groups, and by provenance.
//
// Incremental ingest: Update() consumes the records appended to the
// dataset since the last build, re-deduplicates only the shards whose data
// items are touched, and adjusts the per-provenance claim counts by the
// dirty shards' deltas. For a fixed shard count, appending then updating
// yields a graph bit-identical to a full rebuild over the concatenated
// dataset (provenance ids are interned in global record order, shard
// contents only depend on the shard's own record list).
#ifndef KF_FUSION_CLAIM_GRAPH_H_
#define KF_FUSION_CLAIM_GRAPH_H_

#include <cstdint>
#include <vector>

#include "common/flat_table.h"
#include "common/logging.h"
#include "extract/dataset.h"
#include "extract/provenance.h"
#include "fusion/partitioner.h"
#include "kb/ids.h"

namespace kf::fusion {

/// Hard ceiling on the shard count, enforced both by
/// FusionOptions::Validate (friendly Status) and by the ClaimGraph
/// constructor (KF_CHECK, covering the baseline runners).
inline constexpr size_t kMaxClaimGraphShards = size_t{1} << 20;

/// Non-owning view of one shard's spillable columns — everything the
/// sweeps read per claim/item. A resident shard serves the view off its
/// own vectors; a spilled shard serves it off an external mapping (a
/// kf::store shard file) attached by the spill layer. The counts stay
/// valid even while the pointers are detached, so scheduling and spill
/// planning never need the data pages.
struct ShardColumns {
  const kb::DataItemId* items = nullptr;
  const uint32_t* item_offsets = nullptr;  // num_items + 1 entries
  const uint8_t* item_multi = nullptr;
  const uint32_t* item_distinct = nullptr;
  const kb::TripleId* claim_triple = nullptr;
  const uint32_t* claim_prov = nullptr;
  const kb::TripleId* prov_triples = nullptr;
  uint32_t num_items = 0;
  uint32_t num_claims = 0;

  /// Bytes these columns occupy when materialized — the unit of the
  /// out-of-core memory budget. Computed from the counts, so it is
  /// identical for the resident and the mapped form.
  size_t SpillableBytes() const {
    return static_cast<size_t>(num_items) *
               (sizeof(kb::DataItemId) + sizeof(uint8_t) + sizeof(uint32_t)) +
           static_cast<size_t>(num_items + 1) * sizeof(uint32_t) +
           static_cast<size_t>(num_claims) *
               (sizeof(kb::TripleId) * 2 + sizeof(uint32_t));
  }
};

/// Where a shard's spillable columns currently live. Residency is driven
/// by the spill layer (spill::ShardSpillManager); a graph that is never
/// spilled stays kResident everywhere and pays nothing.
enum class ShardResidency : uint8_t {
  kResident = 0,  // owning vectors hold the columns
  kMapped = 1,    // an external (mmap) view attached by the spill layer
  kEvicted = 2,   // columns live only on disk; sweeps must not touch them
};

class ClaimGraph {
 public:
  static constexpr size_t kAllRecords = static_cast<size_t>(-1);

  /// One shard: the claims of every data item hashed here, deduplicated by
  /// (provenance, triple) and grouped by item. Items appear in first-seen
  /// order of the shard's records. Columns are parallel arrays indexed by
  /// the item CSR.
  ///
  /// Sorted-group invariant: within each item group the claims are sorted
  /// by TripleId, stable by first-seen (provenance) order — equal triples
  /// form contiguous runs and the claims of one triple keep global record
  /// order. Build() and Update() both establish it, so every ItemClaims
  /// view assembled from a shard is born sorted and Stage I can score with
  /// linear run-length sweeps instead of per-item hash maps.
  struct Shard {
    /// Record indices of the dataset routed to this shard, in dataset
    /// order. Kept so an invalidated shard can re-deduplicate locally.
    std::vector<uint32_t> records;

    std::vector<kb::DataItemId> items;
    /// Size items.size() + 1, so a shard that never received a record
    /// holds the lone [0] offset.
    std::vector<uint32_t> item_offsets = {0};
    /// Per item: some triple has >= 2 supporting claims (the round-1
    /// coverage-filter qualification, structural so computed at build).
    std::vector<uint8_t> item_multi;
    /// Per item: number of distinct triples (= sorted runs). Stage I sizes
    /// its TripleProbs scratch from this, so scoring never reallocates.
    std::vector<uint32_t> item_distinct;

    std::vector<kb::TripleId> claim_triple;
    std::vector<uint32_t> claim_prov;

    /// Local provenance cross-index: the shard's claims regrouped by
    /// provenance. prov_ids lists the distinct dense provenance ids
    /// claiming in this shard, ascending; prov_offsets is the CSR into
    /// prov_triples (size prov_ids.size() + 1). Within one provenance the
    /// triples keep the shard's final claim-column order, so a
    /// provenance's claims in the whole graph are its groups concatenated
    /// in ascending shard order — the order Stage II folds them in.
    /// Rebuilt together with the claim columns, so an Update() touches
    /// only the dirty shards' groups.
    std::vector<uint32_t> prov_ids;
    std::vector<uint32_t> prov_offsets = {0};
    std::vector<kb::TripleId> prov_triples;

    /// Residency of the spillable columns (items/item_* /claim_* /
    /// prov_triples). `records`, `prov_ids`, and `prov_offsets` are
    /// always resident: Update() re-deduplicates from `records`, the claim
    /// counts (AccumulateShardCounts) and Stage II's slot layout and fold
    /// read only the local prov CSR — so a clean spilled shard survives an
    /// Update() of its neighbors without touching disk.
    ShardResidency residency = ShardResidency::kResident;
    /// External column view when residency == kMapped. When kEvicted the
    /// pointers are null but the counts remain valid (scheduling and
    /// spill planning read them).
    ShardColumns mapped;

    size_t num_items() const {
      return residency == ShardResidency::kResident ? items.size()
                                                    : mapped.num_items;
    }
    size_t num_claims() const {
      return residency == ShardResidency::kResident ? claim_triple.size()
                                                    : mapped.num_claims;
    }
    size_t num_prov_groups() const { return prov_ids.size(); }

    /// The current column view (resident vectors or the attached
    /// mapping). Checked: an evicted shard has no columns to read.
    ShardColumns Columns() const {
      if (residency == ShardResidency::kMapped) return mapped;
      KF_CHECK(residency == ShardResidency::kResident);
      ShardColumns c;
      c.items = items.data();
      c.item_offsets = item_offsets.data();
      c.item_multi = item_multi.data();
      c.item_distinct = item_distinct.data();
      c.claim_triple = claim_triple.data();
      c.claim_prov = claim_prov.data();
      c.prov_triples = prov_triples.data();
      c.num_items = static_cast<uint32_t>(items.size());
      c.num_claims = static_cast<uint32_t>(claim_triple.size());
      return c;
    }

    /// Budget-accounting size of the spillable columns (resident or not).
    size_t SpillableBytes() const {
      ShardColumns c;
      c.num_items = static_cast<uint32_t>(num_items());
      c.num_claims = static_cast<uint32_t>(num_claims());
      return c.SpillableBytes();
    }
  };

  ClaimGraph() = default;

  /// Builds the graph over the first `num_records` records of `dataset`
  /// (all of them by default). `num_shards` 0 picks SuggestShards of
  /// the item count; the shard count is then fixed for the lifetime of the
  /// graph. `num_workers` parallelizes shard construction (0 = hardware);
  /// the result does not depend on it.
  ClaimGraph(const extract::ExtractionDataset& dataset,
             const extract::Granularity& granularity, size_t num_shards = 0,
             size_t num_workers = 0, size_t num_records = kAllRecords);

  /// Ingests records appended to `dataset` since the last build/update (up
  /// to `num_records`), rebuilding only the touched shards: clean shards
  /// keep their local prov groups, and the claim counts change by the
  /// dirty shards' deltas — the clean shards' data is never read. Returns
  /// the number of shards rebuilt (0 for an empty append). The dataset
  /// must be append-only with respect to the records already indexed.
  size_t Update(const extract::ExtractionDataset& dataset,
                size_t num_records = kAllRecords);

  // ---- shard access (Stage I sweeps) ----
  size_t num_shards() const { return shards_.size(); }
  const Shard& shard(size_t s) const { return shards_[s]; }
  size_t shard_of_item(kb::DataItemId item) const {
    return partitioner_.ShardOf(item);
  }

  // ---- residency control (driven by spill::ShardSpillManager) ----
  // The graph stays file-unaware: the spill layer preserves the columns
  // externally (kf::store shard files), releases the owning vectors, and
  // attaches mmap-backed views when a shard is scheduled. Sweeps read
  // whatever columns(s) serves, so resident and mapped shards take the
  // same code path. Not thread-safe against concurrent sweeps; callers
  // change residency only between sweeps.

  ShardResidency shard_residency(size_t s) const {
    return shards_[s].residency;
  }
  /// The shard's current column view (checked: not kEvicted).
  ShardColumns columns(size_t s) const { return shards_[s].Columns(); }

  /// kResident -> kEvicted: frees the owning spillable columns. The
  /// caller must have preserved their contents externally first (via
  /// columns(s)); metadata (records, prov_ids/prov_offsets, counts)
  /// stays, so Update() and Stage II's fold still work.
  void ReleaseShardColumns(size_t s);
  /// kEvicted -> kMapped: serves reads from `view`, whose counts must
  /// match the evicted columns (checked). The view's storage must outlive
  /// the attachment (the spill layer holds the mapping).
  void AttachShardColumns(size_t s, const ShardColumns& view);
  /// kMapped -> kEvicted: stops reading the external view (the caller
  /// may then unmap it).
  void DetachShardColumns(size_t s);

  /// kEvicted -> kResident: rebuilds the shard's spillable columns from
  /// its always-resident record list, bit-identical to the columns that
  /// were released (same dedup order, same values — the determinism the
  /// rebuild path of Update() already guarantees). The spill layer's
  /// corruption-recovery primitive: a quarantined shard file can be
  /// discarded and its shard restored without any disk read. Counts and
  /// the cross-index are unchanged, so no re-accounting happens.
  void RematerializeShard(const extract::ExtractionDataset& dataset,
                          size_t s);

  /// Shards the last Update() rebuilt (empty for an empty append). A
  /// rebuild always materializes the shard resident — the spill layer
  /// uses this list to invalidate stale spill files and re-account.
  const std::vector<uint32_t>& last_rebuilt_shards() const {
    return last_rebuilt_shards_;
  }

  // ---- provenance counts (the groups live in the shards) ----
  size_t num_provs() const { return prov_claims_.size(); }
  /// Claims per provenance.
  const std::vector<uint32_t>& prov_claims() const { return prov_claims_; }

  // ---- whole-graph statistics ----
  size_t num_claims() const { return num_claims_; }
  size_t num_records_indexed() const { return num_records_indexed_; }
  /// Dense provenance id of every indexed record, parallel to the first
  /// num_records_indexed() entries of dataset.records(). The supported
  /// way to project a dense provenance id back onto a full Provenance
  /// (pick any record of the id) — e.g. for rendering explanations.
  const std::vector<uint32_t>& record_provs() const { return record_prov_; }

  /// Visits every claim as fn(item, triple, prov), sweeping shards in
  /// order. This is the full-graph view; pass a single shard to
  /// ForEachClaimInShard for the shard-local one.
  template <typename Fn>
  void ForEachClaim(Fn&& fn) const {
    for (const Shard& sh : shards_) ForEachClaimInShard(sh, fn);
  }

  template <typename Fn>
  static void ForEachClaimInShard(const Shard& sh, Fn&& fn) {
    const ShardColumns c = sh.Columns();
    for (size_t g = 0; g < c.num_items; ++g) {
      for (uint32_t i = c.item_offsets[g]; i < c.item_offsets[g + 1]; ++i) {
        fn(c.items[g], c.claim_triple[i], c.claim_prov[i]);
      }
    }
  }

 private:
  void RebuildShard(const extract::ExtractionDataset& dataset, Shard* shard);
  /// Adds (sign +1) or removes (sign -1) a shard's local cross-index
  /// contribution to prov_claims_ / num_claims_.
  void AccumulateShardCounts(const Shard& shard, int sign);

  extract::Granularity granularity_;
  Partitioner partitioner_{1};
  size_t num_workers_ = 0;

  std::vector<Shard> shards_;
  /// ProvenanceKey -> dense provenance id, interned in global record order
  /// (so ids are stable under appends).
  KeyIndex prov_index_;
  /// Dense provenance id of every indexed record (avoids re-hashing
  /// provenances when a shard is rebuilt).
  std::vector<uint32_t> record_prov_;

  size_t num_records_indexed_ = 0;
  size_t num_claims_ = 0;
  /// Maintained by per-shard deltas in Update(): only dirty shards'
  /// contributions are subtracted and re-added.
  std::vector<uint32_t> prov_claims_;
  std::vector<uint32_t> last_rebuilt_shards_;
};

}  // namespace kf::fusion

#endif  // KF_FUSION_CLAIM_GRAPH_H_
