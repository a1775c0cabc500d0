#include "fusion/claim_graph.h"

#include <algorithm>

#include "common/logging.h"
#include "common/threadpool.h"
#include "fusion/column_sort.h"

namespace kf::fusion {

ClaimGraph::ClaimGraph(const extract::ExtractionDataset& dataset,
                       const extract::Granularity& granularity,
                       size_t num_shards, size_t num_workers,
                       size_t num_records)
    : granularity_(granularity),
      partitioner_(num_shards > 0 ? num_shards
                                  : SuggestShards(dataset.num_items())),
      num_workers_(num_workers) {
  KF_CHECK(partitioner_.num_shards() <= kMaxClaimGraphShards);
  shards_.resize(partitioner_.num_shards());
  Update(dataset, num_records);
}

size_t ClaimGraph::Update(const extract::ExtractionDataset& dataset,
                          size_t num_records) {
  const size_t n = std::min(num_records, dataset.num_records());
  KF_CHECK(n >= num_records_indexed_);  // the dataset is append-only
  if (n == num_records_indexed_) {
    // Nothing rebuilt: a stale list would make the spill layer drop the
    // mappings of shards that are still attached.
    last_rebuilt_shards_.clear();
    return 0;
  }
  // A default-constructed graph is only a move-assignment placeholder; it
  // has no shards to route into.
  KF_CHECK(!shards_.empty());

  // Route the new records: intern provenances in global record order (so
  // dense prov ids match a full rebuild of the concatenated dataset) and
  // mark every shard that receives a record dirty.
  std::vector<uint8_t> dirty(shards_.size(), 0);
  // Grow geometrically: reserving exactly `n` would reallocate and copy
  // the whole array on every append.
  if (n > record_prov_.capacity()) {
    record_prov_.reserve(std::max(n, 2 * record_prov_.capacity()));
  }
  // An extractor emits a page's triples together, so a record mostly has
  // the provenance of the one before it: only a new key is looked up.
  uint64_t last_key = 0;
  uint32_t last_prov = KeyIndex::kAbsent;
  for (size_t i = num_records_indexed_; i < n; ++i) {
    const extract::ExtractionRecord& r = dataset.records()[i];
    KF_CHECK(r.triple < dataset.num_triples());
    const uint64_t key = extract::ProvenanceKey(r.prov, granularity_);
    if (key != last_key || last_prov == KeyIndex::kAbsent) {
      last_prov =
          prov_index_.Intern(key, static_cast<uint32_t>(prov_index_.size()));
      last_key = key;
    }
    record_prov_.push_back(last_prov);
    size_t s = partitioner_.ShardOf(dataset.triple(r.triple).item);
    shards_[s].records.push_back(static_cast<uint32_t>(i));
    dirty[s] = 1;
  }
  num_records_indexed_ = n;

  std::vector<uint32_t>& dirty_shards = last_rebuilt_shards_;
  dirty_shards.clear();
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (dirty[s]) dirty_shards.push_back(static_cast<uint32_t>(s));
  }
  // Adjust the claim counts instead of re-counting every claim: retire
  // the dirty shards' old local-index contributions, rebuild those shards
  // (claim columns + local prov index), and re-add their new
  // contributions. Clean shards are never touched.
  prov_claims_.resize(prov_index_.size(), 0);  // new provs enter at 0
  for (uint32_t s : dirty_shards) AccumulateShardCounts(shards_[s], -1);
  // Shard rebuilds are independent (each touches only its own Shard), so
  // the result is identical for any worker count.
  ParallelFor(dirty_shards.size(), num_workers_, [&](size_t d) {
    RebuildShard(dataset, &shards_[dirty_shards[d]]);
  });
  for (uint32_t s : dirty_shards) AccumulateShardCounts(shards_[s], +1);
  return dirty_shards.size();
}

void ClaimGraph::RebuildShard(const extract::ExtractionDataset& dataset,
                              Shard* shard) {
  // A rebuild re-derives every spillable column from the (always
  // resident) record list, so a spilled dirty shard simply comes back
  // resident — no disk read. The spill layer learns about it through
  // last_rebuilt_shards() and invalidates the stale file.
  shard->residency = ShardResidency::kResident;
  shard->mapped = ShardColumns{};
  // Re-deduplicate the shard's full record list: first-seen order for both
  // (prov, triple) pairs and items, exactly as a full build would see them.
  // The record count bounds both, so nothing below grows while it fills.
  const size_t num_records = shard->records.size();
  KeyIndex claim_index;  // (prov, triple) -> flat claim
  KeyIndex item_index;   // item -> group
  claim_index.Reserve(num_records);
  item_index.Reserve(num_records);
  std::vector<kb::TripleId> flat_triple;
  std::vector<uint32_t> flat_prov;
  std::vector<uint32_t> flat_group;  // item group of each claim
  flat_triple.reserve(num_records);
  flat_prov.reserve(num_records);
  flat_group.reserve(num_records);
  std::vector<uint32_t> group_counts;
  shard->items.clear();

  const std::vector<uint32_t>& records = shard->records;
  for (size_t k = 0; k < num_records; ++k) {
    // A shard's records are scattered over the dataset: fetch ahead.
    if (k + 16 < num_records) {
      __builtin_prefetch(&dataset.records()[records[k + 16]]);
    }
    const uint32_t idx = records[k];
    const extract::ExtractionRecord& r = dataset.records()[idx];
    const uint32_t prov = record_prov_[idx];
    const auto next_claim = static_cast<uint32_t>(flat_triple.size());
    const uint32_t claim =
        claim_index.Intern(KeyIndex::Key(prov, r.triple), next_claim);
    if (claim != next_claim) continue;
    const kb::DataItemId item = dataset.triple(r.triple).item;
    const auto next_group = static_cast<uint32_t>(shard->items.size());
    const uint32_t group = item_index.Intern(item, next_group);
    if (group == next_group) {
      shard->items.push_back(item);
      group_counts.push_back(0);
    }
    flat_triple.push_back(r.triple);
    flat_prov.push_back(prov);
    flat_group.push_back(group);
    ++group_counts[group];
  }

  // Stable counting sort of the flat claims into item-grouped CSR columns,
  // visiting them in stable triple order (fusion/column_sort.h): each
  // group comes out sorted by triple, the claims of one triple in global
  // first-seen order. That is the sorted-group invariant, with no sort per
  // group; triple ids are dense, so radix passes order them in linear time.
  shard->item_offsets = CsrOffsets(group_counts);
  const size_t num_claims = flat_triple.size();
  shard->claim_triple.resize(num_claims);
  shard->claim_prov.resize(num_claims);
  std::vector<uint32_t> cursor(shard->item_offsets.begin(),
                               shard->item_offsets.end() - 1);
  std::vector<uint32_t> perm;
  RadixSortPermutation(flat_triple.data(), num_claims, &perm);
  for (uint32_t i : perm) {
    const uint32_t pos = cursor[flat_group[i]]++;
    shard->claim_triple[pos] = flat_triple[i];
    shard->claim_prov[pos] = flat_prov[i];
  }

  shard->item_multi.assign(shard->num_items(), 0);
  shard->item_distinct.assign(shard->num_items(), 0);
  for (size_t g = 0; g < shard->num_items(); ++g) {
    const uint32_t begin = shard->item_offsets[g];
    const uint32_t end = shard->item_offsets[g + 1];
    // Runs are contiguous: multi-support flag and distinct-triple count
    // come from one linear pass, no hash map.
    uint32_t distinct = 0;
    for (uint32_t i = begin; i < end;) {
      uint32_t j = i + 1;
      while (j < end && shard->claim_triple[j] == shard->claim_triple[i]) {
        ++j;
      }
      ++distinct;
      if (j - i >= 2) shard->item_multi[g] = 1;
      i = j;
    }
    shard->item_distinct[g] = distinct;
  }

  // Local provenance cross-index over the FINAL claim columns. A stable
  // permutation by prov keeps each provenance's triples in claim-column
  // order, so the sequence Stage II folds (a provenance's groups in
  // ascending shard order) depends only on each shard's own records.
  // Provenance ids are dense too.
  RadixSortPermutation(shard->claim_prov.data(), num_claims, &perm);
  shard->prov_ids.clear();
  shard->prov_offsets.clear();
  shard->prov_triples.resize(num_claims);
  for (size_t i = 0; i < num_claims; ++i) {
    const uint32_t p = shard->claim_prov[perm[i]];
    if (shard->prov_ids.empty() || shard->prov_ids.back() != p) {
      shard->prov_ids.push_back(p);
      shard->prov_offsets.push_back(static_cast<uint32_t>(i));
    }
    shard->prov_triples[i] = shard->claim_triple[perm[i]];
  }
  shard->prov_offsets.push_back(static_cast<uint32_t>(num_claims));
}

void ClaimGraph::ReleaseShardColumns(size_t s) {
  Shard& sh = shards_[s];
  KF_CHECK(sh.residency == ShardResidency::kResident);
  ShardColumns counts;
  counts.num_items = static_cast<uint32_t>(sh.items.size());
  counts.num_claims = static_cast<uint32_t>(sh.claim_triple.size());
  // shrink-to-fit via swap: clear() alone keeps the capacity allocated,
  // which is exactly the memory the eviction is supposed to give back.
  std::vector<kb::DataItemId>().swap(sh.items);
  std::vector<uint32_t>().swap(sh.item_offsets);
  std::vector<uint8_t>().swap(sh.item_multi);
  std::vector<uint32_t>().swap(sh.item_distinct);
  std::vector<kb::TripleId>().swap(sh.claim_triple);
  std::vector<uint32_t>().swap(sh.claim_prov);
  std::vector<kb::TripleId>().swap(sh.prov_triples);
  sh.mapped = counts;  // pointers null: kEvicted keeps only the counts
  sh.residency = ShardResidency::kEvicted;
}

void ClaimGraph::AttachShardColumns(size_t s, const ShardColumns& view) {
  Shard& sh = shards_[s];
  KF_CHECK(sh.residency == ShardResidency::kEvicted);
  KF_CHECK(view.num_items == sh.mapped.num_items &&
           view.num_claims == sh.mapped.num_claims);
  sh.mapped = view;
  sh.residency = ShardResidency::kMapped;
}

void ClaimGraph::DetachShardColumns(size_t s) {
  Shard& sh = shards_[s];
  KF_CHECK(sh.residency == ShardResidency::kMapped);
  ShardColumns counts;
  counts.num_items = sh.mapped.num_items;
  counts.num_claims = sh.mapped.num_claims;
  sh.mapped = counts;
  sh.residency = ShardResidency::kEvicted;
}

void ClaimGraph::RematerializeShard(const extract::ExtractionDataset& dataset,
                                    size_t s) {
  Shard& sh = shards_[s];
  KF_CHECK(sh.residency == ShardResidency::kEvicted);
  // The rebuild is a pure function of (records, record_prov_), both
  // always resident, so the columns come back bit-identical to what
  // ReleaseShardColumns freed — prov_ids/prov_offsets and every count
  // are overwritten with their current values, and the cross-index needs
  // no re-accounting.
  RebuildShard(dataset, &sh);
}

void ClaimGraph::AccumulateShardCounts(const Shard& shard, int sign) {
  for (size_t k = 0; k < shard.num_prov_groups(); ++k) {
    const uint32_t width = shard.prov_offsets[k + 1] - shard.prov_offsets[k];
    if (sign > 0) {
      prov_claims_[shard.prov_ids[k]] += width;
    } else {
      KF_CHECK(prov_claims_[shard.prov_ids[k]] >= width);
      prov_claims_[shard.prov_ids[k]] -= width;
    }
  }
  if (sign > 0) {
    num_claims_ += shard.num_claims();
  } else {
    KF_CHECK(num_claims_ >= shard.num_claims());
    num_claims_ -= shard.num_claims();
  }
}

}  // namespace kf::fusion
