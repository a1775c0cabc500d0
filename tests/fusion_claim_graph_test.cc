#include "fusion/claim_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <unordered_map>

#include "common/checksum.h"
#include "synth/corpus.h"

namespace kf::fusion {
namespace {

// ---- the flat oracle ----
//
// The reference the graph is checked against: the records projected onto
// deduplicated (provenance, triple) claims in one flat, record-order
// list, with hash maps and no sharding. Provenance ids are interned in
// record order, as the graph interns them.

/// A deduplicated (provenance, triple) support pair.
struct Claim {
  kb::TripleId triple = 0;
  kb::DataItemId item = 0;
  uint32_t prov = 0;  // dense pseudo-source id under the granularity
};

struct ClaimSet {
  std::vector<Claim> claims;
  size_t num_provs = 0;
  /// Claims per provenance.
  std::vector<uint32_t> prov_claims;
  /// Claims per data item.
  std::vector<uint32_t> item_claims;
  /// Max confidence any record assigned to the (prov, triple) pair, or -1
  /// when no contributing record had a confidence.
  std::vector<float> confidence;
};

ClaimSet BuildClaimSet(const extract::ExtractionDataset& dataset,
                       const extract::Granularity& granularity) {
  ClaimSet set;
  std::unordered_map<uint64_t, uint32_t> prov_index;
  std::unordered_map<uint64_t, uint32_t> pair_index;  // (prov, triple)
  for (const extract::ExtractionRecord& r : dataset.records()) {
    uint64_t key = extract::ProvenanceKey(r.prov, granularity);
    uint32_t prov =
        prov_index.emplace(key, static_cast<uint32_t>(prov_index.size()))
            .first->second;
    uint64_t pair_key =
        (static_cast<uint64_t>(prov) << 32) | static_cast<uint64_t>(r.triple);
    auto [it, inserted] = pair_index.emplace(
        pair_key, static_cast<uint32_t>(set.claims.size()));
    if (inserted) {
      set.claims.push_back(
          Claim{r.triple, dataset.triple(r.triple).item, prov});
      set.confidence.push_back(r.has_confidence ? r.confidence : -1.0f);
    } else if (r.has_confidence) {
      float& conf = set.confidence[it->second];
      conf = std::max(conf, r.confidence);
    }
  }
  set.num_provs = prov_index.size();
  set.prov_claims.assign(set.num_provs, 0);
  set.item_claims.assign(dataset.num_items(), 0);
  for (const Claim& c : set.claims) {
    ++set.prov_claims[c.prov];
    ++set.item_claims[c.item];
  }
  return set;
}

extract::ExtractionDataset TwoSiteDataset() {
  extract::ExtractionDataset d;
  d.SetExtractors({extract::ExtractorMeta{"E0", extract::ContentType::kTxt,
                                          true, 0, 0},
                   extract::ExtractorMeta{"E1", extract::ContentType::kDom,
                                          false, 1, 0}});
  d.SetUrlSites({0, 0, 1});
  d.SetCounts(2, 2, 2);
  auto add = [&](kb::ValueId o, uint32_t ext, uint32_t url, float conf,
                 bool has_conf) {
    kb::TripleId t = d.InternTriple(kb::DataItem{1, 0}, o, false, false);
    extract::ExtractionRecord r;
    r.triple = t;
    r.prov.extractor = ext;
    r.prov.url = url;
    r.prov.site = d.site_of_url(url);
    r.prov.pattern = ext;
    r.prov.predicate = 0;
    r.confidence = conf;
    r.has_confidence = has_conf;
    d.AddRecord(r);
  };
  add(10, 0, 0, 0.5f, true);
  add(10, 0, 0, 0.9f, true);  // duplicate (prov, triple), higher conf
  add(10, 0, 1, 0.4f, true);  // same extractor, other url, same site
  add(11, 1, 2, 0.0f, false);
  return d;
}

// The oracle's own cases on a hand-built dataset, each checked against the
// graph as well.

TEST(ClaimSetTest, DedupesAtUrlGranularity) {
  auto d = TwoSiteDataset();
  auto gran = extract::Granularity::ExtractorUrl();
  ClaimSet set = BuildClaimSet(d, gran);
  // (E0,url0,t10), (E0,url1,t10), (E1,url2,t11).
  EXPECT_EQ(set.claims.size(), 3u);
  EXPECT_EQ(set.num_provs, 3u);
  ClaimGraph graph(d, gran, /*num_shards=*/4);
  EXPECT_EQ(graph.num_claims(), 3u);
  EXPECT_EQ(graph.num_provs(), 3u);
}

TEST(ClaimSetTest, DedupesAtSiteGranularity) {
  auto d = TwoSiteDataset();
  auto gran = extract::Granularity::ExtractorSite();
  ClaimSet set = BuildClaimSet(d, gran);
  // url0 and url1 share site 0, so E0's two claims on t10 collapse.
  EXPECT_EQ(set.claims.size(), 2u);
  EXPECT_EQ(set.num_provs, 2u);
  ClaimGraph graph(d, gran, /*num_shards=*/4);
  EXPECT_EQ(graph.num_claims(), 2u);
  EXPECT_EQ(graph.num_provs(), 2u);
}

TEST(ClaimSetTest, KeepsMaxConfidence) {
  auto d = TwoSiteDataset();
  auto gran = extract::Granularity::ExtractorUrl();
  const kb::TripleId t10 = d.FindTriple(kb::DataItem{1, 0}, 10);
  ClaimSet set = BuildClaimSet(d, gran);
  // The duplicate record had confidence 0.9 > 0.5.
  bool found = false;
  for (size_t i = 0; i < set.claims.size(); ++i) {
    if (set.claims[i].triple == t10 && set.confidence[i] > 0.0f) {
      EXPECT_GE(set.confidence[i], 0.4f);
      if (set.confidence[i] == 0.9f) found = true;
    }
  }
  EXPECT_TRUE(found);
  std::multiset<float> graph_confidences;
  ClaimGraph(d, gran, /*num_shards=*/4)
      .ForEachClaim([&](kb::DataItemId, kb::TripleId triple, uint32_t,
                        float conf) {
        if (triple == t10) graph_confidences.insert(conf);
      });
  EXPECT_EQ(graph_confidences, (std::multiset<float>{0.4f, 0.9f}));
}

TEST(ClaimSetTest, NoConfidenceIsMinusOne) {
  auto d = TwoSiteDataset();
  auto gran = extract::Granularity::ExtractorUrl();
  kb::TripleId t11 = d.FindTriple(kb::DataItem{1, 0}, 11);
  ClaimSet set = BuildClaimSet(d, gran);
  for (size_t i = 0; i < set.claims.size(); ++i) {
    if (set.claims[i].triple == t11) {
      EXPECT_FLOAT_EQ(set.confidence[i], -1.0f);
    }
  }
  ClaimGraph(d, gran, /*num_shards=*/4)
      .ForEachClaim([&](kb::DataItemId, kb::TripleId triple, uint32_t,
                        float conf) {
        if (triple == t11) {
          EXPECT_FLOAT_EQ(conf, -1.0f);
        }
      });
}

TEST(ClaimSetTest, CountsPerProvenanceAndItem) {
  auto d = TwoSiteDataset();
  auto gran = extract::Granularity::ExtractorUrl();
  ClaimSet set = BuildClaimSet(d, gran);
  uint32_t total_prov = 0, total_item = 0;
  for (uint32_t c : set.prov_claims) total_prov += c;
  for (uint32_t c : set.item_claims) total_item += c;
  EXPECT_EQ(total_prov, set.claims.size());
  EXPECT_EQ(total_item, set.claims.size());
  ClaimGraph graph(d, gran, /*num_shards=*/4);
  EXPECT_EQ(graph.prov_claims(), set.prov_claims);
  size_t graph_item_claims = 0;
  for (size_t s = 0; s < graph.num_shards(); ++s) {
    const ClaimGraph::Shard& sh = graph.shard(s);
    for (size_t g = 0; g < sh.num_items(); ++g) {
      graph_item_claims += sh.item_offsets[g + 1] - sh.item_offsets[g];
    }
  }
  EXPECT_EQ(graph_item_claims, set.claims.size());
}

TEST(ClaimSetTest, EmptyDataset) {
  extract::ExtractionDataset d;
  ClaimSet set = BuildClaimSet(d, extract::Granularity::ExtractorUrl());
  EXPECT_TRUE(set.claims.empty());
  EXPECT_EQ(set.num_provs, 0u);
  ClaimGraph graph(d, extract::Granularity::ExtractorUrl());
  EXPECT_EQ(graph.num_claims(), 0u);
  EXPECT_EQ(graph.num_provs(), 0u);
}

// ---- the graph on the synthetic corpus ----

const synth::SynthCorpus& SmallCorpus() {
  static const synth::SynthCorpus& corpus = *new synth::SynthCorpus(
      synth::GenerateCorpus(synth::SynthConfig::Small()));
  return corpus;
}

using ClaimTuple = std::tuple<kb::DataItemId, kb::TripleId, uint32_t, float>;

std::multiset<ClaimTuple> GraphClaims(const ClaimGraph& graph) {
  std::multiset<ClaimTuple> out;
  graph.ForEachClaim([&](kb::DataItemId item, kb::TripleId triple,
                         uint32_t prov, float conf) {
    out.insert({item, triple, prov, conf});
  });
  return out;
}

TEST(ClaimGraphTest, MatchesClaimSetOnSynthCorpus) {
  const auto& corpus = SmallCorpus();
  auto gran = extract::Granularity::ExtractorUrl();
  ClaimSet set = BuildClaimSet(corpus.dataset, gran);
  ClaimGraph graph(corpus.dataset, gran, /*num_shards=*/8);

  EXPECT_EQ(graph.num_claims(), set.claims.size());
  EXPECT_EQ(graph.num_provs(), set.num_provs);
  EXPECT_EQ(graph.num_records_indexed(), corpus.dataset.num_records());
  ASSERT_EQ(graph.prov_claims().size(), set.prov_claims.size());
  EXPECT_EQ(graph.prov_claims(), set.prov_claims);

  // Same deduplicated claim multiset, including merged confidences. The
  // prov interner visits records in the same global order as BuildClaimSet,
  // so dense prov ids agree exactly.
  std::multiset<ClaimTuple> expected;
  for (size_t i = 0; i < set.claims.size(); ++i) {
    const Claim& c = set.claims[i];
    expected.insert({c.item, c.triple, c.prov, set.confidence[i]});
  }
  EXPECT_EQ(GraphClaims(graph), expected);
}

TEST(ClaimGraphTest, ShardsPartitionItemsDisjointly) {
  const auto& corpus = SmallCorpus();
  ClaimGraph graph(corpus.dataset, extract::Granularity::ExtractorUrl(),
                   /*num_shards=*/16);
  std::set<kb::DataItemId> seen;
  for (size_t s = 0; s < graph.num_shards(); ++s) {
    const ClaimGraph::Shard& sh = graph.shard(s);
    ASSERT_EQ(sh.item_offsets.size(), sh.num_items() + 1);
    ASSERT_EQ(sh.item_multi.size(), sh.num_items());
    EXPECT_EQ(sh.item_offsets.back(), sh.num_claims());
    for (kb::DataItemId item : sh.items) {
      EXPECT_EQ(graph.shard_of_item(item), s);
      EXPECT_TRUE(seen.insert(item).second) << "item in two shards";
    }
  }
}

/// The global per-prov triple sequences: each provenance's shard-local
/// groups concatenated in ascending shard order, the order Stage II folds
/// them in.
std::vector<std::vector<kb::TripleId>> ProvSequences(const ClaimGraph& graph) {
  std::vector<std::vector<kb::TripleId>> out(graph.num_provs());
  for (size_t s = 0; s < graph.num_shards(); ++s) {
    const ClaimGraph::Shard& sh = graph.shard(s);
    for (size_t k = 0; k < sh.num_prov_groups(); ++k) {
      out[sh.prov_ids[k]].insert(
          out[sh.prov_ids[k]].end(),
          sh.prov_triples.begin() + sh.prov_offsets[k],
          sh.prov_triples.begin() + sh.prov_offsets[k + 1]);
    }
  }
  return out;
}

TEST(ClaimGraphTest, ProvCrossIndexCoversEveryClaim) {
  const auto& corpus = SmallCorpus();
  ClaimGraph graph(corpus.dataset, extract::Granularity::ExtractorSite(),
                   /*num_shards=*/8);
  // Cross-index multiset == shard-column multiset, per provenance; counts
  // and total must add up to every deduplicated claim exactly once.
  std::vector<std::multiset<kb::TripleId>> from_shards(graph.num_provs());
  graph.ForEachClaim([&](kb::DataItemId, kb::TripleId triple, uint32_t prov,
                         float) { from_shards[prov].insert(triple); });
  size_t total = 0;
  const auto sequences = ProvSequences(graph);
  for (size_t p = 0; p < graph.num_provs(); ++p) {
    std::multiset<kb::TripleId> from_index(sequences[p].begin(),
                                           sequences[p].end());
    ASSERT_EQ(from_index, from_shards[p]) << "prov " << p;
    ASSERT_EQ(sequences[p].size(), graph.prov_claims()[p]) << "prov " << p;
    total += sequences[p].size();
  }
  EXPECT_EQ(total, graph.num_claims());
}

TEST(ClaimGraphTest, ShardLocalProvIndexMatchesClaimColumns) {
  const auto& corpus = SmallCorpus();
  ClaimGraph graph(corpus.dataset, extract::Granularity::ExtractorUrl(),
                   /*num_shards=*/8);
  for (size_t s = 0; s < graph.num_shards(); ++s) {
    const ClaimGraph::Shard& sh = graph.shard(s);
    ASSERT_EQ(sh.prov_offsets.size(), sh.num_prov_groups() + 1);
    ASSERT_EQ(sh.prov_triples.size(), sh.num_claims());
    ASSERT_TRUE(std::is_sorted(sh.prov_ids.begin(), sh.prov_ids.end()));
    // Per provenance, the local group must equal the subsequence of the
    // claim columns claimed by that provenance, in claim-column order.
    std::map<uint32_t, std::vector<kb::TripleId>> expected;
    for (size_t i = 0; i < sh.num_claims(); ++i) {
      expected[sh.claim_prov[i]].push_back(sh.claim_triple[i]);
    }
    ASSERT_EQ(sh.num_prov_groups(), expected.size());
    for (size_t k = 0; k < sh.num_prov_groups(); ++k) {
      std::vector<kb::TripleId> local(
          sh.prov_triples.begin() + sh.prov_offsets[k],
          sh.prov_triples.begin() + sh.prov_offsets[k + 1]);
      ASSERT_EQ(local, expected[sh.prov_ids[k]])
          << "shard " << s << " prov " << sh.prov_ids[k];
    }
  }
}

TEST(ClaimGraphTest, ItemMultiFlagsMatchSupportCounts) {
  const auto& corpus = SmallCorpus();
  ClaimGraph graph(corpus.dataset, extract::Granularity::ExtractorUrl(),
                   /*num_shards=*/8);
  for (size_t s = 0; s < graph.num_shards(); ++s) {
    const ClaimGraph::Shard& sh = graph.shard(s);
    for (size_t g = 0; g < sh.num_items(); ++g) {
      std::map<kb::TripleId, int> support;
      bool multi = false;
      for (uint32_t i = sh.item_offsets[g]; i < sh.item_offsets[g + 1];
           ++i) {
        if (++support[sh.claim_triple[i]] >= 2) multi = true;
      }
      ASSERT_EQ(sh.item_multi[g] != 0, multi);
    }
  }
}

bool ShardsEqual(const ClaimGraph::Shard& a, const ClaimGraph::Shard& b) {
  return a.records == b.records && a.items == b.items &&
         a.item_offsets == b.item_offsets && a.item_multi == b.item_multi &&
         a.item_distinct == b.item_distinct &&
         a.claim_triple == b.claim_triple && a.claim_prov == b.claim_prov &&
         a.claim_confidence == b.claim_confidence &&
         a.prov_ids == b.prov_ids && a.prov_offsets == b.prov_offsets &&
         a.prov_triples == b.prov_triples;
}

// The sorted-group invariant the run-length Stage I scorers rely on:
// within every item group, claims are in nondecreasing TripleId order and
// the derived run statistics (item_distinct, item_multi) match the runs.
void ExpectSortedGroups(const ClaimGraph& graph) {
  for (size_t s = 0; s < graph.num_shards(); ++s) {
    const ClaimGraph::Shard& sh = graph.shard(s);
    ASSERT_EQ(sh.item_distinct.size(), sh.num_items());
    for (size_t g = 0; g < sh.num_items(); ++g) {
      const uint32_t begin = sh.item_offsets[g];
      const uint32_t end = sh.item_offsets[g + 1];
      ASSERT_TRUE(std::is_sorted(sh.claim_triple.begin() + begin,
                                 sh.claim_triple.begin() + end))
          << "shard " << s << " group " << g;
      uint32_t distinct = 0;
      bool multi = false;
      for (uint32_t i = begin; i < end;) {
        uint32_t j = i + 1;
        while (j < end && sh.claim_triple[j] == sh.claim_triple[i]) ++j;
        ++distinct;
        if (j - i >= 2) multi = true;
        i = j;
      }
      ASSERT_EQ(sh.item_distinct[g], distinct);
      ASSERT_EQ(sh.item_multi[g] != 0, multi);
    }
  }
}

TEST(ClaimGraphTest, ItemGroupsAreTripleSortedAfterBuild) {
  const auto& corpus = SmallCorpus();
  ClaimGraph graph(corpus.dataset, extract::Granularity::ExtractorUrl(),
                   /*num_shards=*/8);
  ExpectSortedGroups(graph);
}

TEST(ClaimGraphTest, ItemGroupsStayTripleSortedAfterDirtyUpdate) {
  const auto& corpus = SmallCorpus();
  auto gran = extract::Granularity::ExtractorUrl();
  const size_t total = corpus.dataset.num_records();
  ClaimGraph graph(corpus.dataset, gran, /*num_shards=*/8, /*num_workers=*/1,
                   /*num_records=*/total / 2);
  ExpectSortedGroups(graph);
  ASSERT_GT(graph.Update(corpus.dataset), 0u);
  ExpectSortedGroups(graph);
}

TEST(ClaimGraphTest, SortIsStableByFirstSeenProvenance) {
  // Within one triple's run, claims must keep global record (first-seen)
  // order — the stability half of the invariant, which makes per-triple
  // accumulation bit-identical to the historical unsorted sweep. First
  // occurrence positions in record order are exactly what BuildClaimSet
  // produces, so compare per-(item, triple) provenance sequences.
  const auto& corpus = SmallCorpus();
  auto gran = extract::Granularity::ExtractorUrl();
  ClaimSet set = BuildClaimSet(corpus.dataset, gran);
  ClaimGraph graph(corpus.dataset, gran, /*num_shards=*/8);
  std::map<std::pair<kb::DataItemId, kb::TripleId>, std::vector<uint32_t>>
      expected;
  for (const Claim& c : set.claims) {
    expected[{c.item, c.triple}].push_back(c.prov);
  }
  std::map<std::pair<kb::DataItemId, kb::TripleId>, std::vector<uint32_t>>
      actual;
  graph.ForEachClaim([&](kb::DataItemId item, kb::TripleId triple,
                         uint32_t prov, float) {
    actual[{item, triple}].push_back(prov);
  });
  EXPECT_EQ(actual, expected);
}

TEST(ClaimGraphTest, IncrementalUpdateMatchesFullBuild) {
  const auto& corpus = SmallCorpus();
  auto gran = extract::Granularity::ExtractorUrl();
  const size_t total = corpus.dataset.num_records();
  const size_t base = total / 2;

  ClaimGraph full(corpus.dataset, gran, /*num_shards=*/8);
  ClaimGraph incr(corpus.dataset, gran, /*num_shards=*/8, /*num_workers=*/1,
                  /*num_records=*/base);
  EXPECT_EQ(incr.num_records_indexed(), base);
  size_t rebuilt = incr.Update(corpus.dataset);
  EXPECT_GT(rebuilt, 0u);
  EXPECT_LE(rebuilt, incr.num_shards());

  ASSERT_EQ(incr.num_shards(), full.num_shards());
  for (size_t s = 0; s < full.num_shards(); ++s) {
    ASSERT_TRUE(ShardsEqual(incr.shard(s), full.shard(s))) << "shard " << s;
  }
  // The spliced cross-index must agree with the full build EXACTLY —
  // same per-prov triple sequences (order matters: Stage II reduces in
  // this order), same counts, same claim total.
  EXPECT_EQ(ProvSequences(incr), ProvSequences(full));
  EXPECT_EQ(incr.prov_claims(), full.prov_claims());
  EXPECT_EQ(incr.num_claims(), full.num_claims());
}

TEST(ClaimGraphTest, EmptyUpdateRebuildsNothing) {
  const auto& corpus = SmallCorpus();
  ClaimGraph graph(corpus.dataset, extract::Granularity::ExtractorUrl(),
                   /*num_shards=*/8);
  ASSERT_FALSE(graph.last_rebuilt_shards().empty());  // the initial build
  EXPECT_EQ(graph.Update(corpus.dataset), 0u);
  // The spill layer drops the mappings of every listed shard, so an
  // empty append must list none.
  EXPECT_TRUE(graph.last_rebuilt_shards().empty());
}

TEST(ClaimGraphTest, UntouchedShardsAreNotRebuilt) {
  const auto& corpus = SmallCorpus();
  auto gran = extract::Granularity::ExtractorUrl();
  const size_t total = corpus.dataset.num_records();
  // Appending a single record touches exactly one shard.
  ClaimGraph graph(corpus.dataset, gran, /*num_shards=*/32, /*num_workers=*/1,
                   /*num_records=*/total - 1);
  EXPECT_EQ(graph.Update(corpus.dataset), 1u);
}

TEST(ClaimGraphTest, OneRecordAppendsGrowRecordProvsGeometrically) {
  // A streaming writer appends a few records at a time. Growing the
  // per-record provenance array to the exact new size on every append
  // would copy the whole array each time; geometric growth reallocates it
  // O(log appends) times.
  const auto& corpus = SmallCorpus();
  const size_t total = corpus.dataset.num_records();
  constexpr size_t kAppends = 1000;
  ASSERT_GT(total, kAppends);
  ClaimGraph graph(corpus.dataset, extract::Granularity::ExtractorUrl(),
                   /*num_shards=*/16, /*num_workers=*/1,
                   /*num_records=*/total - kAppends);
  size_t capacity = graph.record_provs().capacity();
  size_t changes = 0;
  for (size_t n = total - kAppends + 1; n <= total; ++n) {
    graph.Update(corpus.dataset, n);
    ASSERT_EQ(graph.record_provs().size(), n);
    if (graph.record_provs().capacity() != capacity) {
      capacity = graph.record_provs().capacity();
      ++changes;
    }
  }
  EXPECT_LE(changes, 11u);
}

// ---- Graph columns pinned across versions ----
//
// The tests above compare the graph with an oracle or with itself. This
// case pins every column a build or an update produces to CRC-32
// constants recorded from an earlier implementation, so a change to the
// interning, the dedupe or the sorts that moves one id, one claim or one
// segment fails here. A deliberate change to the graph's layout
// re-records the constants.
uint32_t GraphCrc(const ClaimGraph& graph) {
  uint32_t crc = 0;
  auto add = [&crc](const auto& column) {
    crc = Crc32(column.data(), column.size() * sizeof(column[0]), crc);
  };
  for (size_t s = 0; s < graph.num_shards(); ++s) {
    const ClaimGraph::Shard& sh = graph.shard(s);
    add(sh.records);
    add(sh.items);
    add(sh.item_offsets);
    add(sh.item_multi);
    add(sh.item_distinct);
    add(sh.claim_triple);
    add(sh.claim_prov);
    add(sh.claim_confidence);
    add(sh.prov_ids);
    add(sh.prov_offsets);
    add(sh.prov_triples);
  }
  add(graph.prov_claims());
  add(graph.record_provs());
  return crc;
}

std::string Hex(uint32_t v) {
  std::ostringstream out;
  out << std::hex << "0x" << v;
  return out.str();
}

TEST(ClaimGraphTest, ColumnsMatchRecordedOutput) {
  const auto& dataset = SmallCorpus().dataset;
  const ClaimGraph url16(dataset, extract::Granularity::ExtractorUrl(),
                         /*num_shards=*/16);
  EXPECT_EQ(GraphCrc(url16), 0x376400au)
      << "(Extractor, URL) at 16 shards: got " << Hex(GraphCrc(url16));

  const ClaimGraph pattern64(
      dataset, extract::Granularity::ExtractorSitePredicatePattern(),
      /*num_shards=*/64);
  EXPECT_EQ(GraphCrc(pattern64), 0x997a814du)
      << "(Extractor, Site, Predicate, Pattern) at 64 shards: got "
      << Hex(GraphCrc(pattern64));

  // Half the corpus, then the rest in 10 appends: every update path
  // (dirty-shard rebuilds, new provenances, the claim-count deltas) runs.
  const size_t total = dataset.num_records();
  const size_t base = total / 2;
  ClaimGraph appended(dataset, extract::Granularity::ExtractorUrl(),
                      /*num_shards=*/16, /*num_workers=*/1,
                      /*num_records=*/base);
  for (size_t k = 1; k <= 10; ++k) {
    appended.Update(dataset, base + (total - base) * k / 10);
  }
  ASSERT_EQ(appended.num_records_indexed(), total);
  // Equal to the full build's constant: an update is bit-identical to a
  // build over the concatenated records.
  EXPECT_EQ(GraphCrc(appended), 0x376400au)
      << "16 shards after 10 appends: got " << Hex(GraphCrc(appended));
}

}  // namespace
}  // namespace kf::fusion
