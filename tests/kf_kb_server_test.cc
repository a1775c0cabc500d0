// kf::KbServer functional contract: publish generations are monotonic and
// self-describing, readers pin immutable snapshots whose answers never
// change across later publishes, convenience queries stamp the serving
// generation, and old generations are destroyed exactly when the last
// holder releases them (never earlier, never kept alive by the server).
// The concurrent half of the contract lives in kf_kb_server_stress_test.
#include "kf/kb_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "synth/corpus.h"

namespace kf {
namespace {

const synth::SynthCorpus& SmallCorpus() {
  static const synth::SynthCorpus& corpus = *new synth::SynthCorpus(
      synth::GenerateCorpus(synth::SynthConfig::Small()));
  return corpus;
}

/// Server over a prefix of the small corpus, leaving a tail to stream in.
/// ACCU converges under warm start (see kf_session_test).
KbServer::Options ServerOptions() {
  KbServer::Options options;
  options.fusion.method = fusion::Method::kAccu;
  options.fusion.max_rounds = 100;
  options.fusion.convergence_epsilon = 1e-3;
  options.fusion.num_shards = 16;
  return options;
}

struct Streaming {
  std::unique_ptr<KbServer> server;
  std::vector<extract::ExtractionRecord> tail;  // ready to Append
};

/// A server over the first `keep_fraction` of the corpus plus the
/// re-interned remainder as appendable batches.
Streaming MakeStreamingServer(double keep_fraction) {
  const auto& src = SmallCorpus().dataset;
  const size_t base =
      static_cast<size_t>(static_cast<double>(src.num_records()) *
                          keep_fraction);
  extract::ExtractionDataset dataset = extract::CloneRecordPrefix(src, base);
  Streaming out;
  // Intern the tail against the dataset BEFORE the server takes ownership
  // (mutable_dataset() also works, but this keeps the fixture simple).
  out.tail = extract::ReinternTail(src, base, &dataset);
  out.server =
      std::make_unique<KbServer>(std::move(dataset), ServerOptions());
  return out;
}

TEST(KbServerTest, NothingPublishedBeforeFirstPublish) {
  Streaming s = MakeStreamingServer(0.5);
  EXPECT_EQ(s.server->published_seqno(), 0u);
  EXPECT_EQ(s.server->Acquire(), nullptr);
  EXPECT_FALSE(s.server->Lookup("s0", "p0").has_value());
  EXPECT_TRUE(s.server->TopK(5).empty());
  EXPECT_EQ(s.server->stats().publishes, 0u);
  EXPECT_EQ(s.server->stats().current.seqno, 0u);
}

TEST(KbServerTest, PublishProducesMonotonicSelfDescribingGenerations) {
  Streaming s = MakeStreamingServer(0.5);
  Result<KbSnapshotStats> first = s.server->Publish();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->seqno, 1u);
  EXPECT_GT(first->num_triples, 0u);
  EXPECT_GT(first->num_rounds, 0u);
  EXPECT_GE(first->build_micros, 0);
  EXPECT_EQ(s.server->published_seqno(), 1u);

  KbSnapshotRef snap = s.server->Acquire();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->stats().seqno, 1u);
  EXPECT_EQ(snap->stats().num_triples, snap->kb().num_triples());

  Result<KbSnapshotStats> second = s.server->AppendAndPublish(s.tail);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->seqno, 2u);
  EXPECT_EQ(s.server->published_seqno(), 2u);
  EXPECT_GE(second->num_records, first->num_records);
  EXPECT_GT(second->num_records, 0u);

  KbServer::ServerStats stats = s.server->stats();
  EXPECT_EQ(stats.publishes, 2u);
  EXPECT_EQ(stats.current.seqno, 2u);
  EXPECT_GE(stats.total_build_micros,
            first->build_micros + second->build_micros);
}

TEST(KbServerTest, WarmPublishMatchesColdServerOverSameRecords) {
  // Generation 2 (warm Refuse after a small Append) must answer like a
  // fresh server cold-fused over the identical record sequence: same
  // triples, same prediction masks, probabilities within the convergence
  // tolerance (the streaming contract established in kf_session_test for
  // small appends — both runs stop within epsilon of the same fixed
  // point, not bit-identically).
  const auto& warm_src = SmallCorpus().dataset;
  const size_t warm_base = warm_src.num_records() - 5;
  extract::ExtractionDataset warm_dataset =
      extract::CloneRecordPrefix(warm_src, warm_base);
  std::vector<extract::ExtractionRecord> warm_tail =
      extract::ReinternTail(warm_src, warm_base, &warm_dataset);
  KbServer warm_server(std::move(warm_dataset), ServerOptions());
  ASSERT_TRUE(warm_server.Publish().ok());
  ASSERT_TRUE(warm_server.AppendAndPublish(warm_tail).ok());
  KbSnapshotRef warm = warm_server.Acquire();
  ASSERT_NE(warm, nullptr);

  const auto& src = SmallCorpus().dataset;
  KbServer cold(extract::CloneRecordPrefix(src, src.num_records()),
                ServerOptions());
  ASSERT_TRUE(cold.Publish().ok());
  KbSnapshotRef fresh = cold.Acquire();
  ASSERT_NE(fresh, nullptr);

  ASSERT_EQ(warm->kb().num_triples(), fresh->kb().num_triples());
  double max_diff = 0.0;
  for (uint32_t t = 0; t < fresh->kb().num_triples(); ++t) {
    KbVerdict w = warm->kb().verdict(t);
    KbVerdict f = fresh->kb().verdict(t);
    EXPECT_EQ(w.subject, f.subject);
    EXPECT_EQ(w.predicate, f.predicate);
    EXPECT_EQ(w.object, f.object);
    ASSERT_EQ(w.has_probability, f.has_probability);
    ASSERT_EQ(w.from_fallback, f.from_fallback);
    if (!f.has_probability) continue;
    max_diff = std::max(max_diff, std::fabs(w.probability - f.probability));
  }
  EXPECT_LT(max_diff, 0.05);
}

TEST(KbServerTest, ConvenienceQueriesStampTheServingGeneration) {
  Streaming s = MakeStreamingServer(0.5);
  ASSERT_TRUE(s.server->Publish().ok());
  std::vector<ServedVerdict> top = s.server->TopK(5);
  ASSERT_FALSE(top.empty());
  for (const ServedVerdict& v : top) EXPECT_EQ(v.seqno, 1u);

  std::optional<ServedVerdict> lookup =
      s.server->Lookup(top[0].subject, top[0].predicate);
  ASSERT_TRUE(lookup.has_value());
  EXPECT_EQ(lookup->seqno, 1u);
  EXPECT_TRUE(lookup->has_probability);
  EXPECT_TRUE(lookup->winner);

  std::optional<ServedVerdict> verdict = s.server->Verdict(
      top[0].subject, top[0].predicate, top[0].object);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->probability, top[0].probability);

  ASSERT_TRUE(s.server->AppendAndPublish(s.tail).ok());
  std::optional<ServedVerdict> later =
      s.server->Lookup(top[0].subject, top[0].predicate);
  ASSERT_TRUE(later.has_value());
  EXPECT_EQ(later->seqno, 2u);
}

TEST(KbServerTest, ReaderCachesGenerationUntilNextPublish) {
  Streaming s = MakeStreamingServer(0.5);
  KbServer::Reader reader(*s.server);
  EXPECT_EQ(reader.Acquire(), nullptr);
  EXPECT_EQ(reader.seqno(), 0u);

  ASSERT_TRUE(s.server->Publish().ok());
  const KbSnapshotRef& first = reader.Acquire();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(reader.seqno(), 1u);
  // Steady state: the exact same object, no pointer re-read.
  EXPECT_EQ(reader.Acquire().get(), first.get());

  ASSERT_TRUE(s.server->AppendAndPublish(s.tail).ok());
  const KbSnapshotRef& second = reader.Acquire();
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(reader.seqno(), 2u);
  EXPECT_NE(second->stats().seqno, 1u);

  reader.Release();
  EXPECT_EQ(reader.seqno(), 0u);
  EXPECT_NE(reader.Acquire(), nullptr);  // re-pins the current generation
}

// ---- snapshot lifetime (the destruction-order contract) ----

TEST(KbServerTest, HeldSnapshotStaysBitIdenticalAcrossManyPublishes) {
  Streaming s = MakeStreamingServer(0.5);
  ASSERT_TRUE(s.server->Publish().ok());
  KbSnapshotRef pinned = s.server->Acquire();
  ASSERT_NE(pinned, nullptr);
  const std::string before = pinned->kb().ToTsv();
  const size_t triples_before = pinned->kb().num_triples();

  // Drip the tail in over many generations; each publish re-fuses and
  // swaps a new snapshot in.
  const size_t kBatches = 20;
  size_t done = 0;
  for (size_t b = 0; b < kBatches; ++b) {
    const size_t upto = b + 1 == kBatches
                            ? s.tail.size()
                            : done + s.tail.size() / kBatches;
    std::vector<extract::ExtractionRecord> batch(
        s.tail.begin() + static_cast<ptrdiff_t>(done),
        s.tail.begin() + static_cast<ptrdiff_t>(upto));
    done = upto;
    ASSERT_TRUE(s.server->AppendAndPublish(batch).ok());
  }
  EXPECT_EQ(s.server->published_seqno(), 1 + kBatches);

  // The pinned generation never moved: same triples, byte-identical
  // serialization, while the live generation grew past it (more fused
  // records; triple count is stable because the fixture interns the whole
  // corpus's triples up front).
  EXPECT_EQ(pinned->stats().seqno, 1u);
  EXPECT_EQ(pinned->kb().num_triples(), triples_before);
  EXPECT_EQ(pinned->kb().ToTsv(), before);
  KbSnapshotRef live = s.server->Acquire();
  ASSERT_NE(live, nullptr);
  EXPECT_GT(live->stats().num_records, pinned->stats().num_records);
  EXPECT_NE(live->kb().ToTsv(), before);
}

TEST(KbServerTest, OldGenerationDiesExactlyWithItsLastHolder) {
  Streaming s = MakeStreamingServer(0.5);
  ASSERT_TRUE(s.server->Publish().ok());
  KbSnapshotRef holder_a = s.server->Acquire();
  KbSnapshotRef holder_b = holder_a;
  std::weak_ptr<const KbSnapshot> watch = holder_a;

  // Publishing newer generations must not destroy the old one while any
  // holder remains — and the server itself must not keep it alive either.
  ASSERT_TRUE(s.server->AppendAndPublish(s.tail).ok());
  ASSERT_TRUE(s.server->Publish().ok());  // no-append republish, gen 3
  EXPECT_FALSE(watch.expired());

  holder_a.reset();
  EXPECT_FALSE(watch.expired());  // holder_b still pins it
  EXPECT_EQ(holder_b->stats().seqno, 1u);
  holder_b.reset();
  EXPECT_TRUE(watch.expired());  // last holder gone -> destroyed

  // The live generation is unaffected.
  KbSnapshotRef live = s.server->Acquire();
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->stats().seqno, 3u);
}

TEST(KbServerTest, SnapshotOutlivesTheServer) {
  KbSnapshotRef pinned;
  std::string before;
  {
    Streaming s = MakeStreamingServer(1.0);
    ASSERT_TRUE(s.server->Publish().ok());
    pinned = s.server->Acquire();
    ASSERT_NE(pinned, nullptr);
    before = pinned->kb().ToTsv();
  }  // server (and its Session + dataset) destroyed here
  EXPECT_EQ(pinned->kb().ToTsv(), before);
  EXPECT_GT(pinned->kb().num_triples(), 0u);
}

TEST(KbServerTest, PublishOnEmptyDatasetFailsAndPublishesNothing) {
  KbServer server(extract::ExtractionDataset(), ServerOptions());
  Result<KbSnapshotStats> r = server.Publish();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(server.published_seqno(), 0u);
  EXPECT_EQ(server.Acquire(), nullptr);
}

TEST(KbServerTest, NamingCollisionFailsPublishAndKeepsLastGoodGeneration) {
  // A pure naming whose one collision only shows up once a new data item
  // arrives: subject id `fresh` renders like the subject of item 0, and
  // the fresh item shares item 0's predicate.
  extract::ExtractionDataset dataset = extract::CloneRecordPrefix(
      SmallCorpus().dataset, SmallCorpus().dataset.num_records());
  kb::EntityId fresh = 0;
  for (const kb::DataItem& item : dataset.items()) {
    fresh = std::max<kb::EntityId>(fresh, item.subject + 1);
  }
  const kb::DataItem victim = dataset.item(0);
  KbServer::Options options = ServerOptions();
  options.naming.subject = [fresh, victim](kb::EntityId e) {
    return "s" + std::to_string(e == fresh ? victim.subject : e);
  };
  KbServer server(std::move(dataset), options);
  ASSERT_TRUE(server.Publish().ok());
  const std::string victim_name = "s" + std::to_string(victim.subject);
  std::optional<ServedVerdict> before = server.Lookup(
      victim_name, "p" + std::to_string(victim.predicate));
  ASSERT_TRUE(before.has_value());

  // One record of the fresh item, claimed by an existing provenance.
  extract::ExtractionDataset& live = server.mutable_dataset();
  extract::ExtractionRecord record;
  for (const extract::ExtractionRecord& r : live.records()) {
    if (live.triple(r.triple).item == 0) {
      record = r;
      break;
    }
  }
  record.triple = live.InternTriple(kb::DataItem{fresh, victim.predicate},
                                    live.triple(record.triple).object,
                                    false, false);
  Result<KbSnapshotStats> failed = server.AppendAndPublish({record});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(failed.status().message().find(victim_name), std::string::npos)
      << failed.status().message();

  // Nothing was published: readers stay on generation 1 and get its
  // answers, and the failure is counted.
  EXPECT_EQ(server.stats().publish_failures, 1u);
  EXPECT_EQ(server.stats().publishes, 1u);
  EXPECT_EQ(server.published_seqno(), 1u);
  KbSnapshotRef snap = server.Acquire();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->stats().seqno, 1u);
  std::optional<ServedVerdict> after = server.Lookup(
      victim_name, "p" + std::to_string(victim.predicate));
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->seqno, 1u);
  EXPECT_EQ(after->object, before->object);
  EXPECT_EQ(after->probability, before->probability);
}

TEST(KbServerDeathTest, NonEngineMethodIsRejectedAtConstruction) {
  KbServer::Options options = ServerOptions();
  options.fusion.method = fusion::Method::kTruthFinder;  // a baseline
  ASSERT_DEATH(
      { KbServer server(extract::ExtractionDataset(), options); }, "");
}

}  // namespace
}  // namespace kf
