// kf::KbServer — the serving layer: lock-free snapshot reads under a live
// writer (the HTAP-style split the ROADMAP names). One logical writer
// thread streams extraction records in (`Append`), re-fuses warm
// (`Publish` -> Session::Refuse), and atomically publishes the result as
// an immutable kf::FusedKB snapshot; any number of reader threads answer
// Lookup/Verdict/TopK against the snapshot they hold, with no lock shared
// with the writer on the read path.
//
//   KbServer server(std::move(dataset), options);
//   server.Publish();                       // cold fuse, generation 1
//   // writer thread:
//   server.Append(batch); server.Publish(); // warm refuse, generation 2
//   // reader threads:
//   KbSnapshotRef snap = server.Acquire();  // pin a generation
//   auto v = snap->kb().Lookup("TomCruise", "birth_date");
//
// Publish protocol and memory-ordering contract
// ---------------------------------------------
// The writer fully builds the new KbSnapshot (plain writes, no reader can
// see it yet), then
//   1. atomically swaps the snapshot pointer      (release), then
//   2. stores the new generation seqno            (release).
// A reader either Acquire()s the pointer directly (acquire) or polls
// published_seqno() (acquire) and re-Acquires only on change
// (KbServer::Reader does exactly that). Both orders guarantee that every
// byte of a snapshot happened-before any reader dereference of it, and
// that after observing seqno S a reader's next Acquire() returns a
// snapshot with seqno >= S — generations are monotonic per reader.
//
// Snapshot-vs-live ownership: a snapshot is a self-contained deep copy
// (it owns its string tables and indexes and never points into the
// Session). Acquire() hands out shared ownership; an old generation stays
// bit-identical and alive until its last holder releases it, then it is
// destroyed on whichever thread dropped the last reference — often a
// reader. That costs the reader fewer than thirty frees: a FusedKB is flat
// columns (arena strings, id and probability arrays, flat tables), with
// nothing allocated per string or per index entry, so there is no
// retirement queue. The writer never blocks on readers and readers never
// block on the writer.
//
// Implementation note: the swap uses the C++17 atomic shared_ptr free
// functions. Readers never take a KbServer mutex and never wait on the
// writer; libstdc++ implements the shared_ptr load with a tiny internal
// spinlock pool, so the read path is lock-free with respect to the server
// (wait-free steady-state via KbServer::Reader, which only touches one
// atomic seqno load until a new generation appears).
#ifndef KF_KF_KB_SERVER_H_
#define KF_KF_KB_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "extract/dataset.h"
#include "fusion/options.h"
#include "kf/fused_kb.h"
#include "kf/session.h"

namespace kf {

/// Per-generation publish statistics, frozen into the snapshot.
struct KbSnapshotStats {
  /// Publish sequence number: 1 for the first generation, +1 per Publish.
  uint64_t seqno = 0;
  /// Triples / records fused into this generation.
  size_t num_triples = 0;
  size_t num_records = 0;
  /// Fusion rounds of the producing run (cold Fuse or warm Refuse).
  size_t num_rounds = 0;
  /// Wall time of the producing run: (re)fuse + snapshot + index build.
  int64_t build_micros = 0;

  // ---- fault recovery of the producing run (zero for resident runs) ----
  /// Transient spill I/O errors absorbed by retry-with-backoff.
  uint64_t spill_transient_retries = 0;
  /// Corrupt/unreadable spill files quarantined and rebuilt from memory.
  size_t spill_shards_quarantined = 0;
  /// The producing run finished fully resident after its spill
  /// destination died mid-run (budget waived, result still bit-identical).
  bool spill_resident_fallback = false;
};

/// One published generation: an immutable FusedKB plus its stats. Never
/// mutated after publish; destroyed when the last holder releases it.
class KbSnapshot {
 public:
  const FusedKB& kb() const { return kb_; }
  const KbSnapshotStats& stats() const { return stats_; }

 private:
  friend class KbServer;
  FusedKB kb_;
  KbSnapshotStats stats_;
};

/// Shared ownership of a generation. Holding one pins the snapshot: its
/// answers stay bit-identical across any number of later publishes.
using KbSnapshotRef = std::shared_ptr<const KbSnapshot>;

/// A verdict copied out of whichever generation served it — an owning
/// convenience type (strings, not string_views) for callers that do not
/// hold the snapshot. Hot readers should Acquire() and query the FusedKB
/// directly instead.
struct ServedVerdict {
  std::string subject;
  std::string predicate;
  std::string object;
  double probability = 0.0;
  double calibrated = 0.0;
  bool has_probability = false;
  bool winner = false;
  /// Generation that answered.
  uint64_t seqno = 0;
};

class KbServer {
 public:
  struct Options {
    /// Method + engine knobs for the cold first Fuse; Publish() inherits
    /// warm-start settings from options.fusion.warm_start. Must name an
    /// engine method (vote / accu / popaccu) — snapshots need engine state.
    fusion::FusionOptions fusion;
    /// Resolves interned ids to strings at snapshot time.
    SnapshotNaming naming;
  };

  /// Takes ownership of the dataset (the server's Session streams into
  /// it). Nothing is fused yet: call Publish() for generation 1.
  explicit KbServer(extract::ExtractionDataset dataset, Options options);

  /// Readers hold pointers to the server: pinned in memory.
  KbServer(const KbServer&) = delete;
  KbServer& operator=(const KbServer&) = delete;

  // ---- writer API ----
  // One logical writer; concurrent writer calls are serialized on an
  // internal mutex (readers never touch it). The dataset and Session are
  // writer-side state only — readers see exclusively published snapshots.

  /// Interns new triples/items before handing records to Append(). Writer
  /// thread only.
  extract::ExtractionDataset& mutable_dataset();

  /// Stages extraction records (all-or-nothing, like Session::Append).
  /// Readers keep seeing the current generation until Publish().
  Status Append(const std::vector<extract::ExtractionRecord>& records);

  /// Fuses everything staged so far and atomically publishes the result
  /// as the next generation: cold Fuse on the first call, warm Refuse
  /// after. Returns the new generation's stats. On error nothing is
  /// published and readers keep the current generation.
  Result<KbSnapshotStats> Publish();

  /// Append + Publish in one writer step.
  Result<KbSnapshotStats> AppendAndPublish(
      const std::vector<extract::ExtractionRecord>& records);

  // ---- reader API ----
  // Safe from any thread, concurrently with one writer. No server mutex
  // is ever taken here.

  /// The current generation, or null before the first Publish(). The
  /// returned ref pins the snapshot for as long as it is held.
  KbSnapshotRef Acquire() const;

  /// Seqno of the newest published generation (0 before the first). After
  /// observing S here, Acquire() returns a generation >= S.
  uint64_t published_seqno() const {
    return published_seqno_.load(std::memory_order_acquire);
  }

  /// Convenience single-shot queries: Acquire() + query + copy the answer
  /// out (owning strings, stamped with the serving generation). Empty /
  /// nullopt before the first Publish().
  std::optional<ServedVerdict> Lookup(std::string_view subject,
                                      std::string_view predicate) const;
  std::optional<ServedVerdict> Verdict(std::string_view subject,
                                       std::string_view predicate,
                                       std::string_view object) const;
  std::vector<ServedVerdict> TopK(size_t k) const;

  // ---- server statistics ----

  struct ServerStats {
    uint64_t publishes = 0;
    /// Publish() calls that returned an error. Nothing was published on
    /// those: readers kept (and keep) the last good generation, and the
    /// writer may simply retry.
    uint64_t publish_failures = 0;
    /// Sum of all generations' build_micros.
    int64_t total_build_micros = 0;
    /// Stats of the current generation (seqno 0 when none published).
    KbSnapshotStats current;
  };
  ServerStats stats() const;

  /// A per-reader-thread handle caching the last acquired generation.
  /// Steady state (no new publish) costs one acquire-load of the seqno —
  /// wait-free, no shared_ptr refcount traffic; the shared_ptr is re-read
  /// only when the seqno moved. Not thread-safe itself: one Reader per
  /// thread.
  class Reader {
   public:
    explicit Reader(const KbServer& server) : server_(&server) {}

    /// Current generation (refreshing the cache only on seqno change);
    /// null before the first Publish().
    const KbSnapshotRef& Acquire() {
      const uint64_t s = server_->published_seqno();
      if (s != cached_seqno_) {
        cached_ = server_->Acquire();
        // The snapshot may already be newer than s; cache ITS seqno so a
        // later poll does not re-read the pointer for a generation we
        // already hold.
        cached_seqno_ = cached_ ? cached_->stats().seqno : 0;
      }
      return cached_;
    }

    /// Seqno of the cached generation (0 when none).
    uint64_t seqno() const { return cached_seqno_; }
    /// Drops the pin without destroying the Reader.
    void Release() {
      cached_.reset();
      cached_seqno_ = 0;
    }

   private:
    const KbServer* server_;
    KbSnapshotRef cached_;
    uint64_t cached_seqno_ = 0;
  };

 private:
  Options options_;
  /// Writer-side state; guarded by writer_mu_.
  mutable std::mutex writer_mu_;
  std::unique_ptr<Session> session_;
  uint64_t publishes_ = 0;
  uint64_t publish_failures_ = 0;
  int64_t total_build_micros_ = 0;

  /// The published generation. Accessed ONLY through the atomic
  /// shared_ptr free functions (store: writer under writer_mu_; load: any
  /// reader).
  KbSnapshotRef current_;
  std::atomic<uint64_t> published_seqno_{0};
};

}  // namespace kf

#endif  // KF_KF_KB_SERVER_H_
