#include "kf/kb_server.h"

#include <chrono>
#include <utility>

#include "common/logging.h"

namespace kf {
namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ServedVerdict CopyOut(const KbVerdict& v, uint64_t seqno) {
  ServedVerdict out;
  out.subject = std::string(v.subject);
  out.predicate = std::string(v.predicate);
  out.object = std::string(v.object);
  out.probability = v.probability;
  out.calibrated = v.calibrated;
  out.has_probability = v.has_probability;
  out.winner = v.winner;
  out.seqno = seqno;
  return out;
}

}  // namespace

KbServer::KbServer(extract::ExtractionDataset dataset, Options options)
    : options_(std::move(options)),
      session_(std::make_unique<Session>(std::move(dataset))) {
  // Snapshots require engine state, so the configured method must be an
  // engine method. Catch misconfiguration at construction instead of on
  // the first Publish().
  KF_CHECK(fusion::IsEngineMethod(options_.fusion.method));
}

extract::ExtractionDataset& KbServer::mutable_dataset() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return session_->mutable_dataset();
}

Status KbServer::Append(
    const std::vector<extract::ExtractionRecord>& records) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return session_->Append(records);
}

Result<KbSnapshotStats> KbServer::Publish() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  const int64_t start = NowMicros();

  // A warm Refuse keeps the spill manager and its lifetime counters, so a
  // generation stamps only what its own run added to them; a cold Fuse
  // builds a new manager that starts at zero.
  const bool warm = session_->can_refuse();
  spill::SpillStats spill_before;
  if (warm && session_->spill_stats() != nullptr) {
    spill_before = *session_->spill_stats();
  }

  // Cold first generation, warm re-fusion after: Refuse() re-syncs only
  // dirty shards and iterates until reconvergence.
  // A failed (re)fuse publishes nothing: current_ and published_seqno_
  // are untouched, so readers keep serving the last good generation and
  // the writer can retry once the fault clears.
  Result<fusion::FusionResult> run =
      warm ? session_->Refuse() : session_->Fuse(options_.fusion);
  if (!run.ok()) {
    ++publish_failures_;
    return run.status();
  }

  Result<FusedKB> kb = session_->Snapshot(options_.naming);
  if (!kb.ok()) {
    ++publish_failures_;
    return kb.status();
  }

  auto snap = std::make_shared<KbSnapshot>();
  snap->kb_ = std::move(kb).value();
  snap->stats_.seqno = publishes_ + 1;
  snap->stats_.num_triples = snap->kb_.num_triples();
  snap->stats_.num_records = session_->dataset().num_records();
  snap->stats_.num_rounds = run->num_rounds;
  snap->stats_.build_micros = NowMicros() - start;
  if (const spill::SpillStats* sp = session_->spill_stats()) {
    snap->stats_.spill_transient_retries =
        sp->transient_retries - spill_before.transient_retries;
    snap->stats_.spill_shards_quarantined =
        sp->shards_quarantined - spill_before.shards_quarantined;
    snap->stats_.spill_resident_fallback = sp->resident_fallback;
  }

  // Publish protocol (see header): the snapshot is complete before the
  // release store of the pointer, and the pointer is visible before the
  // release store of the seqno. Readers acquire either one and therefore
  // observe a fully built snapshot with a monotonic generation number.
  KbSnapshotRef published = snap;  // keep const-correct ref type
  std::atomic_store_explicit(&current_, std::move(published),
                             std::memory_order_release);
  published_seqno_.store(snap->stats_.seqno, std::memory_order_release);

  ++publishes_;
  total_build_micros_ += snap->stats_.build_micros;
  return snap->stats_;
}

Result<KbSnapshotStats> KbServer::AppendAndPublish(
    const std::vector<extract::ExtractionRecord>& records) {
  KF_RETURN_IF_ERROR(Append(records));
  return Publish();
}

KbSnapshotRef KbServer::Acquire() const {
  return std::atomic_load_explicit(&current_, std::memory_order_acquire);
}

std::optional<ServedVerdict> KbServer::Lookup(
    std::string_view subject, std::string_view predicate) const {
  KbSnapshotRef snap = Acquire();
  if (!snap) return std::nullopt;
  std::optional<KbVerdict> v = snap->kb().Lookup(subject, predicate);
  if (!v) return std::nullopt;
  return CopyOut(*v, snap->stats().seqno);
}

std::optional<ServedVerdict> KbServer::Verdict(
    std::string_view subject, std::string_view predicate,
    std::string_view object) const {
  KbSnapshotRef snap = Acquire();
  if (!snap) return std::nullopt;
  std::optional<KbVerdict> v = snap->kb().Verdict(subject, predicate, object);
  if (!v) return std::nullopt;
  return CopyOut(*v, snap->stats().seqno);
}

std::vector<ServedVerdict> KbServer::TopK(size_t k) const {
  KbSnapshotRef snap = Acquire();
  std::vector<ServedVerdict> out;
  if (!snap) return out;
  std::vector<KbVerdict> top = snap->kb().TopK(k);
  out.reserve(top.size());
  for (const KbVerdict& v : top) {
    out.push_back(CopyOut(v, snap->stats().seqno));
  }
  return out;
}

KbServer::ServerStats KbServer::stats() const {
  ServerStats out;
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    out.publishes = publishes_;
    out.publish_failures = publish_failures_;
    out.total_build_micros = total_build_micros_;
  }
  if (KbSnapshotRef snap = Acquire()) out.current = snap->stats();
  return out;
}

}  // namespace kf
