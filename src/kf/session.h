// kf::Session — the one stable public entry point over the whole pipeline
// (Fig. 8): batch fusion, streaming warm-start re-fusion, and evaluation,
// with every method selected by FusionOptions::method. A Session
// owns (or borrows) an ExtractionDataset and is the only driver of the
// engine methods (vote / accu / popaccu): it owns their FusionEngine —
// the sharded claim graph and the converged per-provenance accuracies —
// and, under a memory budget, the spill::ShardSpillManager that keeps the
// graph's shards on disk, and keeps both alive between calls. That is
// what makes `Append` + `Refuse` cheap: re-fusion re-syncs only the dirty
// shards and iterates only until reconvergence instead of replaying every
// round from the default accuracies. Baselines and extensions run through
// their stateless registry row and keep nothing.
//
// Batch:      Session s(std::move(dataset));   // or Session::Borrow(ds)
//             auto result = s.Fuse(options, &gold);
//             auto report = s.Evaluate(gold);
// Streaming:  s.Append(records);               // owning sessions only
//             auto warm = s.Refuse();          // rounds << cold Fuse
//
// Sessions are single-threaded and pinned in memory (the engine holds
// pointers into the owned dataset): neither copyable nor movable.
#ifndef KF_KF_SESSION_H_
#define KF_KF_SESSION_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/label.h"
#include "common/status.h"
#include "eval/report.h"
#include "extract/dataset.h"
#include "fusion/engine.h"
#include "fusion/options.h"
#include "kb/value_hierarchy.h"
#include "kf/fused_kb.h"
#include "spill/spill.h"

namespace kf {

class Session {
 public:
  /// A streaming session: takes ownership of the dataset; Append() and
  /// mutable_dataset() are available.
  explicit Session(extract::ExtractionDataset dataset);

  /// A batch session over an external dataset the caller keeps alive.
  /// Append() is rejected (the dataset is read-only here); everything
  /// else works identically.
  static Session Borrow(const extract::ExtractionDataset& dataset);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // ---- data access ----

  const extract::ExtractionDataset& dataset() const { return *dataset_; }
  /// Owning sessions only (checked): intern new triples/items here before
  /// handing the records to Append().
  extract::ExtractionDataset& mutable_dataset();
  bool owns_dataset() const { return owned_.has_value(); }

  /// Side input for the "hierarchy" method (borrowed; may be null).
  void SetHierarchy(const kb::ValueHierarchy* hierarchy) {
    hierarchy_ = hierarchy;
  }

  // ---- the pipeline ----

  /// Cold fusion with options.method. Validates options and the
  /// method's fusion::Registry requirements before touching any state (a
  /// rejected call leaves the previous run intact): a non-default value
  /// in a field the method does not read is InvalidArgument naming the
  /// field. Runs to convergence, and retains the result plus — for engine
  /// methods — the engine that Refuse() and Snapshot() read. `gold` is
  /// required when options.init_accuracy_from_gold is set and by
  /// "confidence_weighted"; it is not retained.
  /// With options.memory_budget_bytes > 0 the session also owns a spill
  /// manager: same engine, bit-identical result, but cold shards spill to
  /// mmap-backed kf::store files so the round loop's resident columns
  /// stay within the budget. Only the engine methods read the budget. A
  /// run that fails (the spill layer's degradation ladder ran dry) leaves
  /// the session as before its first Fuse().
  Result<fusion::FusionResult> Fuse(const fusion::FusionOptions& options,
                                    const std::vector<Label>* gold = nullptr);

  /// Appends extraction records to the owned dataset (all-or-nothing; the
  /// records' triples must already be interned via mutable_dataset()).
  /// The claim graph is re-synced lazily by the next Fuse()/Refuse().
  Status Append(const std::vector<extract::ExtractionRecord>& records);

  /// Warm-start re-fusion after Append(): seeds Stage I from the previous
  /// run's converged provenance accuracies and iterates only until
  /// reconvergence (options.warm_start caps, inheriting
  /// max_rounds/convergence_epsilon when unset), on the kept engine and
  /// spill manager. Fails if no Fuse() ran yet or the last method was not
  /// an engine method. A failed Refuse keeps the engine, so a retry stays
  /// warm.
  Result<fusion::FusionResult> Refuse();

  /// Evaluates the last result against per-triple gold labels.
  Result<eval::ModelReport> Evaluate(const std::vector<Label>& gold) const;

  /// Materializes the last run as a kf::FusedKB: a queryable, exportable,
  /// session-independent copy of the verdicts — per-triple probability
  /// (bit-identical to the last result), per-item winning value, and the
  /// converged per-provenance accuracies behind each verdict. The
  /// snapshot owns everything it references, so it stays valid (and
  /// unchanged) after further Append/Refuse/Fuse calls or the Session's
  /// destruction. `naming` resolves ids to strings (defaults synthesize
  /// stable names); with `gold` (sized like the last result) verdicts
  /// also carry calibrated probabilities from the gold sample's
  /// calibration bins. Fails before the first Fuse(), when the last
  /// method was not engine-backed (vote / accu / popaccu), after a failed
  /// Refuse() until a Refuse() or Fuse() succeeds, on an empty dataset,
  /// and when `naming` merges two data items or two values of one item
  /// (see FusedKB::Snapshot).
  Result<FusedKB> Snapshot(const SnapshotNaming& naming = {},
                           const std::vector<Label>* gold = nullptr) const;

  // ---- introspection ----

  /// The last Fuse()/Refuse() result; null before the first run.
  const fusion::FusionResult* last_result() const {
    return last_ ? &*last_ : nullptr;
  }
  /// Registry name of the last Fuse() method ("" before).
  const std::string& method() const { return method_; }
  /// Whether Refuse() has warm state to start from (the last Fuse() ran
  /// an engine method). kf::KbServer uses this to pick cold Fuse vs warm
  /// Refuse on publish.
  bool can_refuse() const { return engine_.has_value(); }
  /// The engine of the last engine-method run: the claim graph's
  /// item/provenance groupings and the converged accuracies behind
  /// last_result(). Null before the first Fuse(), after a baseline or
  /// extension method, and after a failed Fuse().
  const fusion::FusionEngine* engine() const {
    return engine_ ? &*engine_ : nullptr;
  }
  /// Records of the owned/borrowed dataset not yet covered by the last
  /// result — i.e. appended since the run that produced last_result().
  size_t pending_records() const {
    return dataset_->num_records() - fused_records_;
  }
  /// Spill-layer counters of the kept spill manager (retries absorbed,
  /// shards quarantined and rebuilt, resident fallback — see
  /// spill::SpillStats). Null unless the last Fuse() was budgeted.
  const spill::SpillStats* spill_stats() const {
    return spill_ ? &spill_->stats() : nullptr;
  }

 private:
  Session(std::optional<extract::ExtractionDataset> owned,
          const extract::ExtractionDataset* borrowed);

  /// Builds engine_ (and spill_ when budgeted) for a validated
  /// engine-method Fuse and runs it cold.
  Result<fusion::FusionResult> FuseEngine(const fusion::FusionOptions& options,
                                          const std::vector<Label>* gold);
  /// The rounds of engine_: through the spill manager when the run is
  /// budgeted, over the resident graph otherwise.
  Status RunRounds(fusion::FusionEngine::Start start,
                   fusion::FusionResult* result);

  std::optional<extract::ExtractionDataset> owned_;
  const extract::ExtractionDataset* dataset_;  // owned_ or the borrowed one
  const kb::ValueHierarchy* hierarchy_ = nullptr;

  std::string method_;
  std::optional<fusion::FusionEngine> engine_;
  /// Set only when engine_'s run is budgeted. Declared after engine_, so
  /// it is destroyed first: it detaches its mappings from engine_'s graph.
  std::unique_ptr<spill::ShardSpillManager> spill_;
  std::optional<fusion::FusionResult> last_;
  /// Dataset size when last_ was produced (for pending_records()).
  size_t fused_records_ = 0;
  /// Set by a failed Refuse(): engine_ already holds the appended records
  /// (and a budgeted run may have left shards evicted) while last_ is the
  /// previous result, so Snapshot() has no consistent pair to read.
  bool refuse_failed_ = false;
};

}  // namespace kf

#endif  // KF_KF_SESSION_H_
