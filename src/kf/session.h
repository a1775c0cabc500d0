// kf::Session — the one stable public entry point over the whole pipeline
// (Fig. 8): batch fusion, streaming warm-start re-fusion, and evaluation,
// with methods selected by name through the fusion::Registry. A Session
// owns (or borrows) an ExtractionDataset and keeps the engine state of the
// last run — the sharded claim graph and the converged per-provenance
// accuracies — alive between calls, which is what makes `Append` +
// `Refuse` cheap: re-fusion re-syncs only the dirty shards and iterates
// only until reconvergence instead of replaying every round from the
// default accuracies.
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
#include "fusion/fuser.h"
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

  /// Cold fusion with the method named by options.method_name (falling
  /// back to options.method), created through fusion::Registry. Validates
  /// options and method requirements, runs to convergence, and retains
  /// the result plus — for engine methods — the warm state Refuse() needs.
  /// `gold` is required when options.init_accuracy_from_gold is set and
  /// by "confidence_weighted"; it is not retained.
  /// With options.memory_budget_bytes > 0 the run routes through
  /// spill::MakeOutOfCoreFuser instead: same engine, bit-identical
  /// result, but cold shards spill to mmap-backed kf::store files so the
  /// round loop's resident columns stay within the budget (engine
  /// methods only; other methods are rejected with InvalidArgument).
  Result<fusion::FusionResult> Fuse(const fusion::FusionOptions& options,
                                    const std::vector<Label>* gold = nullptr);

  /// Appends extraction records to the owned dataset (all-or-nothing; the
  /// records' triples must already be interned via mutable_dataset()).
  /// The claim graph is re-synced lazily by the next Fuse()/Refuse().
  Status Append(const std::vector<extract::ExtractionRecord>& records);

  /// Warm-start re-fusion after Append(): seeds Stage I from the previous
  /// run's converged provenance accuracies and iterates only until
  /// reconvergence (options.warm_start caps, inheriting
  /// max_rounds/convergence_epsilon when unset). Fails if no Fuse() ran
  /// yet or the last method is not warm-startable (engine methods are).
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
  /// method was not engine-backed (vote / accu / popaccu), on an empty
  /// dataset, and when `naming` merges two data items or two values of
  /// one item (see FusedKB::Snapshot).
  Result<FusedKB> Snapshot(const SnapshotNaming& naming = {},
                           const std::vector<Label>* gold = nullptr) const;

  // ---- introspection ----

  /// The last Fuse()/Refuse() result; null before the first run.
  const fusion::FusionResult* last_result() const {
    return last_ ? &*last_ : nullptr;
  }
  /// Resolved registry name of the last Fuse() method ("" before).
  const std::string& method() const { return method_; }
  /// Whether Refuse() has warm state to start from (a Fuse() ran and
  /// created a fuser). kf::KbServer uses this to pick cold Fuse vs warm
  /// Refuse on publish.
  bool can_refuse() const { return fuser_ != nullptr; }
  /// Records of the owned/borrowed dataset not yet covered by the last
  /// result — i.e. appended since the run that produced last_result().
  size_t pending_records() const {
    return dataset_->num_records() - fused_records_;
  }
  /// Spill-layer counters of the warm fuser (retries absorbed, shards
  /// quarantined and rebuilt, resident fallback — see spill::SpillStats).
  /// Null when the session has no fuser or the last run was not budgeted.
  const spill::SpillStats* spill_stats() const;

 private:
  Session(std::optional<extract::ExtractionDataset> owned,
          const extract::ExtractionDataset* borrowed);

  std::optional<extract::ExtractionDataset> owned_;
  const extract::ExtractionDataset* dataset_;  // owned_ or the borrowed one
  const kb::ValueHierarchy* hierarchy_ = nullptr;

  std::string method_;
  /// Whether fuser_ is the budgeted (spill::OutOfCoreFuser) variant;
  /// switching memory_budget_bytes between zero and nonzero re-creates
  /// the fuser even when the method name is unchanged.
  bool budgeted_ = false;
  std::unique_ptr<fusion::Fuser> fuser_;
  std::optional<fusion::FusionResult> last_;
  /// Dataset size when last_ was produced (for pending_records()).
  size_t fused_records_ = 0;
};

}  // namespace kf

#endif  // KF_KF_SESSION_H_
