#include "kf/fused_kb.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "eval/calibration.h"
#include "kb/value.h"
#include "store/atomic_writer.h"

namespace kf {
namespace {

using store::kKbFromFallback;
using store::kKbHasProbability;
using store::kKbWinner;

constexpr uint32_t kNone = FusedKB::kNone;

/// Strings entering the KB must survive the TSV round-trip: tabs and
/// newlines (possible in user naming callbacks) become spaces.
void Sanitize(std::string* s) {
  for (char& c : *s) {
    if (c == '\t' || c == '\n' || c == '\r') c = ' ';
  }
}

/// The callback's name for `id`, or the synthesized "<prefix><id>".
template <typename Id>
std::string RenderName(const std::function<std::string(Id)>& fn, char prefix,
                       Id id) {
  std::string name = fn ? fn(id) : prefix + std::to_string(id);
  Sanitize(&name);
  return name;
}

/// Dense dataset id -> KB id map, kNone until set. Every dataset producer
/// interns its ids densely, so a vector sized by the largest id seen
/// stands in for a hash map.
class Remap {
 public:
  uint32_t& operator[](uint32_t id) {
    if (id >= map_.size()) {
      map_.resize(std::max<size_t>(size_t{id} + 1, map_.size() * 2), kNone);
    }
    return map_[id];
  }

 private:
  std::vector<uint32_t> map_;
};

/// The sanitized names of one id kind, rendered once per distinct id. A
/// returned view is valid until the next call (the arena may grow).
template <typename Id>
class NameCache {
 public:
  NameCache(const std::function<std::string(Id)>& fn, char prefix)
      : fn_(fn), prefix_(prefix) {}

  std::string_view operator()(Id id) {
    uint32_t& slot = slot_[id];
    if (slot == kNone) slot = names_.Append(RenderName(fn_, prefix_, id));
    return names_.Get(slot);
  }

 private:
  const std::function<std::string(Id)>& fn_;
  const char prefix_;
  Remap slot_;
  StringArena names_;
};

/// Vote weight in the scorers' log-odds space, with the accuracy pulled
/// off 0/1 so imported (unclamped) accuracies cannot produce infinities.
double VoteWeight(double accuracy) {
  double a = std::clamp(accuracy, 1e-9, 1.0 - 1e-9);
  return std::log(a / (1.0 - a));
}

bool ValidUnitInterval(double v) {
  return std::isfinite(v) && v >= 0.0 && v <= 1.0;
}

/// "(subject, predicate, object)" of triple `t`, for error messages.
std::string TripleName(const store::FusedKbColumns& c, uint32_t t) {
  return StrFormat("(%s, %s, %s)",
                   std::string(c.subjects.Get(c.triple_subject[t])).c_str(),
                   std::string(c.predicates.Get(c.triple_predicate[t])).c_str(),
                   std::string(c.objects.Get(c.triple_object[t])).c_str());
}

/// The KB as TSV schema rows — the TSV format's print type only.
extract::FusedKbTsv ToRows(const store::FusedKbColumns& c) {
  extract::FusedKbTsv tsv;
  tsv.method = c.method;
  tsv.num_rounds = static_cast<size_t>(c.num_rounds);
  tsv.provenances.resize(c.num_provenances());
  for (uint32_t p = 0; p < c.num_provenances(); ++p) {
    extract::FusedKbProvRow& row = tsv.provenances[p];
    row.description = std::string(c.prov_descriptions.Get(p));
    row.accuracy = c.prov_accuracy[p];
    row.evaluated = c.prov_evaluated[p] != 0;
    row.num_claims = c.prov_claims[p];
  }
  tsv.triples.resize(c.num_triples());
  for (uint32_t t = 0; t < c.num_triples(); ++t) {
    extract::FusedKbTripleRow& row = tsv.triples[t];
    row.subject = std::string(c.subjects.Get(c.triple_subject[t]));
    row.predicate = std::string(c.predicates.Get(c.triple_predicate[t]));
    row.object = std::string(c.objects.Get(c.triple_object[t]));
    row.probability = c.probability[t];
    row.calibrated = c.calibrated[t];
    row.has_probability = (c.triple_flags[t] & kKbHasProbability) != 0;
    row.from_fallback = (c.triple_flags[t] & kKbFromFallback) != 0;
    row.winner = (c.triple_flags[t] & kKbWinner) != 0;
    row.supporters.assign(c.supporters.begin() + c.support_offsets[t],
                          c.supporters.begin() + c.support_offsets[t + 1]);
  }
  return tsv;
}

/// Parsed TSV rows as columns; ids first-seen in row order.
store::FusedKbColumns FromRows(const extract::FusedKbTsv& tsv) {
  store::FusedKbColumns c;
  c.method = tsv.method;
  c.num_rounds = tsv.num_rounds;
  for (const extract::FusedKbProvRow& p : tsv.provenances) {
    c.prov_descriptions.Append(p.description);
    c.prov_accuracy.push_back(p.accuracy);
    c.prov_evaluated.push_back(p.evaluated ? 1 : 0);
    c.prov_claims.push_back(p.num_claims);
  }
  const size_t n = tsv.triples.size();
  c.triple_subject.reserve(n);
  c.triple_predicate.reserve(n);
  c.triple_object.reserve(n);
  c.probability.reserve(n);
  c.calibrated.reserve(n);
  c.triple_flags.reserve(n);
  c.support_offsets.reserve(n + 1);
  for (const extract::FusedKbTripleRow& row : tsv.triples) {
    c.triple_subject.push_back(c.subjects.Intern(row.subject));
    c.triple_predicate.push_back(c.predicates.Intern(row.predicate));
    c.triple_object.push_back(c.objects.Intern(row.object));
    c.probability.push_back(row.probability);
    c.calibrated.push_back(row.calibrated);
    c.triple_flags.push_back(static_cast<uint8_t>(
        (row.has_probability ? kKbHasProbability : 0) |
        (row.from_fallback ? kKbFromFallback : 0) |
        (row.winner ? kKbWinner : 0)));
    c.supporters.insert(c.supporters.end(), row.supporters.begin(),
                        row.supporters.end());
    c.support_offsets.push_back(static_cast<uint32_t>(c.supporters.size()));
  }
  return c;
}

}  // namespace

// ---- construction ----

SnapshotNaming SnapshotNaming::FromCorpus(const extract::TsvCorpus& corpus) {
  SnapshotNaming naming;
  const extract::TsvCorpus* c = &corpus;
  naming.subject = [c](kb::EntityId id) {
    return std::string(c->subjects.Get(id));
  };
  naming.predicate = [c](kb::PredicateId id) {
    return std::string(c->predicates.Get(id));
  };
  naming.object = [c](kb::ValueId id) {
    return std::string(c->objects.Get(c->values.Get(id).string_id));
  };
  naming.url = [c](extract::UrlId id) { return std::string(c->urls.Get(id)); };
  naming.site = [c](extract::SiteId id) {
    return std::string(c->sites.Get(id));
  };
  // The TSV loader interns patterns into the extractor table.
  naming.pattern = [c](extract::PatternId id) {
    return std::string(c->extractors.Get(id));
  };
  return naming;
}

Result<FusedKB> FusedKB::Snapshot(const extract::ExtractionDataset& dataset,
                                  const fusion::FusionEngine& engine,
                                  const fusion::FusionResult& result,
                                  std::string method,
                                  const SnapshotNaming& naming,
                                  const std::vector<Label>* gold) {
  const size_t n = result.probability.size();
  if (n == 0) {
    return Status::FailedPrecondition(
        "cannot snapshot an empty fused result (no unique triples)");
  }
  if (gold != nullptr && gold->size() != n) {
    return Status::InvalidArgument(
        StrFormat("gold labels cover %zu triples but the fused result has "
                  "%zu",
                  gold->size(), n));
  }

  FusedKB snap;
  store::FusedKbColumns& c = snap.columns_;
  c.method = std::move(method);
  c.num_rounds = result.num_rounds;

  eval::CalibrationCurve curve;
  if (gold != nullptr) {
    curve = eval::ComputeCalibration(result.probability,
                                     result.has_probability, *gold);
  }

  // Dataset ids map to KB ids through dense remaps, so each naming
  // callback runs once per distinct id and no triple is hashed: only a
  // data item's first triple probes the (subject, predicate) table.
  NameCache<kb::PredicateId> predicate_names(naming.predicate, 'p');
  Remap subject_of, predicate_of, object_of;
  std::vector<uint32_t> item_of(dataset.num_items(), kNone);
  // Per KB item: its dataset item and its (subject, predicate) ids.
  std::vector<kb::DataItemId> item_source;
  std::vector<uint32_t> item_subject, item_predicate;
  std::vector<uint32_t> triple_item(n);
  snap.item_table_.Reserve(dataset.num_items());
  c.triple_subject.resize(n);
  c.triple_predicate.resize(n);
  c.triple_object.resize(n);
  c.probability.resize(n);
  c.calibrated.resize(n);
  c.triple_flags.resize(n);
  for (kb::TripleId t = 0; t < n; ++t) {
    const extract::TripleInfo& info = dataset.triple(t);
    uint32_t& item = item_of[info.item];
    if (item == kNone) {
      const kb::DataItem& di = dataset.item(info.item);
      uint32_t& s = subject_of[di.subject];
      if (s == kNone) {
        s = c.subjects.Intern(RenderName(naming.subject, 's', di.subject));
      }
      uint32_t& p = predicate_of[di.predicate];
      if (p == kNone) p = c.predicates.Intern(predicate_names(di.predicate));
      item = static_cast<uint32_t>(item_source.size());
      const uint32_t owner = snap.InsertItem(s, p, item);
      if (owner != item) {
        return Status::InvalidArgument(StrFormat(
            "snapshot naming renders data items %u and %u as one (subject, "
            "predicate) pair (%s, %s)",
            item_source[owner], info.item,
            std::string(c.subjects.Get(s)).c_str(),
            std::string(c.predicates.Get(p)).c_str()));
      }
      item_source.push_back(info.item);
      item_subject.push_back(s);
      item_predicate.push_back(p);
    }
    uint32_t& o = object_of[info.object];
    if (o == kNone) {
      o = c.objects.Intern(RenderName(naming.object, 'v', info.object));
    }
    triple_item[t] = item;
    c.triple_subject[t] = item_subject[item];
    c.triple_predicate[t] = item_predicate[item];
    c.triple_object[t] = o;
    const double probability = result.probability[t];
    const bool has_probability = result.has_probability[t] != 0;
    c.probability[t] = probability;
    c.calibrated[t] = !has_probability
                          ? 0.0
                          : (gold != nullptr
                                 ? eval::Calibrate(curve, probability)
                                 : probability);
    c.triple_flags[t] = static_cast<uint8_t>(
        (has_probability ? kKbHasProbability : 0) |
        (result.from_fallback[t] != 0 ? kKbFromFallback : 0));
  }

  // Supporters from the claim graph: the item/provenance groupings are
  // already materialized in the shards, so this is one linear sweep —
  // no re-grouping, no per-item corpus scans.
  const fusion::ClaimGraph& graph = engine.graph();
  std::vector<uint32_t> counts(n, 0);
  graph.ForEachClaim(
      [&](kb::DataItemId, kb::TripleId triple, uint32_t, float) {
        if (triple < n) ++counts[triple];
      });
  c.support_offsets.assign(n + 1, 0);
  for (size_t t = 0; t < n; ++t) {
    c.support_offsets[t + 1] = c.support_offsets[t] + counts[t];
  }
  c.supporters.resize(c.support_offsets[n]);
  std::vector<uint32_t> cursor(c.support_offsets.begin(),
                               c.support_offsets.end() - 1);
  graph.ForEachClaim(
      [&](kb::DataItemId, kb::TripleId triple, uint32_t prov, float) {
        if (triple < n) c.supporters[cursor[triple]++] = prov;
      });
  for (size_t t = 0; t < n; ++t) {
    std::sort(c.supporters.begin() + c.support_offsets[t],
              c.supporters.begin() + c.support_offsets[t + 1]);
  }

  // The provenance table: converged accuracies + a rendered identity
  // (via any record of the provenance — all project to the same
  // pseudo-source under the run's granularity), built in one reused
  // buffer and appended to the description arena.
  const std::vector<double>& accuracy = engine.provenance_accuracy();
  const std::vector<uint8_t>& evaluated = engine.provenance_evaluated();
  const std::vector<uint32_t>& claims = engine.provenance_claims();
  const std::vector<uint32_t>& record_provs = graph.record_provs();
  const size_t num_provs = graph.num_provs();
  std::vector<uint32_t> representative(num_provs, kNone);
  for (uint32_t r = 0; r < record_provs.size(); ++r) {
    if (representative[record_provs[r]] == kNone) {
      representative[record_provs[r]] = r;
    }
  }
  const extract::Granularity& g = engine.options().granularity;
  const std::vector<extract::ExtractorMeta>& metas = dataset.extractors();
  NameCache<extract::UrlId> url_names(naming.url, 'u');
  NameCache<extract::SiteId> site_names(naming.site, 'w');
  NameCache<extract::PatternId> pattern_names(naming.pattern, 'r');
  std::string description;
  // Each field is appended before the next cache call, so no name view
  // outlives a growth of its cache.
  auto add = [&description](const char* key, std::string_view value) {
    if (!description.empty()) description += '|';
    description += key;
    description += '=';
    description += value;
  };
  c.prov_accuracy.resize(num_provs);
  c.prov_evaluated.resize(num_provs);
  c.prov_claims.resize(num_provs);
  for (uint32_t p = 0; p < num_provs; ++p) {
    description.clear();
    if (representative[p] == kNone) {
      description = "prov" + std::to_string(p);
    } else {
      const extract::Provenance& prov =
          dataset.records()[representative[p]].prov;
      if (g.use_extractor) {
        if (prov.extractor < metas.size() &&
            !metas[prov.extractor].name.empty()) {
          add("extractor", metas[prov.extractor].name);
        } else {
          add("extractor", "x" + std::to_string(prov.extractor));
        }
      }
      if (g.use_url) add("url", url_names(prov.url));
      if (g.use_site) add("site", site_names(prov.site));
      if (g.use_predicate) add("predicate", predicate_names(prov.predicate));
      if (g.use_pattern) add("pattern", pattern_names(prov.pattern));
      if (description.empty()) description = "all";
      Sanitize(&description);
    }
    c.prov_descriptions.Append(description);
    c.prov_accuracy[p] = accuracy[p];
    c.prov_evaluated[p] = evaluated[p] != 0 ? 1 : 0;
    c.prov_claims[p] = claims[p];
  }

  Status indexed = snap.BuildIndexes(triple_item, item_source.size());
  if (!indexed.ok()) {
    return Status(indexed.code(),
                  "snapshot naming collision: " + indexed.message());
  }
  for (uint32_t winner : snap.item_winner_) {
    if (winner != kNone) c.triple_flags[winner] |= kKbWinner;
  }
  return snap;
}

Result<FusedKB> FusedKB::FromColumns(store::FusedKbColumns columns) {
  FusedKB kb;
  kb.columns_ = std::move(columns);
  const store::FusedKbColumns& c = kb.columns_;
  for (uint32_t p = 0; p < c.num_provenances(); ++p) {
    if (!ValidUnitInterval(c.prov_accuracy[p])) {
      return Status::InvalidArgument(StrFormat(
          "provenance '%s': accuracy %g outside [0,1]",
          std::string(c.prov_descriptions.Get(p)).c_str(),
          c.prov_accuracy[p]));
    }
  }

  const size_t n = c.num_triples();
  std::vector<uint32_t> triple_item(n);
  uint32_t num_items = 0;
  for (uint32_t t = 0; t < n; ++t) {
    if (!ValidUnitInterval(c.probability[t]) ||
        !ValidUnitInterval(c.calibrated[t])) {
      return Status::InvalidArgument(
          StrFormat("triple %s: probabilities outside [0,1]",
                    TripleName(c, t).c_str()));
    }
    // Explain() lists each supporter once; the snapshot writes them
    // sorted, so anything else is a damaged or hand-edited file.
    for (uint32_t s = c.support_offsets[t] + 1; s < c.support_offsets[t + 1];
         ++s) {
      if (c.supporters[s - 1] >= c.supporters[s]) {
        return Status::InvalidArgument(
            StrFormat("triple %s: supporters not strictly ascending",
                      TripleName(c, t).c_str()));
      }
    }
    triple_item[t] = kb.InsertItem(
        c.triple_subject[t], c.triple_predicate[t], num_items);
    if (triple_item[t] == num_items) ++num_items;
  }
  KF_RETURN_IF_ERROR(kb.BuildIndexes(triple_item, num_items));

  // The winner column is derived data; an inconsistent file (hand-edited
  // or truncated) is rejected rather than silently re-derived.
  for (uint32_t t = 0; t < n; ++t) {
    const bool derived = kb.item_winner_[triple_item[t]] == t;
    if (derived != ((c.triple_flags[t] & kKbWinner) != 0)) {
      return Status::InvalidArgument(
          StrFormat("triple %s: winner flag inconsistent with the "
                    "probabilities",
                    TripleName(c, t).c_str()));
    }
  }
  return kb;
}

Status FusedKB::BuildIndexes(const std::vector<uint32_t>& triple_item,
                             size_t num_items) {
  const store::FusedKbColumns& c = columns_;
  const size_t n = c.num_triples();

  // Item CSR over triples, each span in ascending triple order.
  item_offsets_.assign(num_items + 1, 0);
  for (uint32_t item : triple_item) ++item_offsets_[item + 1];
  for (size_t i = 0; i < num_items; ++i) {
    item_offsets_[i + 1] += item_offsets_[i];
  }
  item_triples_.resize(n);
  std::vector<uint32_t> cursor(item_offsets_.begin(),
                               item_offsets_.end() - 1);
  for (uint32_t t = 0; t < n; ++t) item_triples_[cursor[triple_item[t]]++] = t;

  // Winners: highest predicted probability per item, ties toward the
  // earlier triple. The same sweep rejects an object repeated within an
  // item, through a dense last-item-seen mark per object id.
  item_winner_.assign(num_items, kNone);
  std::vector<uint32_t> seen_in(c.objects.size(), kNone);
  for (uint32_t i = 0; i < num_items; ++i) {
    uint32_t winner = kNone;
    for (uint32_t s = item_offsets_[i]; s < item_offsets_[i + 1]; ++s) {
      const uint32_t t = item_triples_[s];
      uint32_t& seen = seen_in[c.triple_object[t]];
      if (seen == i) {
        return Status::InvalidArgument(
            StrFormat("duplicate triple %s", TripleName(c, t).c_str()));
      }
      seen = i;
      if ((c.triple_flags[t] & kKbHasProbability) == 0) continue;
      if (winner == kNone || c.probability[t] > c.probability[winner]) {
        winner = t;
      }
    }
    item_winner_[i] = winner;
  }

  // Probability order over predicted triples.
  by_probability_.clear();
  for (uint32_t t = 0; t < n; ++t) {
    if (c.triple_flags[t] & kKbHasProbability) by_probability_.push_back(t);
  }
  std::sort(by_probability_.begin(), by_probability_.end(),
            [&c](uint32_t a, uint32_t b) {
              if (c.probability[a] != c.probability[b]) {
                return c.probability[a] > c.probability[b];
              }
              return a < b;
            });
  return Status::OK();
}

// ---- queries ----

KbVerdict FusedKB::MakeVerdict(uint32_t t) const {
  const store::FusedKbColumns& c = columns_;
  const uint8_t flags = c.triple_flags[t];
  KbVerdict v;
  v.subject = c.subjects.Get(c.triple_subject[t]);
  v.predicate = c.predicates.Get(c.triple_predicate[t]);
  v.object = c.objects.Get(c.triple_object[t]);
  v.probability = c.probability[t];
  v.calibrated = c.calibrated[t];
  v.has_probability = (flags & kKbHasProbability) != 0;
  v.from_fallback = (flags & kKbFromFallback) != 0;
  v.winner = (flags & kKbWinner) != 0;
  v.index = t;
  return v;
}

KbVerdict FusedKB::verdict(uint32_t index) const {
  KF_CHECK(index < num_triples());
  return MakeVerdict(index);
}

KbProvenance FusedKB::provenance(uint32_t p) const {
  KF_CHECK(p < num_provenances());
  KbProvenance out;
  out.description = columns_.prov_descriptions.Get(p);
  out.accuracy = columns_.prov_accuracy[p];
  out.evaluated = columns_.prov_evaluated[p] != 0;
  out.num_claims = columns_.prov_claims[p];
  return out;
}

std::vector<uint32_t> FusedKB::supporters(uint32_t index) const {
  KF_CHECK(index < num_triples());
  return std::vector<uint32_t>(
      columns_.supporters.begin() + columns_.support_offsets[index],
      columns_.supporters.begin() + columns_.support_offsets[index + 1]);
}

uint32_t FusedKB::FindItem(std::string_view subject,
                           std::string_view predicate) const {
  const uint32_t s = columns_.subjects.Find(subject);
  if (s == StringInterner::kInvalidId) return kNone;
  const uint32_t p = columns_.predicates.Find(predicate);
  if (p == StringInterner::kInvalidId) return kNone;
  const ItemSlot* slot =
      item_table_.Find(ItemHash(s, p), [s, p](const ItemSlot& slot) {
        return slot.subject == s && slot.predicate == p;
      });
  return slot == nullptr ? kNone : slot->item;
}

uint32_t FusedKB::InsertItem(uint32_t subject, uint32_t predicate,
                             uint32_t item) {
  return item_table_
      .Insert(ItemSlot{subject, predicate, item},
              [subject, predicate](const ItemSlot& slot) {
                return slot.subject == subject && slot.predicate == predicate;
              })
      .item;
}

uint32_t FusedKB::FindTriple(uint32_t item, uint32_t object) const {
  for (uint32_t s = item_offsets_[item]; s < item_offsets_[item + 1]; ++s) {
    if (columns_.triple_object[item_triples_[s]] == object) {
      return item_triples_[s];
    }
  }
  return kNone;
}

std::optional<KbVerdict> FusedKB::Lookup(std::string_view subject,
                                         std::string_view predicate) const {
  const uint32_t item = FindItem(subject, predicate);
  if (item == kNone || item_winner_[item] == kNone) return std::nullopt;
  return MakeVerdict(item_winner_[item]);
}

std::optional<KbVerdict> FusedKB::Verdict(std::string_view subject,
                                          std::string_view predicate,
                                          std::string_view object) const {
  const uint32_t item = FindItem(subject, predicate);
  if (item == kNone) return std::nullopt;
  const uint32_t o = columns_.objects.Find(object);
  if (o == StringInterner::kInvalidId) return std::nullopt;
  const uint32_t t = FindTriple(item, o);
  if (t == kNone) return std::nullopt;
  return MakeVerdict(t);
}

std::vector<KbEvidence> FusedKB::Explain(std::string_view subject,
                                         std::string_view predicate,
                                         std::string_view object) const {
  std::vector<KbEvidence> out;
  const uint32_t item = FindItem(subject, predicate);
  if (item == kNone) return out;
  const uint32_t o = columns_.objects.Find(object);
  if (o == StringInterner::kInvalidId) return out;
  const uint32_t target = FindTriple(item, o);
  if (target == kNone) return out;
  const store::FusedKbColumns& c = columns_;
  auto append = [&c, &out](uint32_t t, bool supports) {
    for (uint32_t s = c.support_offsets[t]; s < c.support_offsets[t + 1];
         ++s) {
      const uint32_t p = c.supporters[s];
      KbEvidence e;
      e.provenance = p;
      e.description = c.prov_descriptions.Get(p);
      e.object = c.objects.Get(c.triple_object[t]);
      e.accuracy = c.prov_accuracy[p];
      e.vote = VoteWeight(e.accuracy);
      e.evaluated = c.prov_evaluated[p] != 0;
      e.supports = supports;
      out.push_back(e);
    }
  };
  append(target, /*supports=*/true);
  for (uint32_t s = item_offsets_[item]; s < item_offsets_[item + 1]; ++s) {
    const uint32_t t = item_triples_[s];
    if (t != target) append(t, /*supports=*/false);
  }
  return out;
}

std::vector<KbVerdict> FusedKB::TopK(size_t k) const {
  std::vector<KbVerdict> out;
  out.reserve(std::min(k, by_probability_.size()));
  for (uint32_t t : by_probability_) {
    if (out.size() >= k) break;
    out.push_back(MakeVerdict(t));
  }
  return out;
}

std::vector<KbVerdict> FusedKB::AboveThreshold(double min_probability) const {
  std::vector<KbVerdict> out;
  for (uint32_t t : by_probability_) {
    if (columns_.probability[t] < min_probability) break;
    out.push_back(MakeVerdict(t));
  }
  return out;
}

// ---- serialization ----

std::string FusedKB::ToTsv() const {
  return extract::WriteFusedKbTsv(ToRows(columns_));
}

Status FusedKB::ExportTsv(const std::string& path) const {
  return store::AtomicWriteFile(path, ToTsv());
}

Result<FusedKB> FusedKB::FromTsv(const std::string& text) {
  Result<extract::FusedKbTsv> parsed = extract::ReadFusedKbTsv(text);
  if (!parsed.ok()) return parsed.status();
  return FromColumns(FromRows(*parsed));
}

Result<FusedKB> FusedKB::ImportTsv(const std::string& path) {
  Result<std::string> text = extract::ReadFile(path);
  if (!text.ok()) return text.status();
  Result<FusedKB> kb = FromTsv(*text);
  if (!kb.ok()) {
    // Parse errors carry a 1-based line number; add the file they name.
    return Status(kb.status().code(), path + ": " + kb.status().message());
  }
  return kb;
}

std::string FusedKB::ToBinary() const { return store::WriteFusedKb(columns_); }

Status FusedKB::ExportBinary(const std::string& path) const {
  return store::WriteFusedKbFile(columns_, path);
}

Result<FusedKB> FusedKB::FromBinary(std::string_view bytes) {
  Result<store::FusedKbColumns> columns = store::LoadFusedKb(bytes);
  if (!columns.ok()) return columns.status();
  return FromColumns(std::move(columns).value());
}

Result<FusedKB> FusedKB::ImportBinary(const std::string& path) {
  Result<store::FusedKbColumns> columns = store::LoadFusedKbFile(path);
  if (!columns.ok()) return columns.status();
  return FromColumns(std::move(columns).value());
}

bool operator==(const FusedKB& a, const FusedKB& b) {
  const store::FusedKbColumns& x = a.columns_;
  const store::FusedKbColumns& y = b.columns_;
  if (x.method != y.method || x.num_rounds != y.num_rounds ||
      x.num_provenances() != y.num_provenances() ||
      x.prov_accuracy != y.prov_accuracy ||
      x.prov_evaluated != y.prov_evaluated ||
      x.prov_claims != y.prov_claims ||
      x.num_triples() != y.num_triples()) {
    return false;
  }
  for (uint32_t p = 0; p < x.num_provenances(); ++p) {
    if (x.prov_descriptions.Get(p) != y.prov_descriptions.Get(p)) {
      return false;
    }
  }
  for (uint32_t t = 0; t < x.num_triples(); ++t) {
    if (x.subjects.Get(x.triple_subject[t]) !=
            y.subjects.Get(y.triple_subject[t]) ||
        x.predicates.Get(x.triple_predicate[t]) !=
            y.predicates.Get(y.triple_predicate[t]) ||
        x.objects.Get(x.triple_object[t]) !=
            y.objects.Get(y.triple_object[t]) ||
        x.probability[t] != y.probability[t] ||
        x.calibrated[t] != y.calibrated[t] ||
        x.triple_flags[t] != y.triple_flags[t] ||
        x.support_offsets[t + 1] - x.support_offsets[t] !=
            y.support_offsets[t + 1] - y.support_offsets[t] ||
        !std::equal(x.supporters.begin() + x.support_offsets[t],
                    x.supporters.begin() + x.support_offsets[t + 1],
                    y.supporters.begin() + y.support_offsets[t])) {
      return false;
    }
  }
  return true;
}

}  // namespace kf
