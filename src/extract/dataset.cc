#include "extract/dataset.h"

#include "common/logging.h"

static_assert(kf::KeyIndex::kAbsent == kf::kb::kInvalidId,
              "FindTriple returns the index's absent id as kInvalidId");

namespace kf::extract {

const char* ErrorClassName(ErrorClass e) {
  switch (e) {
    case ErrorClass::kNone:
      return "none";
    case ErrorClass::kSourceError:
      return "source-error";
    case ErrorClass::kTripleIdentification:
      return "triple-identification";
    case ErrorClass::kEntityLinkage:
      return "entity-linkage";
    case ErrorClass::kPredicateLinkage:
      return "predicate-linkage";
    case ErrorClass::kMoreSpecificValue:
      return "more-specific-value";
    case ErrorClass::kMoreGeneralValue:
      return "more-general-value";
  }
  return "???";
}

kb::DataItemId ExtractionDataset::InternItem(const kb::DataItem& item) {
  const auto next = static_cast<kb::DataItemId>(items_.size());
  const kb::DataItemId id =
      item_index_.Intern(KeyIndex::Key(item.subject, item.predicate), next);
  if (id == next) items_.push_back(item);
  return id;
}

// A new triple's item is either new too or already interned, so interning
// the item first assigns the same first-seen ids as interning it only for
// a new triple.
kb::TripleId ExtractionDataset::InternTriple(const kb::DataItem& item,
                                             kb::ValueId object,
                                             bool true_in_world,
                                             bool hierarchy_true) {
  const kb::DataItemId item_id = InternItem(item);
  const auto next = static_cast<kb::TripleId>(triples_.size());
  const kb::TripleId id =
      triple_index_.Intern(KeyIndex::Key(item_id, object), next);
  if (id == next) {
    TripleInfo info;
    info.item = item_id;
    info.object = object;
    info.true_in_world = true_in_world;
    info.hierarchy_true = hierarchy_true;
    triples_.push_back(info);
  } else {
    TripleInfo& info = triples_[id];
    info.true_in_world = info.true_in_world || true_in_world;
    info.hierarchy_true = info.hierarchy_true || hierarchy_true;
  }
  return id;
}

void ExtractionDataset::AddRecord(const ExtractionRecord& record) {
  KF_DCHECK(record.triple < triples_.size());
  records_.push_back(record);
}

Status ExtractionDataset::Append(
    const std::vector<ExtractionRecord>& records) {
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].triple >= triples_.size()) {
      return Status::InvalidArgument(
          "Append: record " + std::to_string(i) +
          " references uninterned triple id " +
          std::to_string(records[i].triple));
    }
  }
  records_.insert(records_.end(), records.begin(), records.end());
  return Status::OK();
}

void ExtractionDataset::SetExtractors(std::vector<ExtractorMeta> extractors) {
  extractors_ = std::move(extractors);
}

void ExtractionDataset::SetUrlSites(std::vector<SiteId> url_site) {
  url_site_ = std::move(url_site);
}

void ExtractionDataset::SetCounts(size_t num_sites, size_t num_patterns,
                                  size_t num_predicates) {
  num_sites_ = num_sites;
  num_patterns_ = num_patterns;
  num_predicates_ = num_predicates;
}

kb::TripleId ExtractionDataset::FindTriple(const kb::DataItem& item,
                                           kb::ValueId object) const {
  const kb::DataItemId item_id =
      item_index_.Find(KeyIndex::Key(item.subject, item.predicate));
  if (item_id == KeyIndex::kAbsent) return kb::kInvalidId;
  return triple_index_.Find(KeyIndex::Key(item_id, object));
}

ExtractionDataset CloneRecordPrefix(const ExtractionDataset& src, size_t n) {
  KF_CHECK(n <= src.num_records());
  ExtractionDataset dst;
  dst.SetExtractors(src.extractors());
  std::vector<SiteId> sites;
  sites.reserve(src.num_urls());
  for (UrlId u = 0; u < src.num_urls(); ++u) {
    sites.push_back(src.site_of_url(u));
  }
  dst.SetUrlSites(std::move(sites));
  dst.SetCounts(src.num_sites(), src.num_patterns(), src.num_predicates());
  for (size_t i = 0; i < n; ++i) {
    ExtractionRecord r = src.records()[i];
    const TripleInfo& info = src.triple(r.triple);
    r.triple = dst.InternTriple(src.item(info.item), info.object,
                                info.true_in_world, info.hierarchy_true);
    dst.AddRecord(r);
  }
  return dst;
}

std::vector<ExtractionRecord> ReinternTail(const ExtractionDataset& src,
                                           size_t n,
                                           ExtractionDataset* dst) {
  KF_CHECK(n <= src.num_records());
  std::vector<ExtractionRecord> batch;
  batch.reserve(src.num_records() - n);
  for (size_t i = n; i < src.num_records(); ++i) {
    ExtractionRecord r = src.records()[i];
    const TripleInfo& info = src.triple(r.triple);
    r.triple = dst->InternTriple(src.item(info.item), info.object,
                                 info.true_in_world, info.hierarchy_true);
    batch.push_back(r);
  }
  return batch;
}

}  // namespace kf::extract
