#include "store/store.h"

#include <cmath>
#include <cstring>

#include "common/interner.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "kb/value.h"
#include "store/atomic_writer.h"

namespace kf::store {
namespace {

/// Copies a file image into an owned buffer-backed load, prefixing any
/// error with the path so a bad file in a pipeline names itself.
Status PrefixPath(const std::string& path, const Status& status) {
  if (status.ok()) return status;
  return Status(status.code(), path + ": " + status.message());
}

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double DoubleFromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Encodes `c` as fixed-point c*10000 when the decode is bit-exact.
/// lround can land one off the representable neighbour after the float->
/// double widening, so the three candidates around the guess are tried;
/// out-of-[0,1] or inexact confidences push the whole column to raw f32.
bool TryFixed4(float c, uint32_t* out) {
  if (!(c >= 0.0f && c <= 1.0f)) return false;
  const long guess = std::lround(static_cast<double>(c) * kConfFixedScale);
  for (long v = guess - 1; v <= guess + 1; ++v) {
    if (v < 0 || v > static_cast<long>(kConfFixedScale)) continue;
    if (static_cast<float>(v) / static_cast<float>(kConfFixedScale) == c) {
      *out = static_cast<uint32_t>(v);
      return true;
    }
  }
  return false;
}

/// Loads one kStrings block into a dict view (offsets + bytes).
template <typename DictT>
Status LoadDict(const BlockFile& blocks, BlockId id, DictT* dict) {
  Result<Span<const uint32_t>> offsets = blocks.StringOffsets(id);
  if (!offsets.ok()) return offsets.status();
  Result<std::string_view> bytes = blocks.StringBytes(id);
  if (!bytes.ok()) return bytes.status();
  dict->offsets = *offsets;
  dict->bytes = *bytes;
  return Status::OK();
}

/// Loads a fixed-width column and enforces its expected row count.
template <typename T>
Status LoadColumn(const BlockFile& blocks, BlockId id, size_t rows,
                  Span<const T>* out) {
  Result<Span<const T>> column = blocks.Column<T>(id);
  if (!column.ok()) return column.status();
  if (column->size() != rows) {
    return Status::InvalidArgument(
        StrFormat("store: block %u: %zu rows where %zu were expected",
                  static_cast<uint32_t>(id), column->size(), rows));
  }
  *out = *column;
  return Status::OK();
}

/// Loads a packed column and enforces its expected row count.
Status LoadPacked(const BlockFile& blocks, BlockId id, size_t rows,
                  PackedSpan* out) {
  Result<PackedSpan> column = blocks.Packed(id);
  if (!column.ok()) return column.status();
  if (column->size() != rows) {
    return Status::InvalidArgument(
        StrFormat("store: block %u: %zu rows where %zu were expected",
                  static_cast<uint32_t>(id), column->size(), rows));
  }
  *out = *column;
  return Status::OK();
}

/// All ids in `column` must be < `limit`. Works over Span<const uint32_t>
/// and PackedSpan alike (both expose size() and operator[]).
template <typename ColumnT>
Status CheckIds(BlockId id, const ColumnT& column, size_t limit,
                const char* what) {
  for (size_t i = 0; i < column.size(); ++i) {
    const uint64_t v = column[i];
    if (v >= limit) {
      return Status::InvalidArgument(StrFormat(
          "store: block %u row %zu: %s id %llu out of range (%zu entries)",
          static_cast<uint32_t>(id), i, what,
          static_cast<unsigned long long>(v), limit));
    }
  }
  return Status::OK();
}

/// Width-specialized scan for CheckIds: a vectorizable max over the whole
/// column, with a second pass only on the (rare) failure path to name the
/// offending row. The fixed-size memcpy compiles to a plain load.
template <typename T>
Status CheckIdsTyped(BlockId id, const uint8_t* ptr, size_t rows,
                     size_t limit, const char* what) {
  T max = 0;
  for (size_t i = 0; i < rows; ++i) {
    T v;
    std::memcpy(&v, ptr + i * sizeof(T), sizeof(T));
    max = v > max ? v : max;
  }
  if (static_cast<uint64_t>(max) < limit) return Status::OK();
  for (size_t i = 0; i < rows; ++i) {
    T v;
    std::memcpy(&v, ptr + i * sizeof(T), sizeof(T));
    if (static_cast<uint64_t>(v) >= limit) {
      return Status::InvalidArgument(StrFormat(
          "store: block %u row %zu: %s id %llu out of range (%zu entries)",
          static_cast<uint32_t>(id), i, what,
          static_cast<unsigned long long>(v), limit));
    }
  }
  return Status::OK();
}

/// PackedSpan overload: dispatches on the byte width once instead of per
/// element. Parse calls this over every id column, so it is load-hot.
Status CheckIds(BlockId id, const PackedSpan& column, size_t limit,
                const char* what) {
  switch (column.width) {
    case 1:
      return CheckIdsTyped<uint8_t>(id, column.ptr, column.rows, limit, what);
    case 2:
      return CheckIdsTyped<uint16_t>(id, column.ptr, column.rows, limit,
                                     what);
    case 4:
      return CheckIdsTyped<uint32_t>(id, column.ptr, column.rows, limit,
                                     what);
    default:
      return CheckIdsTyped<uint64_t>(id, column.ptr, column.rows, limit,
                                     what);
  }
}

/// Bulk-loads one kStrings dictionary into `interner` (entry i becomes id
/// i); fails on duplicates, which would silently renumber every
/// reference on reload.
template <typename DictT>
Status FillInterner(const DictT& dict, const char* name,
                    StringInterner* interner) {
  const uint32_t duplicate = interner->Assign(
      dict.offsets.ptr, dict.offsets.size() - 1, dict.bytes);
  if (duplicate != StringInterner::kInvalidId) {
    return Status::InvalidArgument(
        StrFormat("store: %s dictionary has a duplicate entry at id %u",
                  name, duplicate));
  }
  return Status::OK();
}

}  // namespace

// ---- corpus ----------------------------------------------------------

std::string WriteCorpus(const extract::TsvCorpus& corpus) {
  const extract::ExtractionDataset& ds = corpus.dataset;
  BlockBuilder builder;

  const uint64_t meta[3] = {ds.num_sites(), ds.num_patterns(),
                            ds.num_predicates()};
  builder.AddRaw(BlockId::kCorpusMeta, meta, sizeof(meta), 3);

  const StringInterner* interners[kNumCorpusDicts] = {
      &corpus.subjects, &corpus.predicates, &corpus.objects,
      &corpus.extractors, &corpus.urls, &corpus.sites};
  const BlockId dict_blocks[kNumCorpusDicts] = {
      BlockId::kDictSubjects, BlockId::kDictPredicates,
      BlockId::kDictObjects,  BlockId::kDictExtractors,
      BlockId::kDictUrls,     BlockId::kDictSites};
  for (size_t d = 0; d < kNumCorpusDicts; ++d) {
    builder.AddStrings(dict_blocks[d], interners[d]->strings());
  }

  {
    std::vector<uint8_t> kind(corpus.values.size());
    std::vector<uint64_t> payload(corpus.values.size());
    for (kb::ValueId v = 0; v < corpus.values.size(); ++v) {
      const kb::Value& value = corpus.values.Get(v);
      kind[v] = static_cast<uint8_t>(value.kind);
      switch (value.kind) {
        case kb::ValueKind::kEntity:
          payload[v] = value.entity;
          break;
        case kb::ValueKind::kString:
          payload[v] = value.string_id;
          break;
        case kb::ValueKind::kNumber:
          payload[v] = DoubleBits(value.number);
          break;
      }
    }
    builder.AddColumn(BlockId::kValueKind, kind);
    builder.AddPacked(BlockId::kValuePayload, payload);
  }

  {
    std::vector<uint32_t> subject(ds.num_items()), predicate(ds.num_items());
    for (size_t i = 0; i < ds.num_items(); ++i) {
      subject[i] = ds.items()[i].subject;
      predicate[i] = ds.items()[i].predicate;
    }
    builder.AddPacked(BlockId::kItemSubject, subject);
    builder.AddPacked(BlockId::kItemPredicate, predicate);
  }

  {
    std::vector<uint32_t> item(ds.num_triples()), object(ds.num_triples());
    std::vector<uint8_t> flags(ds.num_triples());
    for (size_t t = 0; t < ds.num_triples(); ++t) {
      const extract::TripleInfo& info = ds.triples()[t];
      item[t] = info.item;
      object[t] = info.object;
      flags[t] = static_cast<uint8_t>((info.true_in_world ? 1 : 0) |
                                      (info.hierarchy_true ? 2 : 0));
    }
    builder.AddPacked(BlockId::kTripleItem, item);
    builder.AddPacked(BlockId::kTripleObject, object);
    builder.AddColumn(BlockId::kTripleFlags, flags);
  }

  {
    const size_t n = ds.num_records();
    std::vector<uint32_t> triple(n), extractor(n), url(n);
    std::vector<uint32_t> conf_fixed(n);
    std::vector<uint8_t> flags(n);
    // The site/pattern/predicate columns are only written when some
    // record breaks the invariant the reader otherwise derives them
    // from; TSV-imported corpora never do, and the columns vanish.
    bool site_derivable = true;
    bool pattern_derivable = true;
    bool predicate_derivable = true;
    bool conf_fixed_ok = true;
    for (size_t r = 0; r < n; ++r) {
      const extract::ExtractionRecord& record = ds.records()[r];
      triple[r] = record.triple;
      extractor[r] = record.prov.extractor;
      url[r] = record.prov.url;
      flags[r] = static_cast<uint8_t>(
          (record.has_confidence ? 1 : 0) |
          (static_cast<uint8_t>(record.error) << 1));
      if (record.prov.pattern != record.prov.extractor) {
        pattern_derivable = false;
      }
      // The derivation paths dereference url->site and triple->item->
      // predicate; ids out of range (never produced by the importer, but
      // cheap to guard) force the explicit column instead of faulting.
      if (record.prov.url >= ds.num_urls() ||
          record.prov.site != ds.site_of_url(record.prov.url)) {
        site_derivable = false;
      }
      if (record.triple >= ds.num_triples() ||
          ds.triples()[record.triple].item >= ds.num_items() ||
          record.prov.predicate !=
              ds.items()[ds.triples()[record.triple].item].predicate) {
        predicate_derivable = false;
      }
      if (conf_fixed_ok &&
          !TryFixed4(record.confidence, &conf_fixed[r])) {
        conf_fixed_ok = false;
      }
    }
    builder.AddPacked(BlockId::kRecordTriple, triple);
    builder.AddPacked(BlockId::kRecordExtractor, extractor);
    builder.AddPacked(BlockId::kRecordUrl, url);
    if (!site_derivable) {
      std::vector<uint32_t> site(n);
      for (size_t r = 0; r < n; ++r) site[r] = ds.records()[r].prov.site;
      builder.AddPacked(BlockId::kRecordSite, site);
    }
    if (!pattern_derivable) {
      std::vector<uint32_t> pattern(n);
      for (size_t r = 0; r < n; ++r) {
        pattern[r] = ds.records()[r].prov.pattern;
      }
      builder.AddPacked(BlockId::kRecordPattern, pattern);
    }
    if (!predicate_derivable) {
      std::vector<uint32_t> predicate(n);
      for (size_t r = 0; r < n; ++r) {
        predicate[r] = ds.records()[r].prov.predicate;
      }
      builder.AddPacked(BlockId::kRecordPredicate, predicate);
    }
    if (conf_fixed_ok) {
      builder.AddPacked(BlockId::kRecordConfidence, conf_fixed);
    } else {
      std::vector<float> confidence(n);
      for (size_t r = 0; r < n; ++r) {
        confidence[r] = ds.records()[r].confidence;
      }
      builder.AddColumn(BlockId::kRecordConfidence, confidence);
    }
    builder.AddColumn(BlockId::kRecordFlags, flags);
  }

  {
    const std::vector<extract::ExtractorMeta>& metas = ds.extractors();
    StringArena names;
    for (const extract::ExtractorMeta& meta : metas) names.Append(meta.name);
    builder.AddStrings(BlockId::kExtractorName, names);
    std::vector<uint8_t> content(metas.size()), has_conf(metas.size());
    std::vector<uint32_t> framework(metas.size()), linkage(metas.size());
    for (size_t i = 0; i < metas.size(); ++i) {
      content[i] = static_cast<uint8_t>(metas[i].content);
      has_conf[i] = metas[i].has_confidence ? 1 : 0;
      framework[i] = static_cast<uint32_t>(metas[i].framework_group);
      linkage[i] = static_cast<uint32_t>(metas[i].linkage_group);
    }
    builder.AddColumn(BlockId::kExtractorContent, content);
    builder.AddColumn(BlockId::kExtractorHasConf, has_conf);
    builder.AddColumn(BlockId::kExtractorFramework, framework);
    builder.AddColumn(BlockId::kExtractorLinkage, linkage);
  }

  {
    std::vector<uint32_t> url_site(ds.num_urls());
    for (extract::UrlId u = 0; u < ds.num_urls(); ++u) {
      url_site[u] = ds.site_of_url(u);
    }
    builder.AddPacked(BlockId::kUrlSite, url_site);
  }

  return builder.Finish(ContentKind::kCorpus);
}

Status WriteCorpusFile(const extract::TsvCorpus& corpus,
                       const std::string& path) {
  return AtomicWriteFile(path, WriteCorpus(corpus));
}

Result<CorpusView> CorpusView::Parse(std::string_view bytes) {
  Result<BlockFile> blocks = BlockFile::Parse(bytes, ContentKind::kCorpus);
  if (!blocks.ok()) return blocks.status();

  CorpusView view;
  view.blocks_ = std::move(*blocks);
  const BlockFile& file = view.blocks_;

  const BlockId dict_blocks[kNumCorpusDicts] = {
      BlockId::kDictSubjects, BlockId::kDictPredicates,
      BlockId::kDictObjects,  BlockId::kDictExtractors,
      BlockId::kDictUrls,     BlockId::kDictSites};
  for (size_t d = 0; d < kNumCorpusDicts; ++d) {
    KF_RETURN_IF_ERROR(LoadDict(file, dict_blocks[d], &view.dicts_[d]));
  }
  KF_RETURN_IF_ERROR(LoadColumn(file, BlockId::kCorpusMeta, 3, &view.meta_));

  // Value table (sizes tied together by the kind column).
  {
    Result<Span<const uint8_t>> kind =
        file.Column<uint8_t>(BlockId::kValueKind);
    if (!kind.ok()) return kind.status();
    view.value_kind_ = *kind;
    KF_RETURN_IF_ERROR(LoadPacked(file, BlockId::kValuePayload,
                                  view.value_kind_.size(),
                                  &view.value_payload_));
  }

  // Items.
  {
    Result<PackedSpan> subject = file.Packed(BlockId::kItemSubject);
    if (!subject.ok()) return subject.status();
    view.item_subject_ = *subject;
    KF_RETURN_IF_ERROR(LoadPacked(file, BlockId::kItemPredicate,
                                  view.item_subject_.size(),
                                  &view.item_predicate_));
  }

  // Triples.
  {
    Result<PackedSpan> item = file.Packed(BlockId::kTripleItem);
    if (!item.ok()) return item.status();
    view.triple_item_ = *item;
    const size_t n = view.triple_item_.size();
    KF_RETURN_IF_ERROR(
        LoadPacked(file, BlockId::kTripleObject, n, &view.triple_object_));
    KF_RETURN_IF_ERROR(
        LoadColumn(file, BlockId::kTripleFlags, n, &view.triple_flag_));
  }

  // Records. Site/pattern/predicate are optional (derived when absent);
  // confidence is fixed-point when the writer proved it bit-exact.
  {
    Result<PackedSpan> triple = file.Packed(BlockId::kRecordTriple);
    if (!triple.ok()) return triple.status();
    view.record_triple_ = *triple;
    const size_t n = view.record_triple_.size();
    KF_RETURN_IF_ERROR(LoadPacked(file, BlockId::kRecordExtractor, n,
                                  &view.record_extractor_));
    KF_RETURN_IF_ERROR(
        LoadPacked(file, BlockId::kRecordUrl, n, &view.record_url_));
    if (file.Find(BlockId::kRecordSite) != nullptr) {
      KF_RETURN_IF_ERROR(
          LoadPacked(file, BlockId::kRecordSite, n, &view.record_site_));
    }
    if (file.Find(BlockId::kRecordPattern) != nullptr) {
      KF_RETURN_IF_ERROR(LoadPacked(file, BlockId::kRecordPattern, n,
                                    &view.record_pattern_));
    }
    if (file.Find(BlockId::kRecordPredicate) != nullptr) {
      KF_RETURN_IF_ERROR(LoadPacked(file, BlockId::kRecordPredicate, n,
                                    &view.record_predicate_));
    }
    const BlockEntry* conf = file.Find(BlockId::kRecordConfidence);
    if (conf != nullptr &&
        static_cast<Encoding>(conf->encoding) == Encoding::kPacked) {
      view.conf_fixed4_ = true;
      KF_RETURN_IF_ERROR(LoadPacked(file, BlockId::kRecordConfidence, n,
                                    &view.record_conf_fixed_));
      for (size_t r = 0; r < n; ++r) {
        if (view.record_conf_fixed_[r] > kConfFixedScale) {
          return Status::InvalidArgument(StrFormat(
              "store: record %zu: fixed-point confidence %llu above scale",
              r,
              static_cast<unsigned long long>(view.record_conf_fixed_[r])));
        }
      }
    } else {
      // Missing block errors here with the standard message.
      KF_RETURN_IF_ERROR(LoadColumn(file, BlockId::kRecordConfidence, n,
                                    &view.record_confidence_));
    }
    KF_RETURN_IF_ERROR(
        LoadColumn(file, BlockId::kRecordFlags, n, &view.record_flag_));
  }

  // Extractor metas.
  KF_RETURN_IF_ERROR(
      LoadDict(file, BlockId::kExtractorName, &view.extractor_name_));
  {
    const size_t n = view.extractor_name_.offsets.size() - 1;
    KF_RETURN_IF_ERROR(LoadColumn(file, BlockId::kExtractorContent, n,
                                  &view.extractor_content_));
    KF_RETURN_IF_ERROR(LoadColumn(file, BlockId::kExtractorHasConf, n,
                                  &view.extractor_has_conf_));
    KF_RETURN_IF_ERROR(LoadColumn(file, BlockId::kExtractorFramework, n,
                                  &view.extractor_framework_));
    KF_RETURN_IF_ERROR(LoadColumn(file, BlockId::kExtractorLinkage, n,
                                  &view.extractor_linkage_));
  }

  KF_RETURN_IF_ERROR(LoadPacked(file, BlockId::kUrlSite,
                                view.dict_size(CorpusDict::kUrls),
                                &view.url_site_));

  // Cross-reference validation: every id a scan can return stays in
  // range, so accessors and Materialize never fault on a crafted file.
  // The derived accessors only chain through columns checked here
  // (site: url->url_site, predicate: triple->item->item_predicate).
  const size_t num_metas = view.extractor_name_.offsets.size() - 1;
  KF_RETURN_IF_ERROR(CheckIds(BlockId::kItemSubject, view.item_subject_,
                              view.dict_size(CorpusDict::kSubjects),
                              "subject"));
  KF_RETURN_IF_ERROR(CheckIds(BlockId::kItemPredicate, view.item_predicate_,
                              view.dict_size(CorpusDict::kPredicates),
                              "predicate"));
  KF_RETURN_IF_ERROR(CheckIds(BlockId::kTripleItem, view.triple_item_,
                              view.item_subject_.size(), "data item"));
  KF_RETURN_IF_ERROR(CheckIds(BlockId::kTripleObject, view.triple_object_,
                              view.value_kind_.size(), "value"));
  KF_RETURN_IF_ERROR(CheckIds(BlockId::kRecordTriple, view.record_triple_,
                              view.triple_item_.size(), "triple"));
  KF_RETURN_IF_ERROR(CheckIds(BlockId::kRecordExtractor,
                              view.record_extractor_, num_metas,
                              "extractor"));
  if (view.record_pattern_.empty()) {
    // With the pattern column omitted, extractor ids double as pattern
    // ids — which index the extractors *dictionary*, not the meta table.
    KF_RETURN_IF_ERROR(CheckIds(BlockId::kRecordExtractor,
                                view.record_extractor_,
                                view.dict_size(CorpusDict::kExtractors),
                                "pattern (derived from extractor)"));
  }
  KF_RETURN_IF_ERROR(CheckIds(BlockId::kRecordUrl, view.record_url_,
                              view.dict_size(CorpusDict::kUrls), "url"));
  KF_RETURN_IF_ERROR(CheckIds(BlockId::kRecordSite, view.record_site_,
                              view.dict_size(CorpusDict::kSites), "site"));
  KF_RETURN_IF_ERROR(CheckIds(BlockId::kRecordPattern, view.record_pattern_,
                              view.dict_size(CorpusDict::kExtractors),
                              "pattern"));
  KF_RETURN_IF_ERROR(CheckIds(BlockId::kRecordPredicate,
                              view.record_predicate_,
                              view.dict_size(CorpusDict::kPredicates),
                              "predicate"));
  KF_RETURN_IF_ERROR(CheckIds(BlockId::kUrlSite, view.url_site_,
                              view.dict_size(CorpusDict::kSites), "site"));
  return view;
}

Result<extract::TsvCorpus> CorpusView::Materialize() const {
  extract::TsvCorpus corpus;
  const auto dict = [this](CorpusDict d) -> const Dict& {
    return dicts_[static_cast<size_t>(d)];
  };
  KF_RETURN_IF_ERROR(FillInterner(dict(CorpusDict::kSubjects), "subject",
                                  &corpus.subjects));
  KF_RETURN_IF_ERROR(FillInterner(dict(CorpusDict::kPredicates),
                                  "predicate", &corpus.predicates));
  KF_RETURN_IF_ERROR(FillInterner(dict(CorpusDict::kObjects), "object",
                                  &corpus.objects));
  KF_RETURN_IF_ERROR(FillInterner(dict(CorpusDict::kExtractors),
                                  "extractor", &corpus.extractors));
  KF_RETURN_IF_ERROR(
      FillInterner(dict(CorpusDict::kUrls), "url", &corpus.urls));
  KF_RETURN_IF_ERROR(
      FillInterner(dict(CorpusDict::kSites), "site", &corpus.sites));

  corpus.values.Reserve(value_kind_.size());
  for (size_t v = 0; v < value_kind_.size(); ++v) {
    kb::Value value;
    switch (value_kind_[v]) {
      case static_cast<uint8_t>(kb::ValueKind::kEntity):
        value = kb::Value::OfEntity(
            static_cast<kb::EntityId>(value_payload_[v]));
        break;
      case static_cast<uint8_t>(kb::ValueKind::kString):
        if (value_payload_[v] >= dict_size(CorpusDict::kObjects)) {
          return Status::InvalidArgument(StrFormat(
              "store: value %zu: string id out of range", v));
        }
        value = kb::Value::OfString(static_cast<uint32_t>(value_payload_[v]));
        break;
      case static_cast<uint8_t>(kb::ValueKind::kNumber):
        value = kb::Value::OfNumber(DoubleFromBits(value_payload_[v]));
        break;
      default:
        return Status::InvalidArgument(
            StrFormat("store: value %zu: unknown value kind %u", v,
                      value_kind_[v]));
    }
    if (corpus.values.Intern(value) != v) {
      return Status::InvalidArgument(
          StrFormat("store: value table has a duplicate entry at id %zu",
                    v));
    }
  }

  extract::ExtractionDataset& ds = corpus.dataset;
  ds.Reserve(item_subject_.size(), triple_item_.size(),
             record_triple_.size());
  for (size_t i = 0; i < item_subject_.size(); ++i) {
    const kb::DataItem item{static_cast<uint32_t>(item_subject_[i]),
                            static_cast<uint32_t>(item_predicate_[i])};
    if (ds.InternItem(item) != i) {
      return Status::InvalidArgument(StrFormat(
          "store: duplicate data item at id %zu", i));
    }
  }
  for (size_t t = 0; t < triple_item_.size(); ++t) {
    const size_t item = static_cast<size_t>(triple_item_[t]);
    const kb::DataItem di{static_cast<uint32_t>(item_subject_[item]),
                          static_cast<uint32_t>(item_predicate_[item])};
    const uint8_t flags = triple_flag_[t];
    if (flags > 3) {
      return Status::InvalidArgument(
          StrFormat("store: triple %zu: unknown flag bits 0x%x", t, flags));
    }
    if (ds.InternTriple(di, static_cast<uint32_t>(triple_object_[t]),
                        (flags & 1) != 0, (flags & 2) != 0) != t) {
      return Status::InvalidArgument(
          StrFormat("store: duplicate triple at id %zu", t));
    }
  }

  {
    // Hot loop: widen each packed column into a scratch uint32 vector
    // once, then fill records with plain indexed loads. This roughly
    // halves materialization time versus calling the byte-width-dispatching
    // accessors per row (the per-access memcpy chains defeat the
    // optimizer), and it hoists the derive-or-load branches for the
    // omitted site/pattern/predicate columns out of the loop.
    const size_t n = record_triple_.size();
    const auto widen = [](PackedSpan s) {
      std::vector<uint32_t> v(s.size());
      for (size_t i = 0; i < s.size(); ++i) {
        v[i] = static_cast<uint32_t>(s[i]);
      }
      return v;
    };
    const std::vector<uint32_t> r_triple = widen(record_triple_);
    const std::vector<uint32_t> r_extractor = widen(record_extractor_);
    const std::vector<uint32_t> r_url = widen(record_url_);
    const std::vector<uint32_t> u_site = widen(url_site_);
    // Explicit columns when present; empty means "derive per row".
    const std::vector<uint32_t> r_site = widen(record_site_);
    const std::vector<uint32_t> r_pattern = widen(record_pattern_);
    const std::vector<uint32_t> r_predicate = widen(record_predicate_);
    std::vector<uint32_t> t_predicate;
    if (r_predicate.empty() && n > 0) {
      // predicate(r) = item_predicate[triple_item[record_triple[r]]];
      // pre-fold the two inner hops into one per-triple table.
      t_predicate.resize(triple_item_.size());
      for (size_t t = 0; t < triple_item_.size(); ++t) {
        t_predicate[t] = static_cast<uint32_t>(
            item_predicate_[static_cast<size_t>(triple_item_[t])]);
      }
    }
    for (size_t r = 0; r < n; ++r) {
      extract::ExtractionRecord record;
      record.triple = r_triple[r];
      record.prov.extractor = r_extractor[r];
      record.prov.url = r_url[r];
      record.prov.site = r_site.empty() ? u_site[r_url[r]] : r_site[r];
      record.prov.pattern = r_pattern.empty() ? r_extractor[r] : r_pattern[r];
      record.prov.predicate =
          r_predicate.empty() ? t_predicate[r_triple[r]] : r_predicate[r];
      record.confidence = conf_fixed4_
                              ? static_cast<float>(record_conf_fixed_[r]) /
                                    static_cast<float>(kConfFixedScale)
                              : record_confidence_[r];
      const uint8_t flags = record_flag_[r];
      record.has_confidence = (flags & 1) != 0;
      const uint8_t error = flags >> 1;
      if (error >
          static_cast<uint8_t>(extract::ErrorClass::kMoreGeneralValue)) {
        return Status::InvalidArgument(StrFormat(
            "store: record %zu: unknown error class %u", r, error));
      }
      record.error = static_cast<extract::ErrorClass>(error);
      ds.AddRecord(record);
    }
  }

  {
    const size_t n = extractor_name_.offsets.size() - 1;
    std::vector<extract::ExtractorMeta> metas(n);
    for (size_t i = 0; i < n; ++i) {
      const Dict& d = extractor_name_;
      metas[i].name = std::string(
          d.bytes.substr(d.offsets[i], d.offsets[i + 1] - d.offsets[i]));
      if (extractor_content_[i] >= extract::kNumContentTypes) {
        return Status::InvalidArgument(
            StrFormat("store: extractor %zu: unknown content type %u", i,
                      extractor_content_[i]));
      }
      metas[i].content =
          static_cast<extract::ContentType>(extractor_content_[i]);
      metas[i].has_confidence = extractor_has_conf_[i] != 0;
      metas[i].framework_group =
          static_cast<int32_t>(extractor_framework_[i]);
      metas[i].linkage_group = static_cast<int32_t>(extractor_linkage_[i]);
    }
    ds.SetExtractors(std::move(metas));
  }

  {
    std::vector<extract::SiteId> url_sites(url_site_.size());
    for (size_t u = 0; u < url_site_.size(); ++u) {
      url_sites[u] = static_cast<extract::SiteId>(url_site_[u]);
    }
    ds.SetUrlSites(std::move(url_sites));
  }
  ds.SetCounts(meta_[0], meta_[1], meta_[2]);
  return corpus;
}

Result<extract::TsvCorpus> LoadCorpus(std::string_view bytes) {
  Result<CorpusView> view = CorpusView::Parse(bytes);
  if (!view.ok()) return view.status();
  return view->Materialize();
}

Result<extract::TsvCorpus> LoadCorpusFile(const std::string& path) {
  Result<std::string> bytes = extract::ReadFile(path);
  if (!bytes.ok()) return bytes.status();  // already names the path
  Result<extract::TsvCorpus> corpus = LoadCorpus(*bytes);
  if (!corpus.ok()) return PrefixPath(path, corpus.status());
  return corpus;
}

Result<CorpusMmapView> CorpusMmapView::Open(const std::string& path) {
  Result<MmapFile> map = MmapFile::Open(path);
  if (!map.ok()) return map.status();
  CorpusMmapView mapped;
  mapped.map_ = std::move(*map);
  Result<CorpusView> view = CorpusView::Parse(mapped.map_.data());
  if (!view.ok()) return PrefixPath(path, view.status());
  mapped.view_ = std::move(*view);
  return mapped;
}

// ---- fused KB --------------------------------------------------------

std::string WriteFusedKb(const FusedKbColumns& kb) {
  const size_t n = kb.num_triples();
  const size_t num_provs = kb.num_provenances();
  KF_CHECK(kb.triple_predicate.size() == n && kb.triple_object.size() == n &&
           kb.probability.size() == n && kb.calibrated.size() == n &&
           kb.triple_flags.size() == n && kb.support_offsets.size() == n + 1 &&
           kb.support_offsets[n] == kb.supporters.size());
  KF_CHECK(kb.prov_descriptions.size() == num_provs &&
           kb.prov_evaluated.size() == num_provs &&
           kb.prov_claims.size() == num_provs);

  BlockBuilder builder;
  StringArena method;
  method.Append(kb.method);
  builder.AddStrings(BlockId::kKbMethod, method);
  const uint64_t meta[1] = {kb.num_rounds};
  builder.AddRaw(BlockId::kKbMeta, meta, sizeof(meta), 1);

  builder.AddStrings(BlockId::kProvDescription, kb.prov_descriptions);
  builder.AddColumn(BlockId::kProvAccuracy, kb.prov_accuracy);
  builder.AddColumn(BlockId::kProvEvaluated, kb.prov_evaluated);
  builder.AddPacked(BlockId::kProvClaims, kb.prov_claims);

  builder.AddStrings(BlockId::kKbDictSubjects, kb.subjects.strings());
  builder.AddStrings(BlockId::kKbDictPredicates, kb.predicates.strings());
  builder.AddStrings(BlockId::kKbDictObjects, kb.objects.strings());
  builder.AddPacked(BlockId::kKbTripleSubject, kb.triple_subject);
  builder.AddPacked(BlockId::kKbTriplePredicate, kb.triple_predicate);
  builder.AddPacked(BlockId::kKbTripleObject, kb.triple_object);
  builder.AddColumn(BlockId::kKbProbability, kb.probability);
  builder.AddColumn(BlockId::kKbCalibrated, kb.calibrated);
  builder.AddColumn(BlockId::kKbTripleFlags, kb.triple_flags);
  builder.AddDeltaVarint(BlockId::kKbSupportOffsets, kb.support_offsets);
  builder.AddVarintLists(BlockId::kKbSupporters, kb.support_offsets,
                         kb.supporters);
  return builder.Finish(ContentKind::kFusedKb);
}

Status WriteFusedKbFile(const FusedKbColumns& kb, const std::string& path) {
  return AtomicWriteFile(path, WriteFusedKb(kb));
}

Result<FusedKbView> FusedKbView::Parse(std::string_view bytes) {
  Result<BlockFile> blocks = BlockFile::Parse(bytes, ContentKind::kFusedKb);
  if (!blocks.ok()) return blocks.status();

  FusedKbView view;
  view.blocks_ = std::move(*blocks);
  const BlockFile& file = view.blocks_;

  {
    Dict method;
    KF_RETURN_IF_ERROR(LoadDict(file, BlockId::kKbMethod, &method));
    if (method.offsets.size() != 2) {
      return Status::InvalidArgument(
          "store: method block must hold exactly one string");
    }
    view.method_ = method.bytes.substr(0, method.offsets[1]);
  }
  KF_RETURN_IF_ERROR(LoadColumn(file, BlockId::kKbMeta, 1, &view.meta_));

  KF_RETURN_IF_ERROR(
      LoadDict(file, BlockId::kProvDescription, &view.prov_description_));
  const size_t num_provs = view.prov_description_.offsets.size() - 1;
  KF_RETURN_IF_ERROR(LoadColumn(file, BlockId::kProvAccuracy, num_provs,
                                &view.prov_accuracy_));
  KF_RETURN_IF_ERROR(LoadColumn(file, BlockId::kProvEvaluated, num_provs,
                                &view.prov_evaluated_));
  KF_RETURN_IF_ERROR(
      LoadPacked(file, BlockId::kProvClaims, num_provs, &view.prov_claims_));

  KF_RETURN_IF_ERROR(LoadDict(file, BlockId::kKbDictSubjects, &view.subjects_));
  KF_RETURN_IF_ERROR(
      LoadDict(file, BlockId::kKbDictPredicates, &view.predicates_));
  KF_RETURN_IF_ERROR(LoadDict(file, BlockId::kKbDictObjects, &view.objects_));

  {
    Result<PackedSpan> subject = file.Packed(BlockId::kKbTripleSubject);
    if (!subject.ok()) return subject.status();
    view.t_subject_ = *subject;
    const size_t n = view.t_subject_.size();
    KF_RETURN_IF_ERROR(
        LoadPacked(file, BlockId::kKbTriplePredicate, n, &view.t_predicate_));
    KF_RETURN_IF_ERROR(
        LoadPacked(file, BlockId::kKbTripleObject, n, &view.t_object_));
    KF_RETURN_IF_ERROR(
        LoadColumn(file, BlockId::kKbProbability, n, &view.probability_));
    KF_RETURN_IF_ERROR(
        LoadColumn(file, BlockId::kKbCalibrated, n, &view.calibrated_));
    KF_RETURN_IF_ERROR(
        LoadColumn(file, BlockId::kKbTripleFlags, n, &view.triple_flag_));

    KF_RETURN_IF_ERROR(
        file.DecodeDeltaVarint(BlockId::kKbSupportOffsets,
                               &view.support_offsets_));
    if (view.support_offsets_.size() != n + 1 ||
        (n > 0 && view.support_offsets_[0] != 0)) {
      return Status::InvalidArgument(
          "store: supporter offsets do not match the triple count");
    }
    if (view.support_offsets_.empty()) view.support_offsets_ = {0};
    KF_RETURN_IF_ERROR(file.DecodeVarintLists(BlockId::kKbSupporters,
                                              view.support_offsets_,
                                              &view.supporters_));
  }

  // Range checks so accessors and scans cannot fault.
  KF_RETURN_IF_ERROR(CheckIds(BlockId::kKbTripleSubject, view.t_subject_,
                              view.subjects_.offsets.size() - 1, "subject"));
  KF_RETURN_IF_ERROR(CheckIds(BlockId::kKbTriplePredicate,
                              view.t_predicate_,
                              view.predicates_.offsets.size() - 1,
                              "predicate"));
  KF_RETURN_IF_ERROR(CheckIds(BlockId::kKbTripleObject, view.t_object_,
                              view.objects_.offsets.size() - 1, "object"));
  KF_RETURN_IF_ERROR(
      CheckIds(BlockId::kKbSupporters,
               Span<const uint32_t>{view.supporters_.data(),
                                    view.supporters_.size()},
               num_provs, "supporter provenance"));
  for (size_t t = 0; t < view.triple_flag_.size(); ++t) {
    if (view.triple_flag_[t] > 7) {
      return Status::InvalidArgument(StrFormat(
          "store: triple %zu: unknown flag bits 0x%x", t,
          view.triple_flag_[t]));
    }
  }
  return view;
}

Result<FusedKbColumns> FusedKbView::Materialize() const {
  FusedKbColumns kb;
  kb.method = std::string(method());
  kb.num_rounds = num_rounds();
  KF_RETURN_IF_ERROR(FillInterner(subjects_, "subject", &kb.subjects));
  KF_RETURN_IF_ERROR(FillInterner(predicates_, "predicate", &kb.predicates));
  KF_RETURN_IF_ERROR(FillInterner(objects_, "object", &kb.objects));

  const size_t num_provs = num_provenances();
  kb.prov_descriptions.Assign(prov_description_.offsets.ptr, num_provs,
                              prov_description_.bytes);
  kb.prov_accuracy.assign(prov_accuracy_.begin(), prov_accuracy_.end());
  kb.prov_evaluated.resize(num_provs);
  kb.prov_claims.resize(num_provs);
  for (size_t p = 0; p < num_provs; ++p) {
    kb.prov_evaluated[p] = prov_evaluated_[p] != 0 ? 1 : 0;
    kb.prov_claims[p] = static_cast<uint32_t>(prov_claims_[p]);
  }

  const auto widen = [](PackedSpan column, std::vector<uint32_t>* out) {
    out->resize(column.size());
    for (size_t i = 0; i < column.size(); ++i) {
      (*out)[i] = static_cast<uint32_t>(column[i]);
    }
  };
  widen(t_subject_, &kb.triple_subject);
  widen(t_predicate_, &kb.triple_predicate);
  widen(t_object_, &kb.triple_object);
  kb.probability.assign(probability_.begin(), probability_.end());
  kb.calibrated.assign(calibrated_.begin(), calibrated_.end());
  kb.triple_flags.assign(triple_flag_.begin(), triple_flag_.end());
  kb.support_offsets = support_offsets_;
  kb.supporters = supporters_;
  return kb;
}

Result<FusedKbColumns> LoadFusedKb(std::string_view bytes) {
  Result<FusedKbView> view = FusedKbView::Parse(bytes);
  if (!view.ok()) return view.status();
  return view->Materialize();
}

Result<FusedKbColumns> LoadFusedKbFile(const std::string& path) {
  Result<std::string> bytes = extract::ReadFile(path);
  if (!bytes.ok()) return bytes.status();  // already names the path
  Result<FusedKbColumns> kb = LoadFusedKb(*bytes);
  if (!kb.ok()) return PrefixPath(path, kb.status());
  return kb;
}

Result<FusedKbMmapView> FusedKbMmapView::Open(const std::string& path) {
  Result<MmapFile> map = MmapFile::Open(path);
  if (!map.ok()) return map.status();
  FusedKbMmapView mapped;
  mapped.map_ = std::move(*map);
  Result<FusedKbView> view = FusedKbView::Parse(mapped.map_.data());
  if (!view.ok()) return PrefixPath(path, view.status());
  mapped.view_ = std::move(*view);
  return mapped;
}

}  // namespace kf::store
