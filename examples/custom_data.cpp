// Fusing your own extractions: build an ExtractionDataset by hand (as a
// TSV loader would), fuse it, and read the probabilities back. Shows the
// exact API surface a downstream user needs — no synthetic corpus
// involved.
//
//   ./custom_data
#include <cstdio>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/string_util.h"
#include "extract/dataset.h"
#include "kb/value.h"
#include "kf/session.h"

using namespace kf;

namespace {

// One line of a hypothetical extractions.tsv:
//   subject predicate object extractor url confidence
struct Row {
  const char* subject;
  const char* predicate;
  const char* object;
  const char* extractor;
  const char* url;
  float confidence;
};

// The running example of the paper: Tom Cruise, with a couple of
// conflicting claims and a noisy extractor.
const Row kRows[] = {
    {"TomCruise", "birth_date", "1962-07-03", "dom_extractor",
     "https://en.wikipedia.org/wiki/Tom_Cruise", 0.95f},
    {"TomCruise", "birth_date", "1962-07-03", "txt_extractor",
     "https://en.wikipedia.org/wiki/Tom_Cruise", 0.80f},
    {"TomCruise", "birth_date", "1962-07-03", "dom_extractor",
     "https://www.imdb.com/name/nm0000129", 0.90f},
    {"TomCruise", "birth_date", "1962-07-03", "ano_extractor",
     "https://m.fandango.com/tom-cruise", 0.70f},
    {"TomCruise", "birth_date", "1963-07-03", "txt_extractor",
     "https://celebheights.example.com/tc", 0.40f},
    {"TomCruise", "birth_place", "Syracuse_NY", "dom_extractor",
     "https://en.wikipedia.org/wiki/Tom_Cruise", 0.92f},
    {"TomCruise", "birth_place", "USA", "txt_extractor",
     "https://somefansite.example.com/bio", 0.55f},
    {"TomCruise", "profession", "film_actor", "txt_extractor",
     "https://en.wikipedia.org/wiki/Tom_Cruise", 0.85f},
    {"TomCruise", "profession", "film_producer", "txt_extractor",
     "https://en.wikipedia.org/wiki/Tom_Cruise", 0.81f},
    {"TopGun", "release_year", "1986", "tbl_extractor",
     "https://en.wikipedia.org/wiki/Top_Gun", 0.88f},
    {"TopGun", "release_year", "1996", "tbl_extractor",
     "https://badmoviedb.example.com/topgun", 0.30f},
    {"TopGun", "release_year", "1986", "dom_extractor",
     "https://www.imdb.com/title/tt0092099", 0.93f},
};

}  // namespace

int main() {
  extract::ExtractionDataset dataset;
  StringInterner entities, predicates, objects, extractors, urls, sites;

  // Extractor registry first (ids must be dense).
  std::vector<extract::ExtractorMeta> metas;
  for (const Row& row : kRows) {
    uint32_t id = extractors.Find(row.extractor);
    if (id == StringInterner::kInvalidId) {
      extractors.Intern(row.extractor);
      extract::ExtractorMeta meta;
      meta.name = row.extractor;
      meta.has_confidence = true;
      metas.push_back(meta);
    }
  }
  dataset.SetExtractors(std::move(metas));

  kb::ValueTable values;
  std::vector<extract::SiteId> url_site;
  for (const Row& row : kRows) {
    kb::DataItem item{entities.Intern(row.subject),
                      predicates.Intern(row.predicate)};
    kb::ValueId object =
        values.Intern(kb::Value::OfString(objects.Intern(row.object)));
    // Truth flags are unknown for user data: pass false; the gold standard
    // (if any) comes from a reference KB instead.
    kb::TripleId triple = dataset.InternTriple(item, object, false, false);

    extract::ExtractionRecord record;
    record.triple = triple;
    record.prov.extractor = extractors.Find(row.extractor);
    record.prov.url = urls.Intern(row.url);
    record.prov.site = sites.Intern(SiteOfUrl(row.url));
    record.prov.predicate = item.predicate;
    record.prov.pattern = record.prov.extractor;  // no pattern info
    record.confidence = row.confidence;
    record.has_confidence = true;
    dataset.AddRecord(record);
    if (record.prov.url >= url_site.size()) {
      url_site.resize(record.prov.url + 1);
    }
    url_site[record.prov.url] = record.prov.site;
  }
  dataset.SetUrlSites(std::move(url_site));
  dataset.SetCounts(sites.size(), extractors.size(), predicates.size());

  // Unsupervised fusion at (Extractor, Site) granularity — sensible for a
  // corpus this small. The session owns the dataset from here on.
  Session session(std::move(dataset));
  fusion::FusionOptions options;
  options.method = fusion::Method::kPopAccu;
  options.granularity = extract::Granularity::ExtractorSite();
  Result<fusion::FusionResult> fused = session.Fuse(options);
  if (!fused.ok()) {
    std::fprintf(stderr, "fusion failed: %s\n",
                 fused.status().ToString().c_str());
    return 1;
  }

  // Read the verdicts back through the fused KB, with the hand-built
  // string tables flowing in as naming hooks.
  SnapshotNaming naming;
  naming.subject = [&](kb::EntityId id) {
    return std::string(entities.Get(id));
  };
  naming.predicate = [&](kb::PredicateId id) {
    return std::string(predicates.Get(id));
  };
  naming.object = [&](kb::ValueId id) {
    return std::string(objects.Get(values.Get(id).string_id));
  };
  naming.url = [&](extract::UrlId id) { return std::string(urls.Get(id)); };
  Result<FusedKB> snapshot = session.Snapshot(naming);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "snapshot failed: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  const FusedKB& kb = *snapshot;

  std::printf("%-12s %-14s %-16s %s\n", "subject", "predicate", "object",
              "p(true)");
  for (kb::TripleId t = 0; t < kb.num_triples(); ++t) {
    KbVerdict v = kb.verdict(t);
    std::printf("%-12s %-14s %-16s %.3f%s\n",
                std::string(v.subject).c_str(),
                std::string(v.predicate).c_str(),
                std::string(v.object).c_str(),
                v.has_probability ? v.probability : -1.0,
                v.winner ? "  <= winner" : "");
  }
  std::printf("\nexpected: the 1962 birth date and 1986 release year beat "
              "their rivals;\nprofessions are split by the single-truth "
              "assumption (Section 5.3).\n");
  return 0;
}
