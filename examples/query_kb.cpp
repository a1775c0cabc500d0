// Querying the fused knowledge base: fuse a TSV of extractions, snapshot
// the run as a kf::FusedKB, and use the KB itself — look up winning
// values, explain a disputed verdict with its provenance evidence, list
// the most confident triples, and round-trip the KB through the
// exportable fused-KB schema. This is the paper's end product as an API
// object: calibrated truth probabilities with the extractors behind them.
//
//   ./query_kb [INPUT.tsv]
#include <cstdio>
#include <string>
#include <utility>

#include "extract/tsv_io.h"
#include "kf/session.h"

using namespace kf;

namespace {

// The running example of the paper (same shape as the checked-in demo
// TSV): conflicting birth dates and release years across extractors.
constexpr const char* kDemo =
    "TomCruise\tbirth_date\t1962-07-03\tdom\thttps://en.wikipedia.org/tc\t0.95\n"
    "TomCruise\tbirth_date\t1962-07-03\ttxt\thttps://www.imdb.com/tc\t0.80\n"
    "TomCruise\tbirth_date\t1962-07-03\tano\thttps://m.fandango.com/tc\t0.70\n"
    "TomCruise\tbirth_date\t1963-07-03\ttxt\thttps://fansite.example.com/tc\t0.40\n"
    "TopGun\trelease_year\t1986\ttbl\thttps://en.wikipedia.org/tg\t0.90\n"
    "TopGun\trelease_year\t1996\ttbl\thttps://badmoviedb.example.com/tg\t0.30\n";

void PrintVerdict(const KbVerdict& v) {
  std::printf("  (%.*s, %.*s, %.*s)  p=%.3f%s%s\n",
              static_cast<int>(v.subject.size()), v.subject.data(),
              static_cast<int>(v.predicate.size()), v.predicate.data(),
              static_cast<int>(v.object.size()), v.object.data(),
              v.probability, v.winner ? "  [winner]" : "",
              v.from_fallback ? "  [fallback]" : "");
}

}  // namespace

int main(int argc, char** argv) {
  Result<extract::TsvCorpus> corpus =
      argc > 1 ? extract::ReadExtractionsTsvFile(argv[1])
               : extract::ReadExtractionsTsv(kDemo);
  if (!corpus.ok()) {
    std::fprintf(stderr, "error: %s\n", corpus.status().ToString().c_str());
    return 1;
  }

  // Fuse with ACCU at (Extractor, Site) granularity, then snapshot: the
  // FusedKB owns a session-independent copy of the verdicts, so the
  // session could append, re-fuse, or go away without touching it.
  Session session = Session::Borrow(corpus->dataset);
  fusion::FusionOptions options;
  options.method = fusion::Method::kAccu;
  options.granularity = extract::Granularity::ExtractorSite();
  Result<fusion::FusionResult> fused = session.Fuse(options);
  if (!fused.ok()) {
    std::fprintf(stderr, "fusion failed: %s\n",
                 fused.status().ToString().c_str());
    return 1;
  }
  Result<FusedKB> snapshot =
      session.Snapshot(SnapshotNaming::FromCorpus(*corpus));
  if (!snapshot.ok()) {
    std::fprintf(stderr, "snapshot failed: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  FusedKB kb = std::move(snapshot).value();
  std::printf("fused KB: %zu triples over %zu items, %zu provenances, "
              "method %s (%zu rounds)\n\n",
              kb.num_triples(), kb.num_items(), kb.num_provenances(),
              kb.method().c_str(), kb.num_rounds());

  // 1. Lookup: the winning value of a data item.
  std::printf("Lookup(TomCruise, birth_date):\n");
  if (auto v = kb.Lookup("TomCruise", "birth_date")) PrintVerdict(*v);

  // 2. Verdict on a specific (losing) triple.
  std::printf("\nVerdict(TomCruise, birth_date, 1963-07-03):\n");
  if (auto v = kb.Verdict("TomCruise", "birth_date", "1963-07-03")) {
    PrintVerdict(*v);
  }

  // 3. Explain: every provenance behind the verdict, with its converged
  //    accuracy and log-odds vote weight.
  std::printf("\nExplain(TomCruise, birth_date, 1962-07-03):\n");
  for (const KbEvidence& e : kb.Explain("TomCruise", "birth_date",
                                        "1962-07-03")) {
    std::printf("  %s %.*s  claims %.*s  accuracy=%.3f vote=%+.2f%s\n",
                e.supports ? "supporting   " : "contradicting",
                static_cast<int>(e.description.size()),
                e.description.data(),
                static_cast<int>(e.object.size()), e.object.data(),
                e.accuracy, e.vote, e.evaluated ? "" : " (default)");
  }

  // 4. TopK / AboveThreshold: probability-ordered iteration.
  std::printf("\nTopK(3):\n");
  for (const KbVerdict& v : kb.TopK(3)) PrintVerdict(v);
  std::printf("\n%zu triples with probability >= 0.8\n",
              kb.AboveThreshold(0.8).size());

  // 5. Export -> import round-trip: the KB outlives its Session.
  std::string tsv = kb.ToTsv();
  Result<FusedKB> back = FusedKB::FromTsv(tsv);
  if (!back.ok()) {
    std::fprintf(stderr, "round-trip failed: %s\n",
                 back.status().ToString().c_str());
    return 1;
  }
  std::printf("\nexport -> import round-trip: %s (%zu bytes of TSV)\n",
              *back == kb ? "equal" : "DIFFERENT", tsv.size());
  return *back == kb ? 0 : 1;
}
