// Command-line fusion over a TSV of extractions, through the kf::Session
// facade — any method the registry knows can run here:
//
//   ./fuse_tsv INPUT.tsv [OUTPUT.tsv] [--method=NAME]
//              [--granularity=url|site|site_pred|site_pred_pattern]
//              [--theta=0.25] [--filter-by-coverage]
//              [--workers=N] [--shards=N]
//              [--min-prob=P] [--export=KB.tsv]
//              [--save-bin=CORPUS.kfs] [--load-bin=CORPUS.kfs]
//              [--memory-budget=MB] [--spill-dir=PATH]
//              [--fault=SPEC]
//
// Input columns: subject predicate object extractor url [confidence]
// Output columns: subject predicate object probability
// With no INPUT, runs on a built-in demo corpus.
//
// Each fusion flag sets one FusionOptions field, and a flag the method
// does not read (say --theta for truthfinder) exits 2 naming the field.
// Methods that read the granularity default to --granularity=site.
//
// --save-bin writes the parsed corpus as a kf::store binary image
// (~3-4x smaller than the TSV, >5x faster to reload); --load-bin reads
// such an image in place of INPUT.tsv, skipping TSV parsing entirely.
//
// --min-prob=P restricts the output to triples with probability >= P
// (FusedKB::AboveThreshold); --export=KB.tsv additionally writes the full
// fused KB — verdicts plus the provenance table behind them — in the
// re-importable fused-KB schema (FusedKB::ExportTsv). Both need an
// engine method (vote / accu / popaccu), which retains the state the
// snapshot is built from.
//
// --memory-budget=MB runs fusion out-of-core under a resident-column
// budget of MB mebibytes (engine methods only): cold claim-graph shards
// spill to mmap-backed kf::store files and the output is bit-identical
// to the unbudgeted run. --spill-dir=PATH puts the shard files there
// instead of a fresh temp directory.
//
// --fault=SPEC arms a deterministic failpoint schedule (same grammar as
// the KF_FAULT environment variable, e.g. "spill.write=eintr%4(seed=7)")
// before fusing, and the run reports how far down the degradation ladder
// it had to go: transient retries, shards quarantined and rebuilt, or a
// full resident fallback. See docs/api.md, "Fault injection".
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "extract/tsv_io.h"
#include "fusion/registry.h"
#include "kf/session.h"
#include "store/store.h"

using namespace kf;

namespace {

constexpr const char* kDemo =
    "TomCruise\tbirth_date\t1962-07-03\tdom\thttps://en.wikipedia.org/tc\t0.95\n"
    "TomCruise\tbirth_date\t1962-07-03\ttxt\thttps://www.imdb.com/tc\t0.80\n"
    "TomCruise\tbirth_date\t1962-07-03\tano\thttps://m.fandango.com/tc\t0.70\n"
    "TomCruise\tbirth_date\t1963-07-03\ttxt\thttps://fansite.example.com/tc\t0.40\n"
    "TopGun\trelease_year\t1986\ttbl\thttps://en.wikipedia.org/tg\t0.90\n"
    "TopGun\trelease_year\t1996\ttbl\thttps://badmoviedb.example.com/tg\t0.30\n";

void Usage() {
  std::fprintf(stderr,
               "usage: fuse_tsv [INPUT.tsv] [OUTPUT.tsv] [--method=NAME]\n"
               "                [--granularity=url|site|site_pred|"
               "site_pred_pattern]\n"
               "                [--theta=X] [--filter-by-coverage]\n"
               "                [--workers=N] [--shards=N]\n"
               "                [--min-prob=P] [--export=KB.tsv]\n"
               "                [--save-bin=CORPUS.kfs] "
               "[--load-bin=CORPUS.kfs]\n"
               "                [--memory-budget=MB] [--spill-dir=PATH]\n"
               "                [--fault=SPEC]\n"
               "methods: %s\n",
               fusion::Registry::NamesCsv().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string input, output, export_path, save_bin, load_bin;
  double min_prob = -1.0;  // < 0: no threshold filtering
  fusion::FusionOptions options = fusion::FusionOptions::PopAccu();
  // The FusionOptions fields the flags set; the method must read each.
  std::vector<fusion::OptionField> flagged;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // These accept both "--flag=value" and "--flag value".
    if (arg == "--export" || arg == "--min-prob" || arg == "--save-bin" ||
        arg == "--load-bin" || arg == "--memory-budget" ||
        arg == "--spill-dir" || arg == "--fault") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s expects a value\n", arg.c_str());
        Usage();
        return 2;
      }
      arg += "=";
      arg += argv[++i];
    }
    if (StartsWith(arg, "--export=")) {
      export_path = arg.substr(9);
      if (export_path.empty()) {
        std::fprintf(stderr, "error: --export expects a path\n");
        Usage();
        return 2;
      }
      continue;
    }
    if (StartsWith(arg, "--save-bin=")) {
      save_bin = arg.substr(11);
      if (save_bin.empty()) {
        std::fprintf(stderr, "error: --save-bin expects a path\n");
        Usage();
        return 2;
      }
      continue;
    }
    if (StartsWith(arg, "--load-bin=")) {
      load_bin = arg.substr(11);
      if (load_bin.empty()) {
        std::fprintf(stderr, "error: --load-bin expects a path\n");
        Usage();
        return 2;
      }
      continue;
    }
    if (StartsWith(arg, "--memory-budget=")) {
      const char* begin = arg.c_str() + 16;
      char* end = nullptr;
      // Same digit-first guard as --workers: strtoull wraps negatives.
      unsigned long long mb = std::strtoull(begin, &end, 10);
      if (end == begin || *end != '\0' ||
          !(begin[0] >= '0' && begin[0] <= '9') || mb == 0 ||
          mb > (1ull << 34)) {
        std::fprintf(stderr,
                     "error: --memory-budget expects a positive size in "
                     "MiB, got '%s'\n",
                     begin);
        Usage();
        return 2;
      }
      options.memory_budget_bytes = static_cast<size_t>(mb) << 20;
      flagged.push_back(fusion::OptionField::kMemoryBudgetBytes);
      continue;
    }
    if (StartsWith(arg, "--spill-dir=")) {
      options.spill_dir = arg.substr(12);
      if (options.spill_dir.empty()) {
        std::fprintf(stderr, "error: --spill-dir expects a path\n");
        Usage();
        return 2;
      }
      flagged.push_back(fusion::OptionField::kSpillDir);
      continue;
    }
    if (StartsWith(arg, "--fault=")) {
      // Armed on top of any KF_FAULT schedule already in the environment;
      // the parser rejects the whole spec on any malformed clause.
      Status armed = fault::ArmFromConfig(arg.substr(8));
      if (!armed.ok()) {
        std::fprintf(stderr, "error: --fault: %s\n",
                     armed.ToString().c_str());
        Usage();
        return 2;
      }
      continue;
    }
    if (StartsWith(arg, "--min-prob=")) {
      const char* begin = arg.c_str() + 11;
      char* end = nullptr;
      min_prob = std::strtod(begin, &end);
      if (end == begin || *end != '\0' || !(min_prob >= 0.0) ||
          min_prob > 1.0) {
        std::fprintf(stderr,
                     "error: --min-prob expects a probability in [0,1], "
                     "got '%s'\n",
                     begin);
        Usage();
        return 2;
      }
      continue;
    }
    if (StartsWith(arg, "--method=")) {
      // The registry reports the full list of valid names on a typo.
      Result<fusion::Method> method = fusion::Registry::Parse(arg.substr(9));
      if (!method.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     method.status().ToString().c_str());
        Usage();
        return 2;
      }
      options.method = *method;
    } else if (StartsWith(arg, "--granularity=")) {
      std::string g = arg.substr(14);
      if (g == "url") {
        options.granularity = extract::Granularity::ExtractorUrl();
      } else if (g == "site") {
        options.granularity = extract::Granularity::ExtractorSite();
      } else if (g == "site_pred") {
        options.granularity = extract::Granularity::ExtractorSitePredicate();
      } else if (g == "site_pred_pattern") {
        options.granularity =
            extract::Granularity::ExtractorSitePredicatePattern();
      } else {
        Usage();
        return 2;
      }
      flagged.push_back(fusion::OptionField::kGranularity);
    } else if (StartsWith(arg, "--theta=")) {
      const char* begin = arg.c_str() + 8;
      char* end = nullptr;
      options.min_provenance_accuracy = std::strtod(begin, &end);
      if (end == begin || *end != '\0') {
        std::fprintf(stderr, "error: --theta expects a number, got '%s'\n",
                     begin);
        Usage();
        return 2;
      }
      flagged.push_back(fusion::OptionField::kMinProvenanceAccuracy);
    } else if (StartsWith(arg, "--workers=") ||
               StartsWith(arg, "--shards=")) {
      const bool is_workers = StartsWith(arg, "--workers=");
      const char* begin = arg.c_str() + (is_workers ? 10 : 9);
      char* end = nullptr;
      // strtoull skips leading whitespace and silently wraps negatives
      // ("-1" -> 2^64-1); require the value to start with a digit.
      unsigned long long v = std::strtoull(begin, &end, 10);
      if (end == begin || *end != '\0' ||
          !(begin[0] >= '0' && begin[0] <= '9')) {
        std::fprintf(stderr,
                     "error: %s expects a non-negative integer, got '%s'\n",
                     is_workers ? "--workers" : "--shards", begin);
        Usage();
        return 2;
      }
      if (is_workers) {
        options.num_workers = static_cast<size_t>(v);
        flagged.push_back(fusion::OptionField::kNumWorkers);
      } else {
        options.num_shards = static_cast<size_t>(v);
        flagged.push_back(fusion::OptionField::kNumShards);
      }
    } else if (arg == "--filter-by-coverage") {
      options.filter_by_coverage = true;
      flagged.push_back(fusion::OptionField::kFilterByCoverage);
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (input.empty()) {
      input = arg;
    } else if (output.empty()) {
      output = arg;
    } else {
      Usage();
      return 2;
    }
  }

  // A flag the method does not read is an error naming its field. The CLI
  // defaults to (Extractor, Site) provenances for methods that read them.
  for (fusion::OptionField field : flagged) {
    Status reads = fusion::Registry::CheckReads(options.method, field);
    if (!reads.ok()) {
      std::fprintf(stderr, "error: %s\n", reads.ToString().c_str());
      Usage();
      return 2;
    }
  }
  const bool granularity_flagged =
      std::find(flagged.begin(), flagged.end(),
                fusion::OptionField::kGranularity) != flagged.end();
  if (!granularity_flagged &&
      fusion::Registry::Reads(options.method,
                              fusion::OptionField::kGranularity)) {
    options.granularity = extract::Granularity::ExtractorSite();
  }

  // Rejects out-of-range knobs.
  Status valid = options.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "error: %s\n", valid.ToString().c_str());
    Usage();
    return 2;
  }

  if (!load_bin.empty() && !input.empty()) {
    std::fprintf(stderr,
                 "error: --load-bin replaces INPUT.tsv; give one or the "
                 "other\n");
    Usage();
    return 2;
  }

  Result<extract::TsvCorpus> corpus =
      !load_bin.empty() ? store::LoadCorpusFile(load_bin)
      : input.empty()   ? extract::ReadExtractionsTsv(kDemo)
                        : extract::ReadExtractionsTsvFile(input);
  if (!corpus.ok()) {
    if (!load_bin.empty()) {
      // A missing or corrupt binary image is a usage-level problem (the
      // path is wrong or the file wasn't produced by --save-bin), not an
      // internal failure: explain and show the flags.
      std::fprintf(stderr, "error: cannot load binary corpus: %s\n",
                   corpus.status().message().c_str());
      Usage();
      return 2;
    }
    std::fprintf(stderr, "error: %s\n", corpus.status().ToString().c_str());
    return 1;
  }

  if (!save_bin.empty()) {
    Status saved = store::WriteCorpusFile(*corpus, save_bin);
    if (!saved.ok()) {
      std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "saved binary corpus (%zu records) to %s\n",
                 corpus->dataset.num_records(), save_bin.c_str());
  }
  std::fprintf(stderr, "%zu records -> %zu unique triples, fusing with %s\n",
               corpus->dataset.num_records(), corpus->dataset.num_triples(),
               options.ToString().c_str());

  Session session = Session::Borrow(corpus->dataset);
  Result<fusion::FusionResult> result = session.Fuse(options);
  if (!result.ok()) {
    // E.g. a method that needs gold labels or a value hierarchy, which a
    // bare TSV cannot provide.
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 2;
  }

  // Budgeted runs report how far down the degradation ladder they went —
  // silence means no I/O failure had to be absorbed.
  if (const spill::SpillStats* sp = session.spill_stats()) {
    if (sp->transient_retries > 0 || sp->shards_quarantined > 0 ||
        sp->resident_fallback) {
      std::fprintf(stderr,
                   "fault recovery: %llu transient retries, %zu shards "
                   "quarantined, %zu rematerialized%s\n",
                   static_cast<unsigned long long>(sp->transient_retries),
                   sp->shards_quarantined, sp->shards_rematerialized,
                   sp->resident_fallback
                       ? ", spill dir abandoned (finished fully resident)"
                       : "");
    }
  }

  // --min-prob / --export work on the fused-KB snapshot (engine methods
  // only — the registry baselines keep no engine state to snapshot).
  std::optional<FusedKB> kb;
  if (!export_path.empty() || min_prob >= 0.0) {
    Result<FusedKB> snap =
        session.Snapshot(SnapshotNaming::FromCorpus(*corpus));
    if (!snap.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   snap.status().ToString().c_str());
      return 2;
    }
    kb = std::move(snap).value();
    if (!export_path.empty()) {
      Status exported = kb->ExportTsv(export_path);
      if (!exported.ok()) {
        std::fprintf(stderr, "error: %s\n", exported.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "exported fused KB (%zu triples, %zu "
                   "provenances) to %s\n",
                   kb->num_triples(), kb->num_provenances(),
                   export_path.c_str());
    }
  }

  std::string tsv;
  if (min_prob >= 0.0) {
    tsv = "subject\tpredicate\tobject\tprobability\n";
    for (const KbVerdict& v : kb->AboveThreshold(min_prob)) {
      tsv += std::string(v.subject) + '\t' + std::string(v.predicate) +
             '\t' + std::string(v.object) + '\t' +
             ToFixed(v.probability, 6) + '\n';
    }
  } else {
    tsv = extract::WriteResultsTsv(*corpus, result->probability,
                                   result->has_probability);
  }
  if (output.empty()) {
    std::fwrite(tsv.data(), 1, tsv.size(), stdout);
  } else {
    Status status = extract::WriteFile(output, tsv);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", output.c_str());
  }
  return 0;
}
