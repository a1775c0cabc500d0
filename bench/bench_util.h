// Shared scaffolding for the bench binaries: one lazily generated default
// corpus + gold standard per process, and paper-vs-measured table helpers.
// Every bench prints the rows/series of one table or figure of the paper
// next to the paper's reported numbers (where the paper gives them).
#ifndef KF_BENCH_BENCH_UTIL_H_
#define KF_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/label.h"
#include "common/string_util.h"
#include "common/table.h"
#include "eval/gold_standard.h"
#include "fusion/engine.h"
#include "kf/session.h"
#include "synth/corpus.h"

namespace kf::bench {

/// Every bench funnels its fusion options through here before touching the
/// engine: a bad combination (usually a hand-edited experiment sweep)
/// reports the Status and exits instead of KF_CHECK-aborting deep inside
/// FusionEngine.
inline void ValidateOrExit(const fusion::FusionOptions& options) {
  Status status = options.Validate();
  if (!status.ok()) {
    std::fprintf(stderr, "invalid fusion options (%s): %s\n",
                 options.ToString().c_str(), status.ToString().c_str());
    std::exit(2);
  }
}

/// One validated batch fusion through the public kf::Session facade — the
/// bench drivers' single entry point for every method (options.method).
/// Exits with the Status on invalid options or unmet method requirements.
inline fusion::FusionResult RunFusion(
    const extract::ExtractionDataset& dataset,
    const fusion::FusionOptions& options,
    const std::vector<Label>* gold = nullptr,
    const kb::ValueHierarchy* hierarchy = nullptr) {
  Session session = Session::Borrow(dataset);
  session.SetHierarchy(hierarchy);
  Result<fusion::FusionResult> result = session.Fuse(options, gold);
  if (!result.ok()) {
    std::fprintf(stderr, "fusion failed (%s): %s\n",
                 options.ToString().c_str(),
                 result.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(result).value();
}

/// RunFusion with just a method over otherwise default options.
inline fusion::FusionResult RunMethod(
    fusion::Method method, const extract::ExtractionDataset& dataset,
    const std::vector<Label>* gold = nullptr,
    const kb::ValueHierarchy* hierarchy = nullptr) {
  fusion::FusionOptions options;
  options.method = method;
  return RunFusion(dataset, options, gold, hierarchy);
}

struct Workload {
  synth::SynthCorpus corpus;
  std::vector<Label> labels;
};

/// The default corpus all benches share (generated once per process).
inline const Workload& GetWorkload() {
  static Workload* workload = [] {
    auto* w = new Workload();
    synth::SynthConfig config;
    std::fprintf(stderr, "[bench] generating default corpus (seed %llu)...\n",
                 static_cast<unsigned long long>(config.seed));
    w->corpus = synth::GenerateCorpus(config);
    w->labels = eval::BuildGoldStandard(w->corpus.dataset, w->corpus.freebase);
    std::fprintf(stderr,
                 "[bench] corpus: %zu records, %zu unique triples, "
                 "%zu data items\n",
                 w->corpus.dataset.num_records(),
                 w->corpus.dataset.num_triples(),
                 w->corpus.dataset.num_items());
    return w;
  }();
  return *workload;
}

inline void PrintHeader(const std::string& experiment,
                        const std::string& what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", experiment.c_str(), what.c_str());
  std::printf("==============================================================\n");
}

inline void PrintNote(const std::string& note) {
  std::printf("note: %s\n", note.c_str());
}

/// "paper=0.36 measured=0.34" convenience cell.
inline std::string PaperVsMeasured(double paper, double measured,
                                   int digits = 3) {
  return "paper=" + ToFixed(paper, digits) +
         " measured=" + ToFixed(measured, digits);
}

}  // namespace kf::bench

#endif  // KF_BENCH_BENCH_UTIL_H_
