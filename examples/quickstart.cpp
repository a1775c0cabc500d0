// Quickstart for the public API: generate a small synthetic extraction
// corpus, open a kf::Session over it, fuse with POPACCU+, evaluate, use
// the probabilities, then stream an append through warm-start re-fusion —
// the end-to-end flow of the paper plus the streaming mode.
//
//   ./quickstart [seed]
#include <cstdio>
#include <cstdlib>

#include "eval/gold_standard.h"
#include "kf/session.h"
#include "synth/corpus.h"

using namespace kf;

int main(int argc, char** argv) {
  // 1. Build a workload. In a real deployment this is your extraction
  //    pipeline's output; here the synthetic corpus plays that role.
  synth::SynthConfig config = synth::SynthConfig::Small();
  if (argc > 1) config.seed = std::strtoull(argv[1], nullptr, 10);
  synth::SynthCorpus corpus = synth::GenerateCorpus(config);

  // 2. Label against the reference KB under the local closed-world
  //    assumption (Section 3.2.1). The labels power evaluation and the
  //    semi-supervised accuracy initialization.
  std::vector<Label> labels =
      eval::BuildGoldStandard(corpus.dataset, corpus.freebase);
  eval::GoldStats gold = eval::SummarizeGold(labels);

  // 3. Open a session owning the dataset. The session is the one stable
  //    entry point: batch fusion, evaluation, streaming re-fusion.
  Session session(std::move(corpus.dataset));
  std::printf("corpus: %zu extraction records -> %zu unique triples\n",
              session.dataset().num_records(),
              session.dataset().num_triples());
  std::printf("gold standard: %zu labeled (%.0f%%), accuracy %.2f\n",
              gold.num_labeled, 100.0 * gold.labeled_fraction, gold.accuracy);

  // 4. Fuse. POPACCU+ = POPACCU + coverage filter + fine provenance
  //    granularity + accuracy filter + gold-standard initialization. Any
  //    other method runs the same way: set options.method (e.g.
  //    fusion::Method::kTruthFinder).
  fusion::FusionOptions options = fusion::FusionOptions::PopAccuPlus();
  Result<fusion::FusionResult> fused = session.Fuse(options, &labels);
  if (!fused.ok()) {
    std::fprintf(stderr, "fusion failed: %s\n",
                 fused.status().ToString().c_str());
    return 1;
  }
  const fusion::FusionResult& result = *fused;
  std::printf("fusion: %zu rounds, %zu provenances, %.1f%% of triples "
              "received a probability\n",
              result.num_rounds, result.num_provenances,
              100.0 * result.Coverage());

  // 5. Evaluate calibration and ranking quality.
  Result<eval::ModelReport> report = session.Evaluate(labels);
  std::printf("calibration: deviation %.4f, weighted deviation %.4f, "
              "AUC-PR %.3f\n\n",
              report->deviation, report->weighted_deviation, report->auc_pr);
  std::printf("%s\n", eval::RenderCalibration(report->calibration).c_str());

  // 6. Use the probabilities through the fused KB — the run's verdicts as
  //    a queryable, session-independent object (the paper's three
  //    consumption modes). Passing the labels maps raw scores through the
  //    calibration bins into KbVerdict::calibrated.
  Result<FusedKB> snapshot = session.Snapshot({}, &labels);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "snapshot failed: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  const FusedKB& kb = *snapshot;
  size_t trusted = 0, negatives = 0, active_learning = 0;
  for (size_t t = 0; t < kb.num_triples(); ++t) {
    KbVerdict v = kb.verdict(static_cast<uint32_t>(t));
    if (!v.has_probability) continue;
    if (v.probability > 0.9) {
      ++trusted;  // promote into the KB
    } else if (v.probability < 0.1) {
      ++negatives;  // negative training data for the extractors
    } else if (v.probability >= 0.4 && v.probability < 0.6) {
      ++active_learning;  // candidates for human review
    }
  }
  std::printf("usage split: %zu trusted (p>0.9), %zu negative examples "
              "(p<0.1), %zu for active learning (0.4<=p<0.6)\n",
              trusted, negatives, active_learning);
  // TopK only yields predicted triples, which the coverage filter can
  // leave empty on an adversarial seed.
  std::vector<KbVerdict> top = kb.TopK(1);
  if (!top.empty()) {
    std::printf("most confident triple: (%.*s, %.*s, %.*s) p=%.3f "
                "calibrated=%.3f\n",
                static_cast<int>(top[0].subject.size()),
                top[0].subject.data(),
                static_cast<int>(top[0].predicate.size()),
                top[0].predicate.data(),
                static_cast<int>(top[0].object.size()),
                top[0].object.data(), top[0].probability,
                top[0].calibrated);
  }

  // 7. Stream. Switch the session to ACCU, whose accuracy iteration
  //    converges under convergence_epsilon (POPACCU's popularity rewrite
  //    can limit-cycle on small corpora, so it runs to the round cap),
  //    fuse cold, then append a claim from a fresh pseudo-source. Refuse()
  //    warm-starts from the converged accuracies and iterates only until
  //    reconvergence — a fraction of the cold run's rounds.
  fusion::FusionOptions streaming;
  streaming.method = fusion::Method::kAccu;
  streaming.max_rounds = 100;
  streaming.convergence_epsilon = 1e-3;
  Result<fusion::FusionResult> cold = session.Fuse(streaming);
  if (!cold.ok()) {
    std::fprintf(stderr, "fusion failed: %s\n",
                 cold.status().ToString().c_str());
    return 1;
  }
  extract::ExtractionRecord novel = session.dataset().records()[0];
  // A fresh URL: under the default (Extractor, URL) granularity this is a
  // brand-new pseudo-source, entering at the default accuracy.
  novel.prov.url =
      static_cast<extract::UrlId>(session.dataset().num_urls() + 1);
  Status appended = session.Append({novel});
  if (!appended.ok()) {
    std::fprintf(stderr, "append failed: %s\n",
                 appended.ToString().c_str());
    return 1;
  }
  Result<fusion::FusionResult> warm = session.Refuse();
  if (!warm.ok()) {
    std::fprintf(stderr, "re-fusion failed: %s\n",
                 warm.status().ToString().c_str());
    return 1;
  }
  std::printf("\nstreaming (accu): cold run converged in %zu rounds; after "
              "appending 1 record,\nwarm re-fusion reconverged in %zu "
              "round%s\n",
              cold->num_rounds, warm->num_rounds,
              warm->num_rounds == 1 ? "" : "s");
  return 0;
}
