// Prototypes of the paper's future directions (Section 5), used by the
// ablation bench to quantify how much each direction helps beyond
// POPACCU+:
//   5.1 Separating extractor mistakes from source mistakes
//   5.3 Multi-truth fusion for non-functional predicates (latent truth)
//   5.4 Hierarchy-aware fusion over the value containment DAG
//   5.5 Leveraging (re-calibrated) extraction confidence
#ifndef KF_FUSION_EXT_EXTENSIONS_H_
#define KF_FUSION_EXT_EXTENSIONS_H_

#include "extract/dataset.h"
#include "fusion/engine.h"
#include "fusion/options.h"

namespace kf::fusion {

// The options each runner reads: its row in fusion/registry.h.

// ---- Section 5.3: multi-truth latent-truth model ----------------------

/// A simplified latent-truth model in the spirit of Zhao et al. (PVLDB
/// 2012): every triple gets an independent posterior, so probabilities of
/// one data item may sum past 1 — exactly what non-functional predicates
/// need. Each provenance is modeled by sensitivity (P(claim | true)) and
/// false-positive rate (P(claim | false)), re-estimated from the posterior
/// each round.
FusionResult RunLatentTruth(const extract::ExtractionDataset& dataset,
                            const FusionOptions& options,
                            const FuseContext& ctx);

// ---- Section 5.4: hierarchy-aware fusion -------------------------------

/// Runs POPACCU cold and resident with `options`, then redistributes
/// probability along *ctx.hierarchy (required): the probability that
/// triple (s, p, v) is *true* is the probability mass of v and all its
/// descendants among the item's claimed values (a triple is true when the
/// exact truth is v or anything v contains).
FusionResult HierarchyAwareFuse(const extract::ExtractionDataset& dataset,
                                const FusionOptions& options,
                                const FuseContext& ctx);

// ---- Section 5.5: confidence-weighted fusion ---------------------------

/// Recalibrates each extractor's confidence against the (sampled) gold
/// standard *ctx.gold (required), then fuses with per-claim vote weights
/// equal to the recalibrated confidence.
FusionResult RunConfidenceWeighted(const extract::ExtractionDataset& dataset,
                                   const FusionOptions& options,
                                   const FuseContext& ctx);

// ---- Section 5.1: separating extractor and source quality --------------

/// Two-factor model: an extractor precision q_e (how often extractor e
/// faithfully reads a page) and a per-URL accuracy a_u (how often the page
/// tells the truth). A page's support for a triple is weighted by the
/// probability that the page really claims it, 1 - prod_e (1 - q_e) over
/// the extractors that reported it — so a triple reported by one sloppy
/// extractor on thousands of pages earns far less belief than one
/// confirmed by eight extractors (Fig. 18's signal). default_accuracy is
/// every URL's initial accuracy.
FusionResult RunSourceExtractor(const extract::ExtractionDataset& dataset,
                                const FusionOptions& options,
                                const FuseContext& ctx);

}  // namespace kf::fusion

#endif  // KF_FUSION_EXT_EXTENSIONS_H_
