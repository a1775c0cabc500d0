// Classic data-fusion / truth-discovery baselines from the survey the paper
// builds on ([20], Section 2). The paper rules these out for knowledge
// fusion because their scores lack a probabilistic interpretation; we
// implement them so the benches can demonstrate exactly that (scores are
// monotone but badly calibrated).
//
// All baselines consume the same sharded ClaimGraph views as the main
// engine (fusion/claim_graph.h) and return a FusionResult whose
// "probability" field holds the (normalized) score of each claimed triple.
#ifndef KF_FUSION_BASELINES_BASELINES_H_
#define KF_FUSION_BASELINES_BASELINES_H_

#include "extract/dataset.h"
#include "fusion/engine.h"
#include "fusion/options.h"

namespace kf::fusion {

// The options each runner reads: its row in fusion/registry.h.

/// TruthFinder (Yin, Han, Yu; SIGKDD 2007). Source trustworthiness is the
/// mean confidence of its values; value confidence combines claimant
/// trust scores through a logistic link with dampening.
FusionResult RunTruthFinder(const extract::ExtractionDataset& dataset,
                            const FusionOptions& options,
                            const FuseContext& ctx);

/// 2-Estimates (Galland et al.; WSDM 2010): alternating estimates of value
/// truth and source error, affinely renormalized each round.
FusionResult RunTwoEstimates(const extract::ExtractionDataset& dataset,
                             const FusionOptions& options,
                             const FuseContext& ctx);

/// Investment (Pasternack & Roth; COLING 2010): sources invest their trust
/// uniformly across claims; claim credit grows super-linearly and returns
/// to the investors proportionally.
FusionResult RunInvestment(const extract::ExtractionDataset& dataset,
                           const FusionOptions& options,
                           const FuseContext& ctx);

/// PooledInvestment: Investment with per-data-item credit pooling.
FusionResult RunPooledInvestment(const extract::ExtractionDataset& dataset,
                                 const FusionOptions& options,
                                 const FuseContext& ctx);

}  // namespace kf::fusion

#endif  // KF_FUSION_BASELINES_BASELINES_H_
