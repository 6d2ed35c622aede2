// Test-only reference for ApproxMeuStrategy::ScoreCandidates: the
// per-neighbour scan the scatter kernel replaced. For every candidate i it
// collects i's one-hop neighbours from the ItemGraph, keys the Eq. (9)
// deltas of each hypothesis in a hash map and evaluates Eq. (10) through
// EstimateUpdatedProbs, one vector per neighbour. The kernel must return
// `==`-equal gains (DESIGN.md §5j gives the summation-order argument).
#ifndef VERITAS_TESTS_APPROX_MEU_REFERENCE_H_
#define VERITAS_TESTS_APPROX_MEU_REFERENCE_H_

#include <vector>

#include "core/approx_meu.h"
#include "util/math.h"

namespace veritas {

inline std::vector<double> ReferenceScores(
    const StrategyContext& ctx, const std::vector<ItemId>& candidates,
    const std::vector<bool>* impact_filter) {
  const Database& db = *ctx.db;
  const FusionResult& fusion = *ctx.fusion;
  std::vector<double> item_entropy(db.num_items(), 0.0);
  double total_entropy = 0.0;
  for (ItemId i = 0; i < db.num_items(); ++i) {
    item_entropy[i] = fusion.ItemEntropy(i);
    total_entropy += item_entropy[i];
  }
  std::vector<double> gains(candidates.size(), 0.0);
  std::vector<ItemId> neighbors;
  for (std::size_t idx = 0; idx < candidates.size(); ++idx) {
    const ItemId i = candidates[idx];
    ctx.graph->CollectNeighbors(i, &neighbors);
    double expected = 0.0;
    for (ClaimIndex t = 0; t < db.num_claims(i); ++t) {
      const double pt = fusion.prob(i, t);
      if (pt <= 0.0) continue;
      const AccuracyDeltas deltas = ComputeAccuracyDeltas(db, fusion, i, t);
      double estimate = total_entropy - item_entropy[i];
      for (ItemId j : neighbors) {
        if (ctx.priors->Has(j)) continue;
        if (impact_filter != nullptr && !(*impact_filter)[j]) continue;
        if (db.num_claims(j) <= 1) continue;
        const std::vector<double> updated =
            EstimateUpdatedProbs(db, fusion, j, deltas);
        estimate += Entropy(updated) - item_entropy[j];
      }
      expected += pt * estimate;
    }
    gains[idx] = total_entropy - expected;
  }
  return gains;
}

}  // namespace veritas

#endif  // VERITAS_TESTS_APPROX_MEU_REFERENCE_H_
