#include "core/approx_meu.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "fusion/accu.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/math.h"

namespace veritas {

namespace {

// 1 / (A(s) (1 - A(s))) — the derivative factor of ln(A/(1-A)) appearing in
// Eq. (10)/(17). Accuracies are clamped so the factor stays finite.
double OddsDerivativeFactor(double accuracy) {
  const double a = ClampAccuracy(accuracy);
  return 1.0 / (a * (1.0 - a));
}

// g(v) per claim of item j: sum over affected sources voting for the claim of
// dA(s) / (A(s)(1-A(s))). Unaffected sources contribute zero.
std::vector<double> ComputeClaimG(const Database& db,
                                  const FusionResult& fusion, ItemId j,
                                  const AccuracyDeltas& deltas) {
  std::vector<double> g(db.num_claims(j), 0.0);
  for (const ItemVote& iv : db.item_votes(j)) {
    auto it = deltas.find(iv.source);
    if (it == deltas.end()) continue;
    g[iv.claim] += it->second * OddsDerivativeFactor(fusion.accuracy(iv.source));
  }
  return g;
}

// Read-only per-call tables of the scatter kernel (DESIGN.md §5j), shared by
// every lane.
struct ScatterTables {
  ScatterTables(const StrategyContext& ctx,
                const std::vector<bool>* impact_filter)
      : db(*ctx.db),
        fusion(*ctx.fusion),
        item_entropy(db.num_items()),
        eligible(db.num_items()),
        phi(db.num_sources()) {
    for (ItemId i = 0; i < db.num_items(); ++i) {
      item_entropy[i] = fusion.ItemEntropy(i);
      total_entropy += item_entropy[i];
      eligible[i] = !ctx.priors->Has(i) && db.num_claims(i) > 1 &&
                    (impact_filter == nullptr || (*impact_filter)[i]);
    }
    for (SourceId s = 0; s < db.num_sources(); ++s) {
      phi[s] = OddsDerivativeFactor(fusion.accuracy(s));
    }
  }

  const Database& db;
  const FusionResult& fusion;
  std::vector<double> item_entropy;
  double total_entropy = 0.0;
  std::vector<std::uint8_t> eligible;  // Unpinned, multi-claim, in filter.
  std::vector<double> phi;             // 1 / (A(s)(1 - A(s))) per source.
};

// One lane's scratch, sized on the lane's first candidate and reused for
// the rest of the call.
struct LaneScratch {
  std::vector<std::uint32_t> stamp;  // Per item: 1 + ordinal of the last
                                     // candidate that touched it.
  std::vector<std::size_t> slot;     // Per item: offset of its g block.
  std::vector<ItemId> touched;       // Eligible neighbours, touch order.
  std::vector<ClaimIndex> hypotheses;  // Claims t of i with p_t > 0.
  std::vector<double> term;       // [vote of i][t]: dA(s) phi(s) (Eq. 9).
  std::vector<double> g;          // Per touched j: [claim r][t] block.
  std::vector<double> estimate;   // [t]: expected total entropy under t.
  std::uint64_t neighbor_updates = 0;
};

// Delta EU_i of Eq. (13) for candidate i, whose ordinal in the call is
// `ordinal`. Bit-identical to the per-neighbour formulation: see the
// summation-order argument in DESIGN.md §5j.
double ScatterGain(const ScatterTables& tab, ItemId i, std::size_t ordinal,
                   LaneScratch* sc) {
  const Database& db = tab.db;
  const FusionResult& fusion = tab.fusion;
  if (sc->stamp.empty()) {
    sc->stamp.assign(db.num_items(), 0);
    sc->slot.assign(db.num_items(), 0);
  }
  const std::uint32_t stamp = static_cast<std::uint32_t>(ordinal + 1);
  sc->hypotheses.clear();
  for (ClaimIndex t = 0; t < db.num_claims(i); ++t) {
    if (fusion.prob(i, t) > 0.0) sc->hypotheses.push_back(t);
  }
  const std::size_t num_t = sc->hypotheses.size();

  // Eq. 9 under each hypothesis t: source s voting claim l on i moves by
  // dA(s) = dp_t(l) / N(s), with dp_t(l) = 1 - p_l if l == t else -p_l.
  const std::vector<ItemVote>& votes = db.item_votes(i);
  sc->term.resize(votes.size() * num_t);
  for (std::size_t k = 0; k < votes.size(); ++k) {
    const ItemVote& iv = votes[k];
    const double p = fusion.prob(i, iv.claim);
    const double degree = static_cast<double>(db.source_degree(iv.source));
    for (std::size_t h = 0; h < num_t; ++h) {
      const double dp = (iv.claim == sc->hypotheses[h]) ? (1.0 - p)
                                                        : (0.0 - p);
      sc->term[k * num_t + h] = (dp / degree) * tab.phi[iv.source];
    }
  }

  // Scatter g(r) of Eq. 10 into every eligible one-hop neighbour j:
  // g[slot[j] + r * T + t] sums the terms of the sources of i voting claim
  // r on j. item_votes(i) is sorted by source, so each slot receives its
  // terms in ascending source order.
  sc->touched.clear();
  std::size_t used = 0;
  for (std::size_t k = 0; k < votes.size(); ++k) {
    const double* term = sc->term.data() + k * num_t;
    for (const Vote& vote : db.source(votes[k].source).votes) {
      const ItemId j = vote.item;
      if (j == i || !tab.eligible[j]) continue;
      if (sc->stamp[j] != stamp) {  // First touch: claim a zeroed block.
        sc->stamp[j] = stamp;
        sc->slot[j] = used;
        sc->touched.push_back(j);
        used += db.num_claims(j) * num_t;
        if (sc->g.size() < used) {
          sc->g.resize(std::max(used, 2 * sc->g.size()));
        }
        std::fill_n(sc->g.begin() + sc->slot[j], used - sc->slot[j], 0.0);
      }
      double* g = sc->g.data() + sc->slot[j] + vote.claim * num_t;
      for (std::size_t h = 0; h < num_t; ++h) g[h] += term[h];
    }
  }

  // Closed-form Eq. 10 and the entropy of the estimate, per touched j and
  // hypothesis t, in place. The validated item's entropy drops to zero;
  // everything farther than one hop keeps its entropy (Theorem 4.1).
  sc->estimate.assign(num_t, tab.total_entropy - tab.item_entropy[i]);
  for (const ItemId j : sc->touched) {
    const std::vector<double>& probs = fusion.item_probs(j);
    const double* g = sc->g.data() + sc->slot[j];
    for (std::size_t h = 0; h < num_t; ++h) {
      double g_bar = 0.0;
      for (std::size_t r = 0; r < probs.size(); ++r) {
        g_bar += probs[r] * g[r * num_t + h];
      }
      double entropy = 0.0;
      for (std::size_t r = 0; r < probs.size(); ++r) {
        entropy += EntropyTerm(
            ClampProb(probs[r] + probs[r] * (g[r * num_t + h] - g_bar)));
      }
      sc->estimate[h] += entropy - tab.item_entropy[j];
    }
  }
  sc->neighbor_updates += num_t * sc->touched.size();

  double expected = 0.0;
  for (std::size_t h = 0; h < num_t; ++h) {
    expected += fusion.prob(i, sc->hypotheses[h]) * sc->estimate[h];
  }
  return tab.total_entropy - expected;
}

}  // namespace

AccuracyDeltas ComputeAccuracyDeltas(const Database& db,
                                     const FusionResult& fusion, ItemId item,
                                     ClaimIndex true_claim) {
  AccuracyDeltas deltas;
  for (const ItemVote& iv : db.item_votes(item)) {
    // dp of the claim this source supports: 1-p for the validated claim,
    // -p for every other claim (§4.2.3).
    const double p = fusion.prob(item, iv.claim);
    const double dp = (iv.claim == true_claim) ? (1.0 - p) : (0.0 - p);
    deltas[iv.source] =
        dp / static_cast<double>(db.source_degree(iv.source));
  }
  return deltas;
}

std::vector<double> EstimateUpdatedProbs(const Database& db,
                                         const FusionResult& fusion, ItemId j,
                                         const AccuracyDeltas& deltas) {
  const std::vector<double>& probs = fusion.item_probs(j);
  if (probs.size() <= 1) return probs;
  const std::vector<double> g = ComputeClaimG(db, fusion, j, deltas);
  double g_bar = 0.0;
  for (ClaimIndex r = 0; r < probs.size(); ++r) g_bar += probs[r] * g[r];
  std::vector<double> updated(probs.size());
  for (ClaimIndex r = 0; r < probs.size(); ++r) {
    // Closed form of Eq. (10): dp_r = p_r (g(r) - sum_v p_v g(v)).
    updated[r] = ClampProb(probs[r] + probs[r] * (g[r] - g_bar));
  }
  return updated;
}

std::vector<double> EstimateUpdatedProbsLiteral(const Database& db,
                                                const FusionResult& fusion,
                                                ItemId j,
                                                const AccuracyDeltas& deltas) {
  const std::vector<double>& probs = fusion.item_probs(j);
  if (probs.size() <= 1) return probs;
  const std::vector<double> g = ComputeClaimG(db, fusion, j, deltas);
  // f(r, v) of Eq. (15) as exp(score(v) - score(r)) over the current
  // accuracies.
  const std::vector<double> scores =
      AccuFusion::ClaimLogScores(db, j, fusion.accuracies());
  std::vector<double> updated(probs.size());
  for (ClaimIndex r = 0; r < probs.size(); ++r) {
    double sum = 0.0;
    for (ClaimIndex v = 0; v < probs.size(); ++v) {
      const double f = std::exp(scores[v] - scores[r]);
      sum += f * (g[v] - g[r]);
    }
    const double dp = -(probs[r] * probs[r]) * sum;  // Eq. (10)/(18).
    updated[r] = ClampProb(probs[r] + dp);
  }
  return updated;
}

double ApproxMeuStrategy::ExpectedEntropyAfterValidation(
    const StrategyContext& ctx, ItemId item,
    const std::vector<bool>* impact_filter) {
  assert(ctx.graph != nullptr && "ApproxMeu requires ctx.graph");
  const Database& db = *ctx.db;
  const FusionResult& fusion = *ctx.fusion;

  const double total_entropy = fusion.TotalEntropy();
  std::vector<ItemId> neighbors;
  ctx.graph->CollectNeighbors(item, &neighbors);

  double expected = 0.0;
  for (ClaimIndex t = 0; t < db.num_claims(item); ++t) {
    const double pt = fusion.prob(item, t);
    if (pt <= 0.0) continue;
    const AccuracyDeltas deltas = ComputeAccuracyDeltas(db, fusion, item, t);
    // The validated item's entropy drops to zero; neighbours move by the
    // differential estimate; everything farther keeps its entropy
    // (Theorem 4.1 truncation).
    double estimate = total_entropy - fusion.ItemEntropy(item);
    for (ItemId j : neighbors) {
      if (ctx.priors->Has(j)) continue;  // Pinned distributions do not move.
      if (impact_filter != nullptr && !(*impact_filter)[j]) continue;
      if (db.num_claims(j) <= 1) continue;
      const std::vector<double> updated =
          EstimateUpdatedProbs(db, fusion, j, deltas);
      estimate += Entropy(updated) - fusion.ItemEntropy(j);
    }
    expected += pt * estimate;
  }
  return expected;
}

std::vector<double> ApproxMeuStrategy::ScoreCandidates(
    const StrategyContext& ctx, const std::vector<ItemId>& candidates,
    const std::vector<bool>* impact_filter, CandidateScan* scan) {
  VERITAS_SPAN("strategy.approx_meu.score");
  static Counter* lookaheads =
      MetricsRegistry::Global().GetCounter("strategy.approx_meu.lookaheads");
  static Counter* neighbor_updates = MetricsRegistry::Global().GetCounter(
      "strategy.approx_meu.neighbor_updates");
  static Histogram* candidates_hist = MetricsRegistry::Global().GetHistogram(
      "strategy.approx_meu.candidates", MetricsRegistry::CountEdges());
  lookaheads->Add(candidates.size());
  candidates_hist->Observe(static_cast<double>(candidates.size()));
  const ScatterTables tab(ctx, impact_filter);
  CandidateScan serial(1);
  CandidateScan& driver = scan != nullptr ? *scan : serial;
  // Scratch is per call, never per driver: its stamps are call ordinals + 1,
  // so scratch carried into the next call would skip the zeroing of blocks
  // whose stamp happens to match.
  std::vector<LaneScratch> scratch(driver.lanes());

  std::vector<double> gains(candidates.size(), 0.0);
  driver.ForEach(candidates.size(), ctx.cancel,
                 [&](std::size_t lane, std::size_t idx) {
                   gains[idx] = ScatterGain(tab, candidates[idx], idx,
                                            &scratch[lane]);
                 });
  std::uint64_t updates = 0;
  for (const LaneScratch& sc : scratch) updates += sc.neighbor_updates;
  neighbor_updates->Add(updates);
  return gains;
}

std::vector<ItemId> ApproxMeuStrategy::SelectBatch(const StrategyContext& ctx,
                                                   std::size_t batch) {
  static Counter* select_calls = MetricsRegistry::Global().GetCounter(
      "strategy.approx_meu.select_calls");
  select_calls->Add(1);
  const std::vector<ItemId> candidates = CandidateItems(ctx);
  const std::vector<double> gains =
      ScoreCandidates(ctx, candidates, /*impact_filter=*/nullptr, &scan_);
  return TopKByScore(candidates, gains, batch);
}

}  // namespace veritas
