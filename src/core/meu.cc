#include "core/meu.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <mutex>
#include <optional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace veritas {

namespace {

// A hypothesis this unlikely moves the pk-weighted expectation by less
// than pk * |H_pinned| <~ 1e-9 nats — orders of magnitude below the
// fusion tolerance, so the closed-form "pin without propagation" value
// (pinned item drops to zero entropy, everything else keeps its base
// value) stands in for the full lookahead.
constexpr double kNegligiblePinMass = 1e-12;

// How many of last round's best candidates seed the front of the scan.
constexpr std::size_t kSeedLimit = 64;

// Monotone non-decreasing pruning threshold: the top_k-th best *exact* gain
// seen so far (-inf until top_k exact gains exist). Writers funnel through a
// mutex-protected min-heap (top_k is tiny — the batch size); readers poll a
// lock-free snapshot. A stale (smaller) read only weakens pruning, never
// correctness, and monotonicity is what makes the bound admissible: a
// candidate pruned against any intermediate threshold is provably below the
// *final* top_k-th best exact gain too.
class GainThreshold {
 public:
  explicit GainThreshold(std::size_t k) : k_(k) {}

  double Get() const { return value_.load(std::memory_order_relaxed); }

  void Offer(double gain) {
    if (k_ == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (heap_.size() < k_) {
      heap_.push(gain);
    } else if (gain > heap_.top()) {
      heap_.pop();
      heap_.push(gain);
    } else {
      return;
    }
    if (heap_.size() == k_) {
      value_.store(heap_.top(), std::memory_order_relaxed);
    }
  }

 private:
  const std::size_t k_;
  std::mutex mu_;
  std::priority_queue<double, std::vector<double>, std::greater<double>> heap_;
  std::atomic<double> value_{-std::numeric_limits<double>::infinity()};
};

void AtomicMaxDouble(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur && !target.compare_exchange_weak(cur, v,
                                                  std::memory_order_relaxed)) {
  }
}

}  // namespace

double MeuStrategy::ExpectedEntropyAfterValidation(const StrategyContext& ctx,
                                                   ItemId item) {
  if (ctx.delta != nullptr && ctx.warm_start_lookahead) {
    const DeltaFusionEngine::BaseState base = ctx.delta->PrepareBase(*ctx.fusion);
    DeltaFusionEngine::Workspace ws;
    return ExpectedEntropyAfterValidation(ctx, item, base, ws);
  }
  const Database& db = *ctx.db;
  double expected = 0.0;
  for (ClaimIndex k = 0; k < db.num_claims(item); ++k) {
    const double pk = ctx.fusion->prob(item, k);
    if (pk <= 0.0) continue;  // Zero-probability hypotheses contribute 0.
    PriorSet lookahead = *ctx.priors;
    lookahead.SetExact(db, item, k);
    const FusionResult result = ctx.model->Fuse(
        db, lookahead, *ctx.fusion_opts,
        ctx.warm_start_lookahead ? ctx.fusion : nullptr);
    expected += pk * result.TotalEntropy();
  }
  return expected;
}

double MeuStrategy::ExpectedEntropyAfterValidation(
    const StrategyContext& ctx, ItemId item,
    const DeltaFusionEngine::BaseState& base,
    DeltaFusionEngine::Workspace& ws) {
  const Database& db = *ctx.db;
  double expected = 0.0;
  for (ClaimIndex k = 0; k < db.num_claims(item); ++k) {
    const double pk = ctx.fusion->prob(item, k);
    if (pk <= 0.0) continue;
    if (pk < kNegligiblePinMass) {
      expected += pk * (base.total_entropy - base.item_entropy[item]);
      continue;
    }
    expected +=
        pk * ctx.delta->EntropyAfterExactPin(base, ws, *ctx.priors, item, k);
  }
  return expected;
}

std::vector<std::size_t> MeuStrategy::ScanOrder(
    const StrategyContext& ctx, const std::vector<ItemId>& candidates) const {
  const std::size_t n = candidates.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::vector<double> entropy(n);
  for (std::size_t i = 0; i < n; ++i) {
    entropy[i] = ctx.fusion->ItemEntropy(candidates[i]);
  }
  constexpr std::size_t kUnseeded = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> rank(n, kUnseeded);
  if (!seed_ranking_.empty()) {
    std::unordered_map<ItemId, std::size_t> seed_rank;
    seed_rank.reserve(seed_ranking_.size());
    for (std::size_t r = 0; r < seed_ranking_.size(); ++r) {
      seed_rank.emplace(seed_ranking_[r], r);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto it = seed_rank.find(candidates[i]);
      if (it != seed_rank.end()) rank[i] = it->second;
    }
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (rank[a] != rank[b]) return rank[a] < rank[b];  // Seeded first.
    if (entropy[a] != entropy[b]) return entropy[a] > entropy[b];
    return candidates[a] < candidates[b];
  });
  return order;
}

std::vector<double> MeuStrategy::ScoreCandidateGains(
    const StrategyContext& ctx, const std::vector<ItemId>& candidates,
    std::size_t top_k, bool allow_prune) {
  static Counter* pruned_counter =
      MetricsRegistry::Global().GetCounter("meu.candidates_pruned");
  static Counter* steals_counter =
      MetricsRegistry::Global().GetCounter("meu.pool_steals");
  // Largest observed gain / H_item ratio: the empirical check on the
  // kPruneMarginRel bound (must stay below 1 + margin; see DESIGN.md §5f).
  static Gauge* bound_ratio_gauge =
      MetricsRegistry::Global().GetGauge("meu.max_gain_bound_ratio");

  std::vector<double> gains(candidates.size(), 0.0);
  if (candidates.empty()) return gains;
  const double current_entropy = ctx.fusion->TotalEntropy();
  const bool use_delta = ctx.delta != nullptr && ctx.warm_start_lookahead;

  // One flattened base state serves the whole candidate scan; each lane
  // pins into its own persistent O(frontier) workspace.
  std::optional<DeltaFusionEngine::BaseState> base;
  if (use_delta) base.emplace(ctx.delta->PrepareBase(*ctx.fusion));

  const std::vector<std::size_t> order = ScanOrder(ctx, candidates);
  const bool prune =
      allow_prune && use_delta && top_k > 0 && top_k < candidates.size();
  GainThreshold threshold(prune ? top_k : 0);
  std::atomic<std::uint64_t> pruned{0};
  std::atomic<double> max_ratio{0.0};
  if (lane_ws_.size() < scan_.lanes()) lane_ws_.resize(scan_.lanes());
  // (pk, k) claim order per lane, reused across the lane's candidates.
  std::vector<std::vector<std::pair<double, ClaimIndex>>> lane_claims(
      scan_.lanes());

  // The kernel: the candidate at scan position `pos`. On a hard stop the
  // driver skips the remaining positions; the truncated gains are never
  // recorded (the session discards the round), so the zero-filled tail is
  // fine.
  const auto kernel = [&](std::size_t lane, std::size_t pos) {
    const std::size_t idx = order[pos];
    const ItemId item = candidates[idx];
    if (!use_delta) {
      // Cold / non-delta path: exact full-Fuse lookahead, never pruned (the
      // worked-example contract).
      gains[idx] = current_entropy - ExpectedEntropyAfterValidation(ctx, item);
      return;
    }
    // Per-claim gain bound: pinning o_i removes its own entropy H_i exactly;
    // the cross-item ripple is bounded by margin * H_i (exactly zero for
    // Voting, where a pin moves nothing else). DESIGN.md §5f.
    const double h_item = base->item_entropy[item];
    const double margin =
        ctx.delta->cross_item_influence() ? kPruneMarginRel : 0.0;
    const double claim_bound = (1.0 + margin) * h_item;
    if (prune && claim_bound < threshold.Get()) {
      // A-priori prune: gain <= claim_bound < threshold.
      gains[idx] = claim_bound;
      pruned.fetch_add(1, std::memory_order_relaxed);
      return;
    }

    // Claims best-first (descending pk, ties by claim index) so the partial
    // bound tightens as fast as possible. The order is a pure function of
    // the fusion state — identical for every schedule.
    std::vector<std::pair<double, ClaimIndex>>& claims = lane_claims[lane];
    claims.clear();
    const Database& db = *ctx.db;
    double total_mass = 0.0;
    for (ClaimIndex k = 0; k < db.num_claims(item); ++k) {
      const double pk = ctx.fusion->prob(item, k);
      if (pk <= 0.0) continue;
      claims.emplace_back(pk, k);
      total_mass += pk;
    }
    std::sort(claims.begin(), claims.end(),
              [](const std::pair<double, ClaimIndex>& a,
                 const std::pair<double, ClaimIndex>& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    double expected = 0.0;
    double mass = 0.0;
    for (const auto& [pk, k] : claims) {
      if (pk < kNegligiblePinMass) {
        expected += pk * (base->total_entropy - base->item_entropy[item]);
      } else {
        expected += pk * ctx.delta->EntropyAfterExactPin(
                             *base, lane_ws_[lane], *ctx.priors, item, k);
      }
      mass += pk;
      if (!prune) continue;
      // Each unevaluated claim keeps at least (current - claim_bound)
      // entropy, so the remaining mass can add at most remaining *
      // claim_bound of gain. The clamp keeps the bound conservative against
      // rounding in the mass accumulation.
      const double remaining = std::max(0.0, total_mass - mass);
      const double ub = (current_entropy - expected) -
                        remaining * (current_entropy - claim_bound);
      if (ub < threshold.Get()) {
        gains[idx] = ub;
        pruned.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    // Delta EU_i of Eq. (7): current entropy minus expected entropy.
    const double gain = current_entropy - expected;
    gains[idx] = gain;
    if (prune) threshold.Offer(gain);
    // Gauge the margin only on items with entropy above the propagation's
    // numerical noise floor (~1e-9 nats): below it the quotient measures
    // rounding, not cross-item influence, and a pruned near-zero-entropy
    // item is below any plausible threshold regardless.
    if (h_item > 1e-6) AtomicMaxDouble(max_ratio, gain / h_item);
  };

  const std::uint64_t stolen =
      scan_.ForEach(candidates.size(), ctx.cancel, kernel);
  pruned_counter->Add(pruned.load(std::memory_order_relaxed));
  if (stolen > 0) steals_counter->Add(stolen);
  const double ratio = max_ratio.load(std::memory_order_relaxed);
  if (ratio > bound_ratio_gauge->value()) bound_ratio_gauge->Set(ratio);

  // Seed the next round's scan with this round's ranking, so the eventual
  // winners are evaluated first and the threshold tightens immediately.
  seed_ranking_ = TopKByScore(candidates, gains, kSeedLimit);
  return gains;
}

std::vector<ItemId> MeuStrategy::SelectBatch(const StrategyContext& ctx,
                                             std::size_t batch) {
  assert(ctx.model != nullptr && ctx.fusion_opts != nullptr &&
         "MeuStrategy requires ctx.model and ctx.fusion_opts");
  VERITAS_SPAN("strategy.meu.select");
  static Counter* select_calls =
      MetricsRegistry::Global().GetCounter("strategy.meu.select_calls");
  static Counter* lookaheads =
      MetricsRegistry::Global().GetCounter("strategy.meu.lookaheads");
  static Histogram* candidates_hist = MetricsRegistry::Global().GetHistogram(
      "strategy.meu.candidates", MetricsRegistry::CountEdges());
  const std::vector<ItemId> candidates = CandidateItems(ctx);
  select_calls->Add(1);
  lookaheads->Add(candidates.size());
  candidates_hist->Observe(static_cast<double>(candidates.size()));
  const std::vector<double> gains =
      ScoreCandidateGains(ctx, candidates, batch, /*allow_prune=*/true);
  return TopKByScore(candidates, gains, batch);
}

}  // namespace veritas
