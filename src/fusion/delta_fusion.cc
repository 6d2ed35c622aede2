#include "fusion/delta_fusion.h"

#include <atomic>
#include <cassert>
#include <cmath>
#include <optional>
#include <utility>

#include "fusion/accu.h"
#include "fusion/truthfinder.h"
#include "fusion/voting.h"
#include "model/streaming_database.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cancellation.h"
#include "util/math.h"

namespace veritas {

namespace {

// Generation stamps for BaseState so a workspace can tell two bases apart
// even when one is rebuilt at the same address.
std::atomic<std::uint64_t> g_base_state_counter{0};

Counter* StaleViewCounter() {
  static Counter* stale =
      MetricsRegistry::Global().GetCounter("delta.stale_view_violations");
  return stale;
}

}  // namespace

std::optional<std::pair<DeltaFusionEngine::Kind, double>>
DeltaFusionEngine::KindOf(const FusionModel& model) {
  if (dynamic_cast<const AccuFusion*>(&model) != nullptr) {
    return std::make_pair(Kind::kAccu, 0.0);
  }
  if (dynamic_cast<const VotingFusion*>(&model) != nullptr) {
    return std::make_pair(Kind::kVoting, 0.0);
  }
  if (const auto* tf = dynamic_cast<const TruthFinderFusion*>(&model)) {
    return std::make_pair(Kind::kTruthFinder, tf->gamma());
  }
  return std::nullopt;
}

bool DeltaFusionEngine::Supports(const FusionModel& model) {
  return KindOf(model).has_value();
}

std::unique_ptr<DeltaFusionEngine> DeltaFusionEngine::Create(
    const Database& db, const FusionModel& model, FusionOptions fusion_opts,
    DeltaFusionOptions delta_opts) {
  return CreateOver(db, /*view=*/nullptr, model, fusion_opts, delta_opts);
}

std::unique_ptr<DeltaFusionEngine> DeltaFusionEngine::Create(
    const StreamingDatabase& stream, const FusionModel& model,
    FusionOptions fusion_opts, DeltaFusionOptions delta_opts) {
  return CreateOver(stream.db(), &stream.compiled(), model, fusion_opts,
                    delta_opts);
}

std::unique_ptr<DeltaFusionEngine> DeltaFusionEngine::CreateOver(
    const Database& db, const CompiledDatabase* view, const FusionModel& model,
    FusionOptions fusion_opts, DeltaFusionOptions delta_opts) {
  const auto kind = KindOf(model);
  if (!kind.has_value()) return nullptr;
  return std::unique_ptr<DeltaFusionEngine>(new DeltaFusionEngine(
      db, model, kind->first, kind->second, fusion_opts, delta_opts, view));
}

DeltaFusionEngine::DeltaFusionEngine(const Database& db,
                                     const FusionModel& model, Kind kind,
                                     double gamma, FusionOptions fusion_opts,
                                     DeltaFusionOptions delta_opts,
                                     const CompiledDatabase* view)
    : db_(db),
      model_(model),
      kind_(kind),
      gamma_(gamma),
      fusion_opts_(fusion_opts),
      delta_opts_(delta_opts),
      owned_compiled_(view == nullptr ? std::make_unique<CompiledDatabase>(db)
                                      : nullptr),
      compiled_(view != nullptr ? view : owned_compiled_.get()) {}

double DeltaFusionEngine::ScoreTerm(double accuracy) const {
  const double a = ClampAccuracy(accuracy);
  switch (kind_) {
    case Kind::kAccu:
      return std::log(a / (1.0 - a));
    case Kind::kTruthFinder:
      return -std::log(1.0 - a);
    case Kind::kVoting:
      return 0.0;
  }
  return 0.0;
}

DeltaFusionEngine::BaseState DeltaFusionEngine::PrepareBase(
    const FusionResult& base) const {
  const CompiledDatabase& c = *compiled_;
  BaseState s;
  s.origin = &base;
  s.id = ++g_base_state_counter;
  s.epoch = c.epoch();
  s.probs.resize(c.num_claims());
  s.item_entropy.resize(c.num_items());
  for (ItemId i = 0; i < c.num_items(); ++i) {
    const std::vector<double>& p = base.item_probs(i);
    assert(p.size() == c.item_num_claims(i));
    const std::uint32_t g = c.claim_offset(i);
    double h = 0.0;
    for (std::size_t k = 0; k < p.size(); ++k) {
      s.probs[g + k] = p[k];
      h += EntropyTerm(p[k]);
    }
    s.item_entropy[i] = h;
    s.total_entropy += h;
  }
  s.accuracies = base.accuracies();
  for (double& a : s.accuracies) a = ClampAccuracy(a);
  s.terms.resize(c.num_sources());
  s.source_sums.assign(c.num_sources(), 0.0);
  const std::vector<std::uint32_t>& vote_claims = c.source_vote_claims();
  for (SourceId j = 0; j < c.num_sources(); ++j) {
    s.terms[j] = ScoreTerm(s.accuracies[j]);
    double sum = 0.0;
    for (std::uint32_t v = c.source_votes_begin(j); v < c.source_votes_end(j);
         ++v) {
      sum += s.probs[vote_claims[v]];
    }
    s.source_sums[j] = sum;
  }
  return s;
}

void DeltaFusionEngine::SyncWorkspace(const BaseState& base,
                                      Workspace& ws) const {
  const CompiledDatabase& c = *compiled_;
  ws.claims_ = c.num_claims();
  ws.sources_ = c.num_sources();
  ws.items_ = c.num_items();
  ws.prob_ = base.probs;
  ws.acc_ = base.accuracies;
  ws.sum_ = base.source_sums;
  ws.term_ = base.terms;
  ws.item_entropy_ = base.item_entropy;
  ws.item_touch_tick_.assign(ws.items_, 0);
  ws.source_touch_tick_.assign(ws.sources_, 0);
  ws.source_enroll_tick_.assign(ws.sources_, 0);
  ws.ticket_ = 0;
  ws.synced_base_ = &base;
  ws.synced_id_ = base.id;
}

void DeltaFusionEngine::ApplyPin(Workspace& ws, ItemId item, const double* pin,
                                 std::size_t n) const {
  const CompiledDatabase& c = *compiled_;
  // Touch the item (pinned items join touched_items_ but never frontier_:
  // they are fixed and must not be recomputed).
  if (ws.item_touch_tick_[item] != ws.ticket_) {
    ws.item_touch_tick_[item] = ws.ticket_;
    ws.touched_items_.push_back(item);
  }
  // Claim deltas, then vote-sum updates, then the new probabilities.
  const std::uint32_t g = c.claim_offset(item);
  ws.scores_.resize(n);
  double h = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    ws.scores_[k] = pin[k] - ws.prob_[g + k];
    h += EntropyTerm(pin[k]);
  }
  const std::vector<SourceId>& vote_sources = c.item_vote_sources();
  const std::vector<ClaimIndex>& vote_claims = c.item_vote_claims();
  for (std::uint32_t v = c.item_votes_begin(item); v < c.item_votes_end(item);
       ++v) {
    const double dp = ws.scores_[vote_claims[v]];
    if (dp == 0.0) continue;
    const SourceId j = vote_sources[v];
    ws.sum_[j] += dp;
    if (ws.source_touch_tick_[j] != ws.ticket_) {
      ws.source_touch_tick_[j] = ws.ticket_;
      ws.touched_sources_.push_back(j);
    }
  }
  for (std::size_t k = 0; k < n; ++k) ws.prob_[g + k] = pin[k];
  ws.item_entropy_[item] = h;
}

void DeltaFusionEngine::RecomputeItems(Workspace& ws) const {
  const CompiledDatabase& c = *compiled_;
  const std::size_t m = ws.frontier_.size();
  if (m == 0) return;
  const std::vector<SourceId>& claim_sources = c.claim_sources();

  // Pass 0: lay the frontier's claims out flat (one prefix-sum of offsets),
  // so the hot passes below run over dense contiguous buffers instead of
  // per-item resized scratch.
  ws.frontier_offsets_.resize(m + 1);
  std::size_t flat = 0;
  for (std::size_t f = 0; f < m; ++f) {
    ws.frontier_offsets_[f] = flat;
    flat += c.item_num_claims(ws.frontier_[f]);
  }
  ws.frontier_offsets_[m] = flat;
  if (ws.frontier_scores_.size() < flat) ws.frontier_scores_.resize(flat);
  if (ws.frontier_probs_.size() < flat) ws.frontier_probs_.resize(flat);
  if (ws.frontier_entropy_.size() < m) ws.frontier_entropy_.resize(m);

  // Pass 1: score gather — one CSR sweep over claim_sources accumulating
  // the cached per-source terms. term_ is never written during this pass,
  // so batching across items cannot change any item's arithmetic.
  const double* term = ws.term_.data();
  double* scores = ws.frontier_scores_.data();
  if (kind_ == Kind::kAccu) {
    for (std::size_t f = 0; f < m; ++f) {
      const ItemId item = ws.frontier_[f];
      const std::uint32_t g = c.claim_offset(item);
      const std::size_t n = c.item_num_claims(item);
      const double lf = c.log_false_values(item);
      double* out = scores + ws.frontier_offsets_[f];
      for (std::size_t k = 0; k < n; ++k) {
        const std::uint32_t begin = c.claim_sources_begin(g + k);
        const std::uint32_t end = c.claim_sources_end(g + k);
        double score = static_cast<double>(end - begin) * lf;
        for (std::uint32_t v = begin; v < end; ++v) {
          score += term[claim_sources[v]];
        }
        out[k] = score;
      }
    }
  } else if (kind_ == Kind::kTruthFinder) {
    for (std::size_t f = 0; f < m; ++f) {
      const ItemId item = ws.frontier_[f];
      const std::uint32_t g = c.claim_offset(item);
      const std::size_t n = c.item_num_claims(item);
      double* out = scores + ws.frontier_offsets_[f];
      for (std::size_t k = 0; k < n; ++k) {
        const std::uint32_t begin = c.claim_sources_begin(g + k);
        const std::uint32_t end = c.claim_sources_end(g + k);
        double sigma = 0.0;
        for (std::uint32_t v = begin; v < end; ++v) {
          sigma += term[claim_sources[v]];
        }
        out[k] = sigma;
      }
    }
  } else {  // kVoting: scores are live per-claim vote counts. Voting items
            // never enter the frontier through source enrollment (no
            // accuracy coupling), but streaming appends do dirty them, so
            // this branch recomputes exactly VotingFusion's share update.
    for (std::size_t f = 0; f < m; ++f) {
      const ItemId item = ws.frontier_[f];
      const std::uint32_t g = c.claim_offset(item);
      const std::size_t n = c.item_num_claims(item);
      double* out = scores + ws.frontier_offsets_[f];
      for (std::size_t k = 0; k < n; ++k) {
        out[k] = static_cast<double>(c.claim_num_sources(g + k));
      }
    }
  }

  // Pass 2: probabilities + entropies from the flat scores, per item (the
  // same arithmetic, in the same order, as the old one-item-at-a-time
  // update).
  double* probs = ws.frontier_probs_.data();
  for (std::size_t f = 0; f < m; ++f) {
    const std::size_t off = ws.frontier_offsets_[f];
    const std::size_t n = ws.frontier_offsets_[f + 1] - off;
    const double* s = scores + off;
    double* p = probs + off;
    double h = 0.0;
    if (kind_ == Kind::kAccu) {
      if (n == 2) {
        // Two-claim fast path: one exp + one log1p for both the
        // probabilities and the entropy H = log1p(e) + |d| * p_minor
        // (softmax in sigmoid form; d is the score gap).
        const double d = s[0] - s[1];
        if (d >= 0.0) {
          const double e = std::exp(-d);
          const double p1 = e / (1.0 + e);
          p[1] = p1;
          p[0] = 1.0 - p1;
          h = std::log1p(e) + d * p1;
        } else {
          const double e = std::exp(d);
          const double p0 = e / (1.0 + e);
          p[0] = p0;
          p[1] = 1.0 - p0;
          h = std::log1p(e) - d * p0;
        }
      } else {
        double max_score = s[0];
        for (std::size_t k = 1; k < n; ++k) {
          if (s[k] > max_score) max_score = s[k];
        }
        double sum = 0.0;
        for (std::size_t k = 0; k < n; ++k) {
          const double w = std::exp(s[k] - max_score);
          p[k] = w;
          sum += w;
        }
        // p_k = exp(s_k - lse)  =>  H = sum_k p_k * (lse - s_k), no logs
        // per claim.
        const double lse = max_score + std::log(sum);
        const double inv = 1.0 / sum;
        for (std::size_t k = 0; k < n; ++k) {
          const double pk = p[k] * inv;
          p[k] = pk;
          h += pk * (lse - s[k]);
        }
      }
    } else if (kind_ == Kind::kTruthFinder) {
      double total = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        const double conf = 1.0 / (1.0 + std::exp(-gamma_ * s[k]));
        p[k] = conf;
        total += conf;
      }
      for (std::size_t k = 0; k < n; ++k) {
        p[k] /= total;
        h += EntropyTerm(p[k]);
      }
    } else {  // kVoting: normalized vote counts (VotingFusion::VoteShares).
      double total = 0.0;
      for (std::size_t k = 0; k < n; ++k) total += s[k];
      const double inv = total > 0.0 ? 1.0 / total : 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        p[k] = s[k] * inv;
        h += EntropyTerm(p[k]);
      }
    }
    ws.frontier_entropy_[f] = h;
  }

  // Pass 3: vote-sum delta scatter + writeback, item by item in frontier
  // order — the accumulation order into sum_ is exactly the old loop's.
  const std::vector<SourceId>& vote_sources = c.item_vote_sources();
  const std::vector<ClaimIndex>& vote_claims = c.item_vote_claims();
  for (std::size_t f = 0; f < m; ++f) {
    const ItemId item = ws.frontier_[f];
    const std::size_t off = ws.frontier_offsets_[f];
    const std::size_t n = ws.frontier_offsets_[f + 1] - off;
    const double* p = probs + off;
    const std::uint32_t g = c.claim_offset(item);
    for (std::uint32_t v = c.item_votes_begin(item);
         v < c.item_votes_end(item); ++v) {
      const ClaimIndex k = vote_claims[v];
      const double dp = p[k] - ws.prob_[g + k];
      if (dp == 0.0) continue;
      const SourceId j = vote_sources[v];
      ws.sum_[j] += dp;
      if (ws.source_touch_tick_[j] != ws.ticket_) {
        ws.source_touch_tick_[j] = ws.ticket_;
        ws.touched_sources_.push_back(j);
      }
    }
    for (std::size_t k = 0; k < n; ++k) ws.prob_[g + k] = p[k];
    ws.item_entropy_[item] = ws.frontier_entropy_[f];
  }
}

bool DeltaFusionEngine::Propagate(Workspace& ws, const PriorSet& priors,
                                  ItemId extra_pin, bool enforce_coverage,
                                  bool* converged, std::size_t* iterations,
                                  DeltaFusionStats* stats) const {
  const CompiledDatabase& c = *compiled_;
  const double eps =
      delta_opts_.propagation_epsilon_factor * fusion_opts_.tolerance;
  const std::size_t max_touched = static_cast<std::size_t>(
      delta_opts_.max_frontier_fraction * static_cast<double>(c.num_items()));

  // Each round is one accuracy + probability alternation of the full model,
  // restricted to the active subgraph: every source whose vote-sum ever
  // moved, every non-fixed item any of them enrolled. The subgraph only
  // grows (a source whose accuracy moved by >= eps enrolls all its items),
  // so the rounds converge like a full warm-started Fuse instead of
  // trickling influence one hop at a time.
  bool conv = false;
  std::size_t iter = 0;
  while (iter < fusion_opts_.max_iterations) {
    ++iter;

    // Hard cancel: abandon the relaxation mid-flight. The caller's touched
    // lists stay valid (EntropyAfterExactPin still restores them), and every
    // caller of a non-converged lookahead is itself on an abandon path.
    if (HardStopRequested(fusion_opts_.cancel)) break;

    // Accuracy pass over the active sources. Sources whose sum did not move
    // since their last update fall through at `delta == 0.0` in O(1).
    double max_delta = 0.0;
    for (SourceId j : ws.touched_sources_) {
      const std::size_t degree = c.source_degree(j);
      if (degree == 0) continue;
      const double updated =
          ClampAccuracy(ws.sum_[j] / static_cast<double>(degree));
      const double delta = std::fabs(updated - ws.acc_[j]);
      if (delta == 0.0) continue;
      ws.acc_[j] = updated;
      ws.term_[j] = ScoreTerm(updated);
      if (delta > max_delta) max_delta = delta;
      // Only a non-negligible move enrolls the source's items; smaller
      // changes are absorbed (they are far below the convergence tolerance).
      // Enrollment is idempotent (a source always enrolls all its non-fixed
      // items), so each source scans its vote list at most once per call.
      if (kind_ != Kind::kVoting && delta >= eps &&
          ws.source_enroll_tick_[j] != ws.ticket_) {
        ws.source_enroll_tick_[j] = ws.ticket_;
        const std::vector<ItemId>& vote_items = c.source_vote_items();
        for (std::uint32_t v = c.source_votes_begin(j);
             v < c.source_votes_end(j); ++v) {
          const ItemId i = vote_items[v];
          if (ws.item_touch_tick_[i] == ws.ticket_) continue;
          if (i == extra_pin || c.item_num_claims(i) <= 1 || priors.Has(i)) {
            continue;
          }
          ws.item_touch_tick_[i] = ws.ticket_;
          ws.touched_items_.push_back(i);
          ws.frontier_.push_back(i);
        }
      }
    }

    // Coverage gate: when the update is global, materializing a delta result
    // has no edge over a full pass — bail out before paying for both.
    if (enforce_coverage && ws.touched_items_.size() > max_touched) {
      if (stats != nullptr) {
        stats->iterations = iter;
        stats->touched_items = ws.touched_items_.size();
        if (ws.frontier_.size() > stats->peak_frontier) {
          stats->peak_frontier = ws.frontier_.size();
        }
      }
      return false;
    }
    if (stats != nullptr && ws.frontier_.size() > stats->peak_frontier) {
      stats->peak_frontier = ws.frontier_.size();
    }

    // Probability pass over the active items (the converged-base analogue of
    // the full model's probability update, including its trailing pass:
    // probabilities are refreshed once more on the round that converges).
    RecomputeItems(ws);
    if (max_delta < fusion_opts_.tolerance) {
      conv = true;
      break;
    }
  }

  *converged = conv;
  *iterations = iter;
  if (stats != nullptr) {
    stats->iterations = iter;
    stats->touched_items = ws.touched_items_.size();
  }
  return true;
}

FusionResult DeltaFusionEngine::FuseWithPins(const FusionResult& base,
                                             const PriorSet& priors,
                                             const std::vector<ItemId>& items,
                                             DeltaFusionStats* stats) const {
  VERITAS_SPAN("delta.fuse_with_pins");
  static Counter* calls =
      MetricsRegistry::Global().GetCounter("delta.fuse_with_pins");
  static Counter* fallbacks =
      MetricsRegistry::Global().GetCounter("delta.fallbacks");
  static Histogram* iterations_hist = MetricsRegistry::Global().GetHistogram(
      "delta.iterations", MetricsRegistry::CountEdges());
  static Histogram* touched_hist = MetricsRegistry::Global().GetHistogram(
      "delta.touched_items", MetricsRegistry::CountEdges());
  static Histogram* frontier_hist = MetricsRegistry::Global().GetHistogram(
      "delta.peak_frontier", MetricsRegistry::CountEdges());
  calls->Add(1);

  // Shape guard: a base from before an ingest batch no longer matches the
  // view — flattening it positionally would scatter probabilities into the
  // wrong claims. Count the violation and re-fuse cold (the result is
  // correct, just not incremental). FuseWithAppends is the intended path for
  // folding appends into a stale base.
  const CompiledDatabase& c = *compiled_;
  if (base.num_items() != c.num_items() ||
      base.accuracies().size() != c.num_sources()) {
    assert(false && "FuseWithPins called with a stale-shaped base");
    StaleViewCounter()->Add(1);
    if (stats != nullptr) stats->fell_back = true;
    fallbacks->Add(1);
    return model_.Fuse(db_, priors, fusion_opts_);
  }

  const BaseState state = PrepareBase(base);
  Workspace ws;
  SyncWorkspace(state, ws);
  ++ws.ticket_;
  for (ItemId item : items) {
    const std::vector<double>& pin = priors.Get(item);
    ApplyPin(ws, item, pin.data(), pin.size());
  }
  DeltaFusionStats local_stats;
  DeltaFusionStats* out_stats = stats != nullptr ? stats : &local_stats;
  bool conv = false;
  std::size_t iters = 0;
  if (!Propagate(ws, priors, kInvalidItem, /*enforce_coverage=*/true, &conv,
                 &iters, out_stats)) {
    out_stats->fell_back = true;
    fallbacks->Add(1);
    iterations_hist->Observe(static_cast<double>(out_stats->iterations));
    touched_hist->Observe(static_cast<double>(out_stats->touched_items));
    frontier_hist->Observe(static_cast<double>(out_stats->peak_frontier));
    return model_.Fuse(db_, priors, fusion_opts_, &base);
  }
  iterations_hist->Observe(static_cast<double>(out_stats->iterations));
  touched_hist->Observe(static_cast<double>(out_stats->touched_items));
  frontier_hist->Observe(static_cast<double>(out_stats->peak_frontier));
  FusionResult out = base;
  for (ItemId i : ws.touched_items_) {
    std::vector<double>* probs = out.mutable_item_probs(i);
    const std::uint32_t g = c.claim_offset(i);
    for (std::size_t k = 0; k < probs->size(); ++k) {
      (*probs)[k] = ws.prob_[g + k];
    }
  }
  std::vector<double>* accuracies = out.mutable_accuracies();
  for (SourceId j : ws.touched_sources_) (*accuracies)[j] = ws.acc_[j];
  out.set_iterations(iters);
  out.set_converged(conv);
  return out;
}

double DeltaFusionEngine::EntropyAfterExactPin(
    const BaseState& base, Workspace& ws, const PriorSet& priors, ItemId item,
    ClaimIndex claim, DeltaFusionStats* stats) const {
  // The MEU inner loop: instrumentation here is a single relaxed atomic add
  // (no span, no histogram) so thousands of lookahead pins per select stay
  // cheap with metrics always on.
  static Counter* lookahead_pins =
      MetricsRegistry::Global().GetCounter("delta.lookahead_pins");
  lookahead_pins->Add(1);
  const CompiledDatabase& c = *compiled_;
  // Epoch guard: the base flattened a particular view generation; an ingest
  // batch since then rebuilt the view and moved claim/vote addresses.
  // Using it would read through the stale layout, so fail loudly in debug
  // and degrade to "no information" (the unpinned entropy) in release —
  // never a silently wrong lookahead score.
  if (base.epoch != c.epoch()) {
    assert(false && "EntropyAfterExactPin on a stale base state");
    StaleViewCounter()->Add(1);
    return base.total_entropy;
  }
  // First sight of this base: copy it into the flat working arrays. Later
  // calls only pay for what they touch (and restore below).
  if (ws.synced_base_ != &base || ws.synced_id_ != base.id) {
    SyncWorkspace(base, ws);
  }
  ++ws.ticket_;
  ws.touched_items_.clear();
  ws.touched_sources_.clear();
  ws.frontier_.clear();

  const std::size_t n = c.item_num_claims(item);
  ws.new_probs_.assign(n, 0.0);
  ws.new_probs_[claim] = 1.0;
  // ApplyPin reads deltas into scores_, so new_probs_ survives the call.
  ApplyPin(ws, item, ws.new_probs_.data(), n);

  // No coverage gate on the lookahead path: even when the pin's influence is
  // global, relaxing on the workspace arrays still skips the view rebuild,
  // allocations, and result materialization a fallback Fuse would pay for.
  bool conv = false;
  std::size_t iters = 0;
  Propagate(ws, priors, item, /*enforce_coverage=*/false, &conv, &iters,
            stats);

  double total = base.total_entropy;
  for (ItemId i : ws.touched_items_) {
    total += ws.item_entropy_[i] - base.item_entropy[i];
  }

  // Restore the touched entries so the workspace mirrors the base again.
  for (ItemId i : ws.touched_items_) {
    const std::uint32_t g = c.claim_offset(i);
    const std::size_t ni = c.item_num_claims(i);
    for (std::size_t k = 0; k < ni; ++k) ws.prob_[g + k] = base.probs[g + k];
    ws.item_entropy_[i] = base.item_entropy[i];
  }
  for (SourceId j : ws.touched_sources_) {
    ws.acc_[j] = base.accuracies[j];
    ws.term_[j] = base.terms[j];
    ws.sum_[j] = base.source_sums[j];
  }
  return total;
}

void DeltaFusionEngine::SeedDirty(Workspace& ws, const PriorSet& priors,
                                  const std::vector<ItemId>& dirty_items,
                                  const std::vector<SourceId>& dirty_sources) const {
  const CompiledDatabase& c = *compiled_;
  for (ItemId i : dirty_items) {
    if (ws.item_touch_tick_[i] == ws.ticket_) continue;
    ws.item_touch_tick_[i] = ws.ticket_;
    ws.touched_items_.push_back(i);
    // Pinned and single-claim items are fixed; everything else must be
    // recomputed against the new vote structure.
    if (c.item_num_claims(i) > 1 && !priors.Has(i)) {
      ws.frontier_.push_back(i);
    }
  }
  for (SourceId j : dirty_sources) {
    if (ws.source_touch_tick_[j] == ws.ticket_) continue;
    ws.source_touch_tick_[j] = ws.ticket_;
    ws.touched_sources_.push_back(j);
  }
}

Result<FusionResult> DeltaFusionEngine::FuseWithAppends(
    const FusionResult& base, const PriorSet& priors,
    const std::vector<ItemId>& dirty_items,
    const std::vector<SourceId>& dirty_sources,
    DeltaFusionStats* stats) const {
  VERITAS_SPAN("delta.fuse_with_appends");
  static Counter* calls =
      MetricsRegistry::Global().GetCounter("delta.fuse_with_appends");
  static Counter* fallbacks =
      MetricsRegistry::Global().GetCounter("delta.fallbacks");
  calls->Add(1);

  const CompiledDatabase& c = *compiled_;
  if (base.num_items() > c.num_items() ||
      base.accuracies().size() > c.num_sources()) {
    return Status::InvalidArgument(
        "FuseWithAppends: base result is from a newer shape than the view");
  }

  // Extend the stale base to the current shape: existing probabilities and
  // accuracies carry over verbatim, appended claims start at probability 0
  // (no support yet under the old state), appended sources start at the
  // model's initial accuracy, and pinned items take their (already
  // zero-extended) prior distributions. Every approximation introduced here
  // lives on the dirty set, which is exactly what the propagation below
  // recomputes.
  FusionResult seed(db_, fusion_opts_.initial_accuracy);
  for (ItemId i = 0; i < db_.num_items(); ++i) {
    std::vector<double>* probs = seed.mutable_item_probs(i);
    if (priors.Has(i)) {
      const std::vector<double>& pin = priors.Get(i);
      if (pin.size() != probs->size()) {
        return Status::InvalidArgument(
            "FuseWithAppends: pinned prior not extended to the current "
            "claim count of item " +
            std::to_string(i));
      }
      *probs = pin;
      continue;
    }
    if (i < base.num_items()) {
      const std::vector<double>& old = base.item_probs(i);
      if (old.size() > probs->size()) {
        return Status::InvalidArgument(
            "FuseWithAppends: item " + std::to_string(i) +
            " lost claims relative to the base result");
      }
      for (std::size_t k = 0; k < old.size(); ++k) (*probs)[k] = old[k];
      // New claims of an existing item stay at 0; the item is dirty and gets
      // recomputed.
    } else if (probs->size() == 1) {
      // Brand-new single-claim item: unanimous, probability 1 (what any
      // model's normalization yields, and never recomputed).
      (*probs)[0] = 1.0;
    } else {
      // Brand-new conflicted item: uniform seed; it is dirty by construction
      // and recomputed on the first round.
      const double u = 1.0 / static_cast<double>(probs->size());
      for (double& p : *probs) p = u;
    }
  }
  std::vector<double>* accuracies = seed.mutable_accuracies();
  for (SourceId j = 0; j < base.accuracies().size(); ++j) {
    (*accuracies)[j] = base.accuracies()[j];
  }

  // Flatten against the *current* structure (source sums are recomputed from
  // scratch here, so revised votes are already reflected), then propagate
  // from the dirty set exactly like a pin-ripple.
  const BaseState state = PrepareBase(seed);
  Workspace ws;
  SyncWorkspace(state, ws);
  ++ws.ticket_;
  SeedDirty(ws, priors, dirty_items, dirty_sources);

  DeltaFusionStats local_stats;
  DeltaFusionStats* out_stats = stats != nullptr ? stats : &local_stats;
  bool conv = false;
  std::size_t iters = 0;
  if (!Propagate(ws, priors, kInvalidItem, /*enforce_coverage=*/true, &conv,
                 &iters, out_stats)) {
    out_stats->fell_back = true;
    fallbacks->Add(1);
    return model_.Fuse(db_, priors, fusion_opts_, &seed);
  }

  FusionResult out = std::move(seed);
  for (ItemId i : ws.touched_items_) {
    std::vector<double>* probs = out.mutable_item_probs(i);
    const std::uint32_t g = c.claim_offset(i);
    for (std::size_t k = 0; k < probs->size(); ++k) {
      (*probs)[k] = ws.prob_[g + k];
    }
  }
  std::vector<double>* out_acc = out.mutable_accuracies();
  for (SourceId j : ws.touched_sources_) (*out_acc)[j] = ws.acc_[j];
  out.set_iterations(iters);
  out.set_converged(conv);
  return out;
}

}  // namespace veritas
