// DeltaFusion: incremental re-fusion after pinning one or a few items.
//
// MEU's exact lookahead re-fuses the whole database O(m * kappa) times per
// action (§4.2.2, Table 11) even though a single pin barely moves most of the
// fixed point: from a converged <P, A>, pinning item o_i only changes the
// accuracies of sources voting on o_i, which only changes the probabilities
// of items those sources touch, and so on. This engine propagates exactly
// that dirty frontier over a CompiledDatabase CSR view:
//
//   pin item(s)  ->  sources voting on them get new vote-probability sums
//                ->  accuracy update restricted to those sources
//                ->  probability update restricted to items the *changed*
//                    sources vote on (Eq. 1 over cached per-source log-odds)
//                ->  repeat until the frontier's L-infinity accuracy change
//                    falls below the fusion tolerance.
//
// Sources whose accuracy moved by less than a small fraction of the
// tolerance do not enroll their items, so the active subgraph stops growing
// once the perturbation decays; the dropped mass is below the convergence
// tolerance the full model itself stops at, which is why the result agrees
// with a full warm-started Fuse within that tolerance (see DESIGN.md for the
// exact semantics). When a *materializing* re-fusion (FuseWithPins) touches
// more items than a coverage threshold, the engine abandons propagation and
// falls back to a full warm-started Fuse; the entropy-only MEU lookahead
// never falls back — even a global relaxation on the flat workspace arrays
// beats a full Fuse, which must also rebuild its views and allocate a
// result.
//
// Supported models: Accu, Voting (exact — probabilities do not depend on
// accuracies), TruthFinder. AccuCopy re-estimates its dependence matrix from
// *all* pairwise agreements, so a pin is never local; Create() returns null
// for it and every other unsupported model.
#ifndef VERITAS_FUSION_DELTA_FUSION_H_
#define VERITAS_FUSION_DELTA_FUSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "fusion/fusion_model.h"
#include "fusion/fusion_result.h"
#include "fusion/priors.h"
#include "model/compiled_database.h"
#include "model/database.h"
#include "util/result.h"

namespace veritas {

class StreamingDatabase;

/// Knobs of the incremental engine.
struct DeltaFusionOptions {
  /// Fall back to a full warm-started Fuse when more than this fraction of
  /// all items has been touched by the propagation.
  double max_frontier_fraction = 0.5;
  /// A source re-dirties the items it votes on only when its accuracy moved
  /// by at least `propagation_epsilon_factor * tolerance`. Below that the
  /// change is absorbed (it is orders of magnitude under the convergence
  /// tolerance of the full model, so the absorbed drift — roughly
  /// eps / (1 - rho) per score term, rho being the model's contraction rate
  /// — stays well inside the tolerance the full path itself stops at).
  double propagation_epsilon_factor = 1e-3;
};

/// Per-call observability of one incremental re-fusion.
struct DeltaFusionStats {
  bool fell_back = false;           ///< Propagation abandoned for full Fuse.
  std::size_t iterations = 0;       ///< Frontier rounds run.
  std::size_t touched_items = 0;    ///< Distinct items whose probs changed.
  std::size_t peak_frontier = 0;    ///< Largest single-round item frontier.
};

/// Incremental re-fusion engine for one (Database, FusionModel) pair.
/// All methods are const and thread-safe; concurrent callers need their own
/// Workspace (see MEU's per-worker workspaces).
class DeltaFusionEngine {
 public:
  /// Reusable scratch for the hot path: flat working copies of a BaseState,
  /// mutated in place during a call and restored (touched entries only)
  /// before it returns, so a lookahead costs O(active subgraph) with direct
  /// array access — no per-element indirection. The copies are synced lazily
  /// the first time a workspace sees a given BaseState (O(database) once,
  /// then amortized over the whole candidate scan). One per thread; contents
  /// are meaningless between calls.
  class Workspace {
   public:
    Workspace() = default;

   private:
    friend class DeltaFusionEngine;
    // Which BaseState the working copies currently mirror.
    const void* synced_base_ = nullptr;
    std::uint64_t synced_id_ = 0;
    std::uint64_t ticket_ = 0;       // Dedupe stamp for the touched lists.
    std::size_t claims_ = 0, sources_ = 0, items_ = 0;
    // Flat working copies of the base state.
    std::vector<double> prob_;
    std::vector<double> acc_;
    std::vector<double> sum_;
    std::vector<double> term_;
    std::vector<double> item_entropy_;
    // The active subgraph (cumulative; membership = tick equals ticket_).
    // touched_items_ includes pinned items; frontier_ is the recompute list
    // (touched minus fixed items), relaxed every round.
    std::vector<std::uint64_t> item_touch_tick_;
    std::vector<ItemId> touched_items_;
    std::vector<std::uint64_t> source_touch_tick_;
    std::vector<SourceId> touched_sources_;
    std::vector<std::uint64_t> source_enroll_tick_;
    std::vector<ItemId> frontier_;
    std::vector<double> scores_;
    std::vector<double> new_probs_;
    // Flat SoA buffers for the batched frontier recompute: per-claim scores
    // and probabilities for the whole frontier live in one contiguous run
    // (offsets per item), so the gather/softmax/scatter passes are tight
    // loops over dense arrays instead of per-item resized scratch.
    std::vector<std::size_t> frontier_offsets_;
    std::vector<double> frontier_scores_;
    std::vector<double> frontier_probs_;
    std::vector<double> frontier_entropy_;
  };

  /// Flat snapshot of a converged base <P, A>, reusable across many pins of
  /// the same base (one per MEU candidate scan). `origin` must outlive the
  /// state; it backs the full-Fuse fallback warm start. `id` is a globally
  /// unique generation stamp so workspaces can tell bases apart even when
  /// one is rebuilt at the same address.
  struct BaseState {
    const FusionResult* origin = nullptr;
    std::uint64_t id = 0;
    /// CompiledDatabase epoch this state was flattened against. Every lookup
    /// into `probs`/`source_sums` is positional in that epoch's layout; the
    /// engine checks it before each use and fails loudly on mismatch instead
    /// of silently reading through a stale view (see
    /// `delta.stale_view_violations`).
    std::uint64_t epoch = 0;
    std::vector<double> probs;        ///< By global claim id.
    std::vector<double> accuracies;   ///< Clamped.
    std::vector<double> source_sums;  ///< Sum of vote probabilities.
    std::vector<double> terms;        ///< Per-source score term (model kind).
    std::vector<double> item_entropy;
    double total_entropy = 0.0;
  };

  /// True when `model` has the local-update structure the engine exploits.
  static bool Supports(const FusionModel& model);

  /// Builds an engine, or null when the model is unsupported. Owns its
  /// CompiledDatabase view (frozen databases — the view never changes).
  static std::unique_ptr<DeltaFusionEngine> Create(
      const Database& db, const FusionModel& model, FusionOptions fusion_opts,
      DeltaFusionOptions delta_opts = {});

  /// Streaming variant: borrows the StreamingDatabase's live view instead of
  /// compiling a private copy, so ingest batches become visible to the engine
  /// as soon as they land (each bumping the shared epoch). `stream` must
  /// outlive the engine.
  static std::unique_ptr<DeltaFusionEngine> Create(
      const StreamingDatabase& stream, const FusionModel& model,
      FusionOptions fusion_opts, DeltaFusionOptions delta_opts = {});

  const CompiledDatabase& compiled() const { return *compiled_; }
  const FusionOptions& fusion_options() const { return fusion_opts_; }
  const DeltaFusionOptions& delta_options() const { return delta_opts_; }

  /// True when a pin on one item can move *other* items' probabilities
  /// (through the shared-source accuracy coupling). Voting has no such
  /// coupling: a pin changes exactly the pinned item, so MEU's pruning bound
  /// is exact for it instead of a margin-padded heuristic.
  bool cross_item_influence() const { return kind_ != Kind::kVoting; }

  /// Flattens a converged fusion result for repeated pinning.
  BaseState PrepareBase(const FusionResult& base) const;

  /// Full re-fusion result after pinning `items` to the distributions
  /// `priors` holds for them. `priors` must already contain every entry of
  /// `items`; `base` is the converged result *without* those pins (the warm
  /// state the session carries). Falls back to model.Fuse on frontier
  /// overflow.
  FusionResult FuseWithPins(const FusionResult& base, const PriorSet& priors,
                            const std::vector<ItemId>& items,
                            DeltaFusionStats* stats = nullptr) const;

  /// MEU fast path: the total entropy of the hypothetical state where `item`
  /// is pinned one-hot to `claim`, without materializing a FusionResult.
  /// `priors` is the current prior set (NOT yet containing `item`).
  double EntropyAfterExactPin(const BaseState& base, Workspace& ws,
                              const PriorSet& priors, ItemId item,
                              ClaimIndex claim,
                              DeltaFusionStats* stats = nullptr) const;

  /// Streaming re-fusion: folds freshly appended observations into a
  /// converged result instead of re-fusing from scratch. `base` is the
  /// converged result from *before* the appends (its shape may lag the
  /// database — missing the new items/sources/claims); `dirty_items` /
  /// `dirty_sources` are the entities the appends touched (from
  /// StreamingDatabase::TakeDirty). The engine extends `base` to the current
  /// shape (new claims at probability 0, new sources at the initial
  /// accuracy, new single-claim items pinned), seeds the propagation
  /// frontier from the dirty set — an append enrolls exactly like a
  /// pin-ripple — and relaxes to convergence. Falls back to a full
  /// warm-started Fuse on frontier overflow. Fails (InvalidArgument) when
  /// `base` is from a *newer* shape than the database, which indicates caller
  /// confusion rather than staleness.
  Result<FusionResult> FuseWithAppends(const FusionResult& base,
                                       const PriorSet& priors,
                                       const std::vector<ItemId>& dirty_items,
                                       const std::vector<SourceId>& dirty_sources,
                                       DeltaFusionStats* stats = nullptr) const;

 private:
  enum class Kind { kAccu, kVoting, kTruthFinder };

  /// The one model-kind dispatch behind Supports and both Create overloads:
  /// the engine kind plus TruthFinder's gamma (0 otherwise), or nullopt for
  /// an unsupported model.
  static std::optional<std::pair<Kind, double>> KindOf(
      const FusionModel& model);
  /// Builds an engine over `view`, or over a private view of `db` when
  /// `view` is null; null when the model is unsupported.
  static std::unique_ptr<DeltaFusionEngine> CreateOver(
      const Database& db, const CompiledDatabase* view,
      const FusionModel& model, FusionOptions fusion_opts,
      DeltaFusionOptions delta_opts);

  DeltaFusionEngine(const Database& db, const FusionModel& model, Kind kind,
                    double gamma, FusionOptions fusion_opts,
                    DeltaFusionOptions delta_opts,
                    const CompiledDatabase* view);

  double ScoreTerm(double accuracy) const;
  /// Copies `base` into the workspace's flat working arrays.
  void SyncWorkspace(const BaseState& base, Workspace& ws) const;
  void ApplyPin(Workspace& ws, ItemId item, const double* pin,
                std::size_t n) const;
  /// Batched probability pass: recomputes every frontier item in order via
  /// three flat passes (score gather, softmax + entropy, vote-sum scatter)
  /// over the workspace's contiguous SoA buffers. Bit-identical to updating
  /// the items one at a time — scores depend only on term_, which the pass
  /// never writes, and the scatter preserves per-item order.
  void RecomputeItems(Workspace& ws) const;
  /// Relaxes the active subgraph to convergence. With `enforce_coverage`,
  /// returns false as soon as the touched-item set exceeds the coverage
  /// threshold (caller must fall back to a full Fuse); without it the
  /// relaxation simply degrades into a full-database alternation on the
  /// workspace arrays. `extra_pin` marks a pinned item absent from `priors`.
  bool Propagate(Workspace& ws, const PriorSet& priors, ItemId extra_pin,
                 bool enforce_coverage, bool* converged,
                 std::size_t* iterations, DeltaFusionStats* stats) const;

  /// Seeds `ws` for a propagation over an already-pinned/extended state:
  /// marks `dirty_items` touched (multi-claim unpinned ones enter the
  /// frontier) and `dirty_sources` touched.
  void SeedDirty(Workspace& ws, const PriorSet& priors,
                 const std::vector<ItemId>& dirty_items,
                 const std::vector<SourceId>& dirty_sources) const;

  const Database& db_;
  const FusionModel& model_;
  Kind kind_;
  double gamma_;
  FusionOptions fusion_opts_;
  DeltaFusionOptions delta_opts_;
  // The CSR view: owned for frozen databases, borrowed from a
  // StreamingDatabase when the engine follows a live stream.
  std::unique_ptr<CompiledDatabase> owned_compiled_;
  const CompiledDatabase* compiled_;
};

}  // namespace veritas

#endif  // VERITAS_FUSION_DELTA_FUSION_H_
