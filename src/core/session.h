// FeedbackSession: the sequential validation loop of the paper's evaluation
// (§5): fuse -> measure -> let the strategy pick the next item(s) -> ask the
// oracle -> pin the feedback as a prior -> repeat. Validations are retained,
// so the metrics show the cumulative gain of all feedback acquired so far.
#ifndef VERITAS_CORE_SESSION_H_
#define VERITAS_CORE_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/oracle.h"
#include "core/strategy.h"
#include "fusion/fusion_model.h"
#include "model/ground_truth.h"
#include "model/streaming_database.h"
#include "util/cancellation.h"
#include "util/resource_budget.h"
#include "util/result.h"

namespace veritas {

/// Streaming ingestion hookup (see SessionOptions::streaming). When active,
/// the session pulls one batch from `feed` per validation round — ingest and
/// validation interleave, and already-validated items stay pinned across
/// epochs (a pin survives appends; new claims on a pinned item get
/// probability 0). None of the pointers are owned.
struct StreamingSessionConfig {
  /// The live database the session runs against. Must be the same object
  /// whose db() was passed to the FeedbackSession constructor.
  StreamingDatabase* stream = nullptr;
  /// Source of ingest batches; exhausted feeds simply stop ticking.
  ObservationFeed* feed = nullptr;
  /// Mutable view of the ground truth the session reads, so streamed truth
  /// rows can land. Must alias the constructor's `truth` reference. Truth
  /// rows naming items that have not arrived yet are deferred and retried
  /// after every later batch.
  GroundTruth* truth = nullptr;
  /// Restrict validation candidates to items with known truth. Set this when
  /// the oracle hard-fails on unknown truth (GroundTruthOracle): a streamed
  /// item then waits for its truth row instead of aborting the session.
  bool require_known_truth = false;

  bool active() const { return stream != nullptr; }
};

/// Session knobs.
struct SessionOptions {
  FusionOptions fusion;
  /// Stop after this many items have been validated (default: all).
  std::size_t max_validations = std::numeric_limits<std::size_t>::max();
  /// Items validated per round before re-fusing (§4.3 "Batch of Actions").
  std::size_t batch_size = 1;
  /// Forwarded to StrategyContext (see Strategy).
  bool include_singletons = false;
  /// Warm-start each re-fusion from the previous accuracies.
  bool warm_start = true;
  /// Record per-step metrics (disable for pure timing runs).
  bool record_metrics = true;
  /// Graceful degradation: when an oracle answer ultimately fails with a
  /// transient/abstain status (Unavailable, DeadlineExceeded, Abstained),
  /// skip the item — record it and move to the strategy's next-best
  /// suggestion — instead of aborting the whole run. Hard errors (unknown
  /// ground truth, out-of-range ids) still abort.
  bool skip_unanswerable = true;
  /// When a re-fusion reports converged() == false, roll back to the
  /// last-good FusionResult instead of using the partial result. Off by
  /// default: non-converged results are still usable (§3), and rolling back
  /// freezes the beliefs until the next validation. Non-finite re-fusions
  /// are always rolled back regardless of this flag.
  bool rollback_on_nonconvergence = false;
  /// Write a resumable snapshot to this path ("" = no checkpointing) every
  /// `checkpoint_every_rounds` validation rounds and at completion.
  std::string checkpoint_path;
  std::size_t checkpoint_every_rounds = 1;
  /// Resume from this checkpoint when the file exists; a missing file means
  /// a fresh start (so the same flags work for the first and the restarted
  /// invocation). Corrupt checkpoints recover from the rotated chain when a
  /// valid older generation exists; otherwise they fail the run.
  std::string resume_path;
  /// Cooperative cancellation (not owned; may be null). A graceful stop
  /// (CancellationToken::RequestStop, e.g. from a SIGINT handler) is
  /// observed at round boundaries: the in-flight round completes bit-exactly,
  /// is checkpointed, and Run returns Status::DeadlineExceeded — so resuming
  /// reproduces the uninterrupted run's trace exactly. A hard stop (second
  /// RequestStop) additionally bails the fusion iteration and strategy
  /// lookahead loops; the in-flight round is discarded and the last
  /// checkpoint on disk remains the resume point.
  const CancellationToken* cancel = nullptr;
  /// Wall-clock budget for the whole run. Expiry acts like a graceful stop:
  /// finish the round, checkpoint, return Status::DeadlineExceeded.
  Deadline deadline;
  /// Streaming ingestion (inactive unless `streaming.stream` is set).
  /// Incompatible with checkpoint/resume: a checkpoint snapshots fusion
  /// state against a fixed database, which a stream invalidates.
  StreamingSessionConfig streaming;
  /// Resource budget (approximate resident bytes + per-run round quota;
  /// zero fields = unlimited). Checked at round boundaries after at least
  /// one round has completed this run — so every admission makes progress
  /// and evict/resume cycles terminate. A breach acts like a graceful stop
  /// except for the status: checkpoint, then return
  /// Status::ResourceExhausted (the supervisor's eviction signal; resuming
  /// from the checkpoint continues bit-exactly).
  ResourceBudget budget;
};

/// Metrics after one validation round.
struct SessionStep {
  std::size_t num_validated = 0;      ///< Cumulative items validated.
  std::vector<ItemId> items;          ///< Items validated this round.
  std::vector<ItemId> skipped;        ///< Items skipped this round (oracle
                                      ///< failure after retries).
  std::size_t oracle_retries = 0;     ///< Oracle attempts beyond the first.
  double distance = 0.0;              ///< distance_to_ground_truth after.
  double uncertainty = 0.0;           ///< Total entropy after.
  double select_seconds = 0.0;        ///< Time the strategy took to decide.
  double fuse_seconds = 0.0;          ///< Time to re-fuse with the feedback.
};

/// Full trace of a session.
struct SessionTrace {
  double initial_distance = 0.0;
  double initial_uncertainty = 0.0;
  std::vector<SessionStep> steps;
  FusionResult final_fusion;
  PriorSet priors;  ///< All feedback acquired.
  /// Items the oracle ultimately failed to answer, in skip order.
  std::vector<ItemId> skipped_items;
  /// Oracle attempts beyond the first, summed over the whole session.
  std::size_t total_oracle_retries = 0;
  /// Re-fusions that reported converged() == false.
  std::size_t fusion_nonconverged_rounds = 0;
  /// Re-fusions discarded in favor of the last-good result (non-finite
  /// output, or non-convergence with rollback_on_nonconvergence set).
  std::size_t fusion_fallback_rounds = 0;
  /// Streaming ingest accounting (all zero for non-streaming sessions).
  std::size_t ingest_batches = 0;
  std::size_t ingested_observations = 0;  ///< Fresh votes appended.
  std::size_t ingest_revisions = 0;       ///< Last-write-wins rewrites.
  std::size_t truths_applied = 0;         ///< Streamed truth rows landed.
  std::size_t truths_deferred = 0;        ///< Rows still waiting at the end.
  std::uint64_t final_epoch = 0;          ///< View epoch after the last tick.

  /// Relative change of distance after `steps[idx]` vs the initial value, in
  /// percent (negative = improvement); mirrors the paper's Figure 3 y-axis.
  double DistanceReductionPercent(std::size_t idx) const;
  /// Same for uncertainty (Figure 4 y-axis).
  double UncertaintyReductionPercent(std::size_t idx) const;
  /// Mean strategy decision time per round, seconds (Table 11).
  double MeanSelectSeconds() const;
};

/// Drives a strategy + oracle against a database until the validation budget
/// or the candidate pool is exhausted.
class FeedbackSession {
 public:
  /// All referenced objects must outlive the session. `rng` may be null when
  /// neither the strategy nor the oracle needs randomness.
  FeedbackSession(const Database& db, const FusionModel& model,
                  Strategy* strategy, FeedbackOracle* oracle,
                  const GroundTruth& truth, SessionOptions options,
                  Rng* rng);

  /// Runs the loop. Transient oracle failures skip the affected item when
  /// options.skip_unanswerable is set (the default); hard failures — unknown
  /// ground truth, out-of-range ids — abort the run.
  Result<SessionTrace> Run();

 private:
  const Database& db_;
  const FusionModel& model_;
  Strategy* strategy_;
  FeedbackOracle* oracle_;
  const GroundTruth& truth_;
  SessionOptions options_;
  Rng* rng_;
};

}  // namespace veritas

#endif  // VERITAS_CORE_SESSION_H_
