// FusionModel: the abstract data fusion system F : D -> <P, A> of
// Definition 2. The feedback framework treats fusion as a black box (§3),
// so every strategy works with any FusionModel implementation.
#ifndef VERITAS_FUSION_FUSION_MODEL_H_
#define VERITAS_FUSION_FUSION_MODEL_H_

#include <cstddef>
#include <string>

#include "fusion/fusion_result.h"
#include "fusion/priors.h"
#include "model/database.h"
#include "util/cancellation.h"

namespace veritas {

/// Knobs shared by the iterative fusion models.
struct FusionOptions {
  /// Default accuracy assigned to sources before the first iteration (§3).
  double initial_accuracy = 0.8;
  /// Hard cap on the alternation between claim and accuracy updates.
  std::size_t max_iterations = 100;
  /// Convergence threshold on the L-infinity change of source accuracies.
  double tolerance = 1e-6;
  /// Use the incremental DeltaFusionEngine for lookahead and post-feedback
  /// re-fusions when the model supports it (Accu, Voting, TruthFinder; see
  /// fusion/delta_fusion.h). Models without local-update structure (AccuCopy)
  /// ignore the flag and always re-fuse fully. Only takes effect together
  /// with warm starts — cold-started runs stay on the full path so the
  /// paper's worked examples remain bit-exact.
  bool use_delta_fusion = true;
  /// Optional hard-stop token (not owned; may be null). Iterative models
  /// poll it once per claim/accuracy alternation and bail at the next
  /// iteration boundary when a hard stop is requested, returning the
  /// partial result with converged() == false. Graceful stops never
  /// interrupt a fusion in flight — that keeps completed rounds bit-exact.
  const CancellationToken* cancel = nullptr;
};

/// Interface of a data fusion system.
class FusionModel {
 public:
  virtual ~FusionModel() = default;

  /// Short identifier ("accu", "voting", ...).
  virtual std::string name() const = 0;

  /// Runs fusion on `db` with validated knowledge `priors` pinned.
  /// Pinned items keep their prior distribution but still contribute to
  /// source accuracy estimation.
  virtual FusionResult Fuse(const Database& db, const PriorSet& priors,
                            const FusionOptions& opts) const = 0;

  /// Warm-started variant: `warm` (if non-null) provides the starting source
  /// accuracies. The default implementation ignores the hint; iterative
  /// models override it to converge faster on the lookahead re-fusions that
  /// MEU/GUB issue (§4.2.2).
  virtual FusionResult Fuse(const Database& db, const PriorSet& priors,
                            const FusionOptions& opts,
                            const FusionResult* warm) const;

  /// Convenience overload with no priors.
  FusionResult Fuse(const Database& db, const FusionOptions& opts) const {
    return Fuse(db, PriorSet(), opts);
  }
};

}  // namespace veritas

#endif  // VERITAS_FUSION_FUSION_MODEL_H_
