// CandidateScan: the one driver behind the lookahead strategies (DESIGN.md
// §5k). MEU, Approx-MEU, GUB and Approx-MEU_k all run the same VPI loop of
// §4.2 — score every unvalidated candidate by its expected utility, then
// take the top-k — and differ only in the per-candidate estimator. The
// driver owns everything around that estimator:
//
//   * the lane count and a lazy, persistent work-stealing ThreadPool
//     (constructed on the first round big enough to need it);
//   * the serial cutoff (rounds under kSerialCutoff positions run inline on
//     the caller) and the chunk size of the pool's deal;
//   * the per-position hard-stop poll: a hard-stopped token makes every
//     remaining position a no-op (the session discards the round).
//
// A kernel owns the estimator and any per-lane scratch, indexed by the lane
// argument. Kernels write to disjoint slots, so results are independent of
// the lane count and the steal schedule.
#ifndef VERITAS_CORE_CANDIDATE_SCAN_H_
#define VERITAS_CORE_CANDIDATE_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/cancellation.h"
#include "util/thread_pool.h"

namespace veritas {

class CandidateScan {
 public:
  /// Positions below this run inline: pool dispatch costs more than it buys.
  static constexpr std::size_t kSerialCutoff = 32;
  /// Positions per work-stealing chunk.
  static constexpr std::size_t kChunkSize = 8;

  /// `lanes` including the caller; 0 and 1 both mean serial.
  explicit CandidateScan(std::size_t lanes) : lanes_(lanes == 0 ? 1 : lanes) {}

  std::size_t lanes() const { return lanes_; }

  /// Calls kernel(lane, pos) for every pos in [0, n) exactly once, with
  /// lane < lanes(), unless `cancel` is hard-stopped: the token is polled
  /// before every position, and once it fires no further position runs.
  /// Returns the pool's steal count for this scan (0 when run inline).
  template <typename Kernel>
  std::uint64_t ForEach(std::size_t n, const CancellationToken* cancel,
                        Kernel&& kernel) {
    return Dispatch(n, [&](std::size_t lane, std::size_t begin,
                           std::size_t end) {
      for (std::size_t pos = begin; pos < end; ++pos) {
        if (HardStopRequested(cancel)) return;
        kernel(lane, pos);
      }
    });
  }

 private:
  std::uint64_t Dispatch(std::size_t n, const ThreadPool::Body& body);

  const std::size_t lanes_;
  std::unique_ptr<ThreadPool> pool_;  // Lazy; persists across rounds.
};

}  // namespace veritas

#endif  // VERITAS_CORE_CANDIDATE_SCAN_H_
