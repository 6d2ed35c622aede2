// ThreadPool: a persistent work-stealing pool for the lookahead scans.
//
// The MEU-family strategies used to spawn fresh std::threads for every
// SelectNext round — thousands of thread creations per session, each paying
// kernel setup and cold stacks. This pool is created once per CandidateScan
// driver (one per strategy) and reused: N-1 background workers sleep on a
// condition variable between rounds, and the caller participates as lane 0,
// so a ParallelFor costs one notify + one join-free completion wait instead
// of N thread spawns.
//
// Scheduling: the index range is cut into fixed-size chunks and chunk
// ordinals are dealt to lanes round-robin (lane w owns chunks w, w+L,
// w+2L, ...). A strided deal means every lane starts near the *front* of the
// range, which the MEU scan exploits by placing last round's best candidates
// first — the branch-and-bound threshold tightens early no matter which lane
// runs first. Each lane pops its own chunks front-to-back; an idle lane
// steals a victim's *back* chunk (the least-promising work). A lane's deque
// is a single packed head|tail atomic, so owner pops and steals are one CAS
// each and a chunk can never execute twice — TSan-clean by construction.
//
// Determinism contract: the pool guarantees every index in [0, n) is
// executed exactly once, but NOT in a fixed order and NOT on a fixed lane.
// Callers that need deterministic results must write to disjoint slots and
// reduce after ParallelFor returns (core/candidate_scan.h is the one user
// and shows the pattern).
//
// Not reentrant: ParallelFor must not be called from inside a body, and a
// pool must not run two ParallelFors concurrently. Bodies poll their own
// cancellation tokens; a cancelled body should return quickly and let the
// remaining chunks drain as no-ops.
#ifndef VERITAS_UTIL_THREAD_POOL_H_
#define VERITAS_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace veritas {

class ThreadPool {
 public:
  /// Runs on a half-open index range [begin, end); `lane` in [0, lanes()) is
  /// stable within one chunk and indexes per-lane scratch (workspaces).
  using Body =
      std::function<void(std::size_t lane, std::size_t begin, std::size_t end)>;

  /// `lanes` including the caller; 0 and 1 both mean "serial" (no workers).
  explicit ThreadPool(std::size_t lanes);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t lanes() const { return lanes_; }

  /// Executes body over [0, n) in chunks of `chunk_size`, blocking until
  /// every index ran. Returns the number of successful steals (0 on the
  /// inline serial path). The caller participates as lane 0.
  std::uint64_t ParallelFor(std::size_t n, std::size_t chunk_size,
                            const Body& body);

  /// Lifetime total of successful steals across all ParallelFor calls.
  std::uint64_t steals() const {
    return total_steals_.load(std::memory_order_relaxed);
  }

 private:
  // One packed [head, tail) range of chunk ordinals in *local* index space
  // (local t on lane w = global chunk w + t * lanes). head sits in the high
  // 32 bits. Owner pops advance head, steals retreat tail; both are a single
  // CAS on the same word, so the range can never be claimed twice.
  struct alignas(64) LaneDeque {
    std::atomic<std::uint64_t> range{0};
  };

  // Heap-allocated per ParallelFor and shared with the workers, so a
  // straggler waking after the next round started only ever sees a fully
  // drained old job — never a half-initialized new one.
  struct Job {
    std::size_t n = 0;
    std::size_t chunk_size = 0;
    std::size_t num_chunks = 0;
    const Body* body = nullptr;
    std::unique_ptr<LaneDeque[]> deques;  // One per lane (atomics don't move).
    std::atomic<std::size_t> chunks_done{0};
    std::atomic<std::uint64_t> steals{0};
    std::mutex done_mu;
    std::condition_variable done_cv;
  };

  void WorkerLoop(std::size_t lane);
  /// Drains lane's own deque front-to-back, then steals round-robin.
  void RunLane(Job& job, std::size_t lane) const;
  void ExecuteChunk(Job& job, std::size_t lane, std::size_t ordinal) const;

  const std::size_t lanes_;
  std::atomic<std::uint64_t> total_steals_{0};

  std::mutex job_mu_;
  std::condition_variable job_cv_;
  std::shared_ptr<Job> job_;       // Current round's job (guarded by job_mu_).
  std::uint64_t epoch_ = 0;        // Bumped per ParallelFor (guarded).
  bool stop_ = false;              // Guarded by job_mu_.
  std::vector<std::thread> workers_;
};

}  // namespace veritas

#endif  // VERITAS_UTIL_THREAD_POOL_H_
