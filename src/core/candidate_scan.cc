#include "core/candidate_scan.h"

#include "core/strategy.h"
#include "obs/metrics.h"

namespace veritas {

std::uint64_t CandidateScan::Dispatch(std::size_t n,
                                      const ThreadPool::Body& body) {
  if (lanes_ <= 1 || n < kSerialCutoff) {
    body(/*lane=*/0, 0, n);
    return 0;
  }
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(lanes_);
  return pool_->ParallelFor(n, kChunkSize, body);
}

std::vector<ItemId> CandidateScan::SelectSharded(
    const CompiledDatabase& compiled, std::size_t shards,
    const std::vector<ItemId>& candidates, std::size_t batch,
    const Stage& stage) {
  static Counter* shard_scans =
      MetricsRegistry::Global().GetCounter("scan.shard_scans");
  static Histogram* pool_hist = MetricsRegistry::Global().GetHistogram(
      "scan.shard_pool_candidates", MetricsRegistry::CountEdges());
  plan_.Prepare(compiled, shards);
  shard_scans->Add(1);

  // Stage 1: shard-confined estimates, each shard keeping its top `quota`
  // competitive.
  const std::size_t quota = ShardedScanPlan::MergeQuota(batch);
  const std::vector<double> estimates = stage(candidates, quota, &plan_);

  // Coordinator: deterministic per-shard top-quota merge.
  const std::vector<ItemId> pool = MergeTopCandidatesPerShard(
      candidates, estimates, plan_.partition(), quota);
  pool_hist->Observe(static_cast<double>(pool.size()));

  // Stage 2: exact unconfined re-rank of the O(shards * quota) pool.
  const std::vector<double> gains = stage(pool, batch, /*confine=*/nullptr);
  return TopKByScore(pool, gains, batch);
}

}  // namespace veritas
