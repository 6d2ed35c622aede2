#include "core/candidate_scan.h"

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

}  // namespace veritas
