// Tests of the CandidateScan driver (core/candidate_scan.h, DESIGN.md §5k):
// exactly-once coverage around the serial cutoff at every lane count, the
// per-position hard-stop poll, and that a hard-stopped token keeps every
// lookahead strategy from doing lookahead work. Lives in the concurrency
// binary so CI reruns it under ThreadSanitizer.
#include "core/candidate_scan.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/strategy.h"
#include "core/strategy_factory.h"
#include "data/synthetic.h"
#include "fusion/accu.h"
#include "fusion/delta_fusion.h"
#include "obs/metrics.h"
#include "util/cancellation.h"

namespace veritas {
namespace {

constexpr std::size_t kLaneCounts[] = {1, 2, 4, 8};

TEST(CandidateScanTest, VisitsEveryPositionExactlyOnce) {
  // n straddles the serial cutoff (32): below it the scan runs inline, at
  // and above it the pool deals chunks.
  for (const std::size_t lanes : kLaneCounts) {
    CandidateScan scan(lanes);
    for (const std::size_t n : {0u, 31u, 32u, 33u, 257u}) {
      std::vector<std::atomic<int>> visits(n);
      std::atomic<bool> lane_in_range{true};
      scan.ForEach(n, /*cancel=*/nullptr,
                   [&](std::size_t lane, std::size_t pos) {
                     if (lane >= scan.lanes()) lane_in_range = false;
                     visits[pos].fetch_add(1, std::memory_order_relaxed);
                   });
      EXPECT_TRUE(lane_in_range) << "lanes=" << lanes << " n=" << n;
      for (std::size_t pos = 0; pos < n; ++pos) {
        EXPECT_EQ(visits[pos].load(), 1)
            << "lanes=" << lanes << " n=" << n << " pos=" << pos;
      }
    }
  }
}

TEST(CandidateScanTest, HardStoppedTokenVisitsNoPosition) {
  CancellationToken token;
  token.RequestHardStop();
  for (const std::size_t lanes : kLaneCounts) {
    CandidateScan scan(lanes);
    for (const std::size_t n : {31u, 257u}) {
      std::atomic<int> visited{0};
      scan.ForEach(n, &token, [&](std::size_t, std::size_t) {
        visited.fetch_add(1, std::memory_order_relaxed);
      });
      EXPECT_EQ(visited.load(), 0) << "lanes=" << lanes << " n=" << n;
    }
  }
}

TEST(CandidateScanTest, GracefulStopDoesNotTruncateTheScan) {
  // Only a hard stop is observed inside a scan; a graceful stop waits for
  // the round boundary.
  CancellationToken token;
  token.RequestStop();
  CandidateScan scan(4);
  std::atomic<int> visited{0};
  scan.ForEach(100, &token, [&](std::size_t, std::size_t) {
    visited.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(visited.load(), 100);
}

// A dense dataset with enough candidates for the pooled path, fused by
// Accu, with the delta engine and ground truth wired the way a session
// wires them.
struct StrategyFixture {
  StrategyFixture() {
    DenseConfig config;
    config.num_items = 80;
    config.num_sources = 12;
    config.density = 0.5;
    config.seed = 5;
    data = GenerateDense(config);
    fusion = model.Fuse(data.db, priors, opts);
    delta = DeltaFusionEngine::Create(data.db, model, opts);
    ctx.db = &data.db;
    ctx.fusion = &fusion;
    ctx.priors = &priors;
    ctx.model = &model;
    ctx.fusion_opts = &opts;
    ctx.ground_truth = &data.truth;
    ctx.delta = delta.get();
  }

  SyntheticDataset data;
  AccuFusion model;
  FusionOptions opts;
  PriorSet priors;
  FusionResult fusion;
  std::unique_ptr<DeltaFusionEngine> delta;
  StrategyContext ctx;
};

// The counters a lookahead moves: delta-engine pins (MEU), neighbour
// estimates (Approx-MEU, Approx-MEU_k) and full Accu re-fusions (GUB).
std::vector<double> LookaheadWork() {
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  return {snap.Value("delta.lookahead_pins"),
          snap.Value("strategy.approx_meu.neighbor_updates"),
          snap.Value("fusion.accu.fuse_calls")};
}

TEST(CandidateScanTest, HardStopPreventsLookaheadWorkInEveryStrategy) {
  StrategyFixture fx;
  ASSERT_NE(fx.delta, nullptr);
  ASSERT_GE(CandidateItems(fx.ctx).size(), CandidateScan::kSerialCutoff);
  CancellationToken token;
  token.RequestHardStop();
  for (const char* name : {"meu", "approx_meu", "approx_meu_k:10", "gub"}) {
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(name) + " threads=" + std::to_string(threads));
      auto strategy = MakeStrategy(name, threads);
      ASSERT_TRUE(strategy.ok());

      // Control: an uncancelled round does lookahead work.
      fx.ctx.cancel = nullptr;
      std::vector<double> before = LookaheadWork();
      (*strategy)->SelectBatch(fx.ctx, 3);
      EXPECT_NE(LookaheadWork(), before);

      fx.ctx.cancel = &token;
      before = LookaheadWork();
      (*strategy)->SelectBatch(fx.ctx, 3);
      EXPECT_EQ(LookaheadWork(), before);
    }
  }
  fx.ctx.cancel = nullptr;
}

}  // namespace
}  // namespace veritas
