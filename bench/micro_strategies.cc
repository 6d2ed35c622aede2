// google-benchmark micro-benchmarks for the feedback strategies: cost of
// one next-action decision per strategy and of the Approx-MEU primitives.
#include <benchmark/benchmark.h>

#include "core/approx_meu.h"
#include "core/strategy_factory.h"
#include "data/synthetic.h"
#include "fusion/accu.h"

using namespace veritas;

namespace {

struct Fixture {
  explicit Fixture(std::size_t items) {
    DenseConfig config;
    config.num_items = items;
    config.num_sources = 38;
    config.density = 0.36;
    config.seed = 7;
    data = GenerateDense(config);
    graph = std::make_unique<ItemGraph>(data.db);
    fusion = model.Fuse(data.db, opts);
    ctx.db = &data.db;
    ctx.fusion = &fusion;
    ctx.priors = &priors;
    ctx.model = &model;
    ctx.fusion_opts = &opts;
    ctx.ground_truth = &data.truth;
    ctx.graph = graph.get();
    ctx.rng = &rng;
  }

  SyntheticDataset data;
  AccuFusion model;
  FusionOptions opts;
  FusionResult fusion;
  PriorSet priors;
  std::unique_ptr<ItemGraph> graph;
  Rng rng{3};
  StrategyContext ctx;
};

void BM_SelectNext(benchmark::State& state, const std::string& name,
                   std::size_t items) {
  Fixture fixture(items);
  auto strategy = MakeStrategy(name);
  for (auto _ : state) {
    benchmark::DoNotOptimize((*strategy)->SelectNext(fixture.ctx));
  }
}
BENCHMARK_CAPTURE(BM_SelectNext, qbc_400, "qbc", 400);
BENCHMARK_CAPTURE(BM_SelectNext, us_400, "us", 400);
BENCHMARK_CAPTURE(BM_SelectNext, approx_meu_400, "approx_meu", 400);
BENCHMARK_CAPTURE(BM_SelectNext, approx_meu_k10_400, "approx_meu_k:10", 400);
BENCHMARK_CAPTURE(BM_SelectNext, meu_100, "meu", 100);
BENCHMARK_CAPTURE(BM_SelectNext, gub_100, "gub", 100);

void BM_AccuracyDeltas(benchmark::State& state) {
  Fixture fixture(1000);
  const ItemId item = fixture.data.db.ConflictingItems().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeAccuracyDeltas(fixture.data.db, fixture.fusion, item, 0));
  }
}
BENCHMARK(BM_AccuracyDeltas);

void BM_EstimateUpdatedProbs(benchmark::State& state) {
  Fixture fixture(1000);
  const auto conflicting = fixture.data.db.ConflictingItems();
  const ItemId item = conflicting.front();
  const AccuracyDeltas deltas =
      ComputeAccuracyDeltas(fixture.data.db, fixture.fusion, item, 0);
  const ItemId neighbor = conflicting.back();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EstimateUpdatedProbs(fixture.data.db, fixture.fusion, neighbor,
                             deltas));
  }
}
BENCHMARK(BM_EstimateUpdatedProbs);

// The whole Approx-MEU scoring kernel: every candidate of the 1000x38 dense
// snapshot, serial, as one SelectBatch scores them.
void BM_ApproxMeuScoreCandidates(benchmark::State& state) {
  Fixture fixture(1000);
  const std::vector<ItemId> candidates = CandidateItems(fixture.ctx);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApproxMeuStrategy::ScoreCandidates(
        fixture.ctx, candidates, /*impact_filter=*/nullptr, /*scan=*/nullptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(candidates.size()));
}
BENCHMARK(BM_ApproxMeuScoreCandidates)->Unit(benchmark::kMillisecond);

void BM_CollectNeighbors(benchmark::State& state) {
  Fixture fixture(2000);
  std::vector<ItemId> scratch;
  ItemId i = 0;
  for (auto _ : state) {
    fixture.graph->CollectNeighbors(i, &scratch);
    benchmark::DoNotOptimize(scratch.data());
    i = (i + 1) % static_cast<ItemId>(fixture.data.db.num_items());
  }
}
BENCHMARK(BM_CollectNeighbors);

}  // namespace

BENCHMARK_MAIN();
