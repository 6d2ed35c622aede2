// Tests of Approx-MEU (§4.2.3, Appendix A): the Eq. (9) accuracy deltas, the
// Eq. (10) differential estimates (closed form vs literal), the one-hop
// truncation, the strategy itself, and the scatter kernel behind
// ScoreCandidates against the per-neighbour reference scan.
#include "core/approx_meu.h"

#include <cmath>
#include <cstdint>
#include <utility>

#include <gtest/gtest.h>

#include "approx_meu_reference.h"
#include "core/meu.h"
#include "data/example_data.h"
#include "data/synthetic.h"
#include "fusion/accu.h"
#include "obs/metrics.h"

namespace veritas {
namespace {

class ApproxMeuTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fusion_ = model_.Fuse(db_, opts_);
    ctx_.db = &db_;
    ctx_.fusion = &fusion_;
    ctx_.priors = &priors_;
    ctx_.model = &model_;
    ctx_.fusion_opts = &opts_;
    ctx_.graph = &graph_;
    ctx_.include_singletons = true;
  }

  Database db_ = MakeMovieDatabase();
  AccuFusion model_;
  FusionOptions opts_ = PaperExampleFusionOptions();
  FusionResult fusion_;
  PriorSet priors_;
  ItemGraph graph_{db_};
  StrategyContext ctx_;
};

TEST_F(ApproxMeuTest, AccuracyDeltasFollowEq9) {
  // Validate O3 = Docter. S3 (votes Docter, N=4) gains (1-p)/4;
  // S2 (votes leFauve, N=3) loses p_leFauve/3.
  const ItemId o3 = *db_.FindItem("Inside Out");
  const ClaimIndex docter = *db_.FindClaim(o3, "Docter");
  const ClaimIndex lefauve = *db_.FindClaim(o3, "leFauve");
  const AccuracyDeltas deltas =
      ComputeAccuracyDeltas(db_, fusion_, o3, docter);
  ASSERT_EQ(deltas.size(), 2u);
  const SourceId s3 = *db_.FindSource("S3");
  const SourceId s2 = *db_.FindSource("S2");
  EXPECT_NEAR(deltas.at(s3), (1.0 - fusion_.prob(o3, docter)) / 4.0, 1e-12);
  EXPECT_NEAR(deltas.at(s2), -fusion_.prob(o3, lefauve) / 3.0, 1e-12);
}

TEST_F(ApproxMeuTest, AccuracyDeltasOnlyTouchVoters) {
  const ItemId dory = *db_.FindItem("Finding Dory");
  const AccuracyDeltas deltas = ComputeAccuracyDeltas(db_, fusion_, dory, 0);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_TRUE(deltas.count(*db_.FindSource("S4")));
}

TEST_F(ApproxMeuTest, FastAndLiteralEstimatesAgree) {
  // The closed form dp_r = p_r (g(r) - sum_v p_v g(v)) must match the
  // literal Eq. (10) ratio-of-products implementation.
  for (ItemId validated = 0; validated < db_.num_items(); ++validated) {
    for (ClaimIndex t = 0; t < db_.num_claims(validated); ++t) {
      const AccuracyDeltas deltas =
          ComputeAccuracyDeltas(db_, fusion_, validated, t);
      for (ItemId j = 0; j < db_.num_items(); ++j) {
        if (j == validated) continue;
        const auto fast = EstimateUpdatedProbs(db_, fusion_, j, deltas);
        const auto literal =
            EstimateUpdatedProbsLiteral(db_, fusion_, j, deltas);
        ASSERT_EQ(fast.size(), literal.size());
        for (std::size_t k = 0; k < fast.size(); ++k) {
          EXPECT_NEAR(fast[k], literal[k], 1e-6)
              << "validated=" << validated << " t=" << t << " j=" << j
              << " k=" << k;
        }
      }
    }
  }
}

TEST_F(ApproxMeuTest, FirstOrderChangesSumToZero) {
  // dp over an item's claims cancels: distributions stay normalized to
  // first order (before clamping).
  const ItemId o5 = *db_.FindItem("Minions");
  const AccuracyDeltas deltas = ComputeAccuracyDeltas(db_, fusion_, o5, 0);
  for (ItemId j = 0; j < db_.num_items(); ++j) {
    if (j == o5 || db_.num_claims(j) < 2) continue;
    const auto updated = EstimateUpdatedProbs(db_, fusion_, j, deltas);
    double before = 0.0, after = 0.0;
    for (ClaimIndex k = 0; k < db_.num_claims(j); ++k) {
      before += fusion_.prob(j, k);
      after += updated[k];
    }
    // Clamping can only bite when a probability leaves [0,1].
    EXPECT_NEAR(after, before, 0.05) << "item " << j;
  }
}

TEST_F(ApproxMeuTest, RewardedSourceClaimGainsProbability) {
  // Validating Howard on Zootopia rewards S2; S2's claim on Minions
  // (Renaud) must gain estimated probability.
  const ItemId zootopia = *db_.FindItem("Zootopia");
  const ClaimIndex howard = *db_.FindClaim(zootopia, "Howard");
  const AccuracyDeltas deltas =
      ComputeAccuracyDeltas(db_, fusion_, zootopia, howard);
  const ItemId minions = *db_.FindItem("Minions");
  const ClaimIndex renaud = *db_.FindClaim(minions, "Renaud");
  const auto updated = EstimateUpdatedProbs(db_, fusion_, minions, deltas);
  EXPECT_GT(updated[renaud], fusion_.prob(minions, renaud));
}

TEST_F(ApproxMeuTest, UnaffectedItemUnchanged) {
  // Validating Finding Dory (voter S4) cannot move Minions (voters S1, S2).
  const ItemId dory = *db_.FindItem("Finding Dory");
  const AccuracyDeltas deltas = ComputeAccuracyDeltas(db_, fusion_, dory, 0);
  const ItemId minions = *db_.FindItem("Minions");
  const auto updated = EstimateUpdatedProbs(db_, fusion_, minions, deltas);
  for (ClaimIndex k = 0; k < db_.num_claims(minions); ++k) {
    EXPECT_DOUBLE_EQ(updated[k], fusion_.prob(minions, k));
  }
}

TEST_F(ApproxMeuTest, EstimatesAreClampedProbabilities) {
  for (ItemId validated = 0; validated < db_.num_items(); ++validated) {
    for (ClaimIndex t = 0; t < db_.num_claims(validated); ++t) {
      const AccuracyDeltas deltas =
          ComputeAccuracyDeltas(db_, fusion_, validated, t);
      for (ItemId j = 0; j < db_.num_items(); ++j) {
        if (j == validated) continue;
        for (double p : EstimateUpdatedProbs(db_, fusion_, j, deltas)) {
          EXPECT_GE(p, 0.0);
          EXPECT_LE(p, 1.0);
        }
      }
    }
  }
}

TEST_F(ApproxMeuTest, SingletonValidationIsNeutral) {
  // Mirrors the MEU invariant: "validating" the already-certain O4 has an
  // expected entropy equal to the current one (its deltas are all zero
  // because 1 - p = 0).
  const ItemId dory = *db_.FindItem("Finding Dory");
  const double expected = ApproxMeuStrategy::ExpectedEntropyAfterValidation(
      ctx_, dory, nullptr);
  EXPECT_NEAR(expected, fusion_.TotalEntropy(), 1e-9);
}

TEST_F(ApproxMeuTest, PrefersWellConnectedDisputedItems) {
  // §1.1's motivation: validating Minions (disputed, touches most items via
  // S1/S2) beats validating nothing-at-stake items. The strategy must pick
  // a maximally disputed item, never O4.
  ApproxMeuStrategy strategy;
  const ItemId pick = strategy.SelectNext(ctx_);
  EXPECT_NE(pick, *db_.FindItem("Finding Dory"));
  EXPECT_TRUE(db_.HasConflict(pick));
}

TEST_F(ApproxMeuTest, ImpactFilterRestrictsPropagation) {
  // With an impact filter selecting nothing, only the validated item's own
  // entropy is considered.
  const ItemId o5 = *db_.FindItem("Minions");
  std::vector<bool> nothing(db_.num_items(), false);
  const double expected = ApproxMeuStrategy::ExpectedEntropyAfterValidation(
      ctx_, o5, &nothing);
  EXPECT_NEAR(expected, fusion_.TotalEntropy() - fusion_.ItemEntropy(o5),
              1e-9);
}

TEST_F(ApproxMeuTest, ScoreCandidatesMatchesPerItemComputation) {
  const std::vector<ItemId> candidates = {0, 1, 2, 3, 4, 5};
  const auto scores =
      ApproxMeuStrategy::ScoreCandidates(ctx_, candidates, nullptr);
  ASSERT_EQ(scores.size(), candidates.size());
  for (std::size_t idx = 0; idx < candidates.size(); ++idx) {
    const double expected =
        fusion_.TotalEntropy() -
        ApproxMeuStrategy::ExpectedEntropyAfterValidation(
            ctx_, candidates[idx], nullptr);
    EXPECT_NEAR(scores[idx], expected, 1e-9);
  }
}

TEST_F(ApproxMeuTest, PinnedNeighborsDoNotMove) {
  // A validated (pinned) neighbour's entropy contribution must not change.
  const ItemId minions = *db_.FindItem("Minions");
  ASSERT_TRUE(priors_.SetExact(db_, minions, 0).ok());
  FusionResult updated = model_.Fuse(db_, priors_, opts_);
  ctx_.fusion = &updated;
  // Validate Zootopia=Howard; Minions is a neighbour via S2 but is pinned.
  const ItemId zootopia = *db_.FindItem("Zootopia");
  const double expected = ApproxMeuStrategy::ExpectedEntropyAfterValidation(
      ctx_, zootopia, nullptr);
  // Recompute manually excluding the pinned item from the impact set.
  std::vector<bool> filter(db_.num_items(), true);
  filter[minions] = false;
  const double filtered = ApproxMeuStrategy::ExpectedEntropyAfterValidation(
      ctx_, zootopia, &filter);
  EXPECT_NEAR(expected, filtered, 1e-12);
}

TEST_F(ApproxMeuTest, TheoremDecayOneHopSmallerThanValidated) {
  // Theorem 4.1 sanity check on synthetic dense data: the average absolute
  // first-order change of neighbours is much smaller than the change of the
  // validated item itself.
  DenseConfig config;
  config.num_items = 80;
  config.num_sources = 12;
  config.density = 0.6;
  config.seed = 3;
  const SyntheticDataset data = GenerateDense(config);
  AccuFusion model;
  const FusionResult fusion = model.Fuse(data.db, FusionOptions{});

  double max_neighbor_change = 0.0;
  double validated_change = 0.0;
  const ItemId target = data.db.ConflictingItems().front();
  const ClaimIndex t = fusion.WinningClaim(target) == 0 ? 1 : 0;
  validated_change = 1.0 - fusion.prob(target, t);
  const AccuracyDeltas deltas =
      ComputeAccuracyDeltas(data.db, fusion, target, t);
  for (ItemId j = 0; j < data.db.num_items(); ++j) {
    if (j == target) continue;
    const auto updated = EstimateUpdatedProbs(data.db, fusion, j, deltas);
    for (ClaimIndex k = 0; k < data.db.num_claims(j); ++k) {
      max_neighbor_change = std::max(
          max_neighbor_change, std::fabs(updated[k] - fusion.prob(j, k)));
    }
  }
  EXPECT_LT(max_neighbor_change, validated_change);
}

TEST_F(ApproxMeuTest, Name) {
  EXPECT_EQ(ApproxMeuStrategy().name(), "approx_meu");
}

TEST_F(ApproxMeuTest, CountsNeighborUpdatesOncePerCall) {
  // strategy.approx_meu.neighbor_updates counts the (candidate, hypothesis,
  // neighbour) estimates: hypotheses with p_t > 0 times the unpinned
  // multi-claim one-hop neighbours.
  Counter* counter = MetricsRegistry::Global().GetCounter(
      "strategy.approx_meu.neighbor_updates");
  const std::vector<ItemId> candidates = {0, 1, 2, 3, 4, 5};
  std::uint64_t expected = 0;
  std::vector<ItemId> neighbors;
  for (const ItemId i : candidates) {
    std::uint64_t hypotheses = 0;
    for (ClaimIndex t = 0; t < db_.num_claims(i); ++t) {
      if (fusion_.prob(i, t) > 0.0) ++hypotheses;
    }
    graph_.CollectNeighbors(i, &neighbors);
    std::uint64_t eligible = 0;
    for (const ItemId j : neighbors) {
      if (!priors_.Has(j) && db_.num_claims(j) > 1) ++eligible;
    }
    expected += hypotheses * eligible;
  }
  ASSERT_GT(expected, 0u);
  const std::uint64_t before = counter->value();
  ApproxMeuStrategy::ScoreCandidates(ctx_, candidates, nullptr);
  EXPECT_EQ(counter->value() - before, expected);
}

// ---------- Scatter kernel vs. the per-neighbour reference scan ----------

// A synthetic snapshot fused by Accu, with `pins` conflicting items
// validated, and a strategy context over it.
struct ScatterCase {
  explicit ScatterCase(SyntheticDataset dataset, std::size_t pins = 0)
      : data(std::move(dataset)), graph(data.db) {
    const std::vector<ItemId> conflicting = data.db.ConflictingItems();
    for (std::size_t k = 0; k < pins; ++k) {
      const ItemId item = conflicting[k * conflicting.size() / pins];
      EXPECT_TRUE(priors.SetExact(data.db, item, 0).ok());
    }
    fusion = model.Fuse(data.db, priors, opts);
    ctx.db = &data.db;
    ctx.fusion = &fusion;
    ctx.priors = &priors;
    ctx.model = &model;
    ctx.fusion_opts = &opts;
    ctx.graph = &graph;
  }

  SyntheticDataset data;
  AccuFusion model;
  FusionOptions opts;
  PriorSet priors;
  FusionResult fusion;
  ItemGraph graph;
  StrategyContext ctx;
};

SyntheticDataset Dense(std::size_t items, std::size_t max_false_claims,
                       std::uint64_t seed) {
  DenseConfig config;
  config.num_items = items;
  config.num_sources = 38;
  config.density = 0.36;
  config.copier_fraction = 0.2;
  config.max_false_claims = max_false_claims;
  config.seed = seed;
  return GenerateDense(config);
}

SyntheticDataset LongTail(std::uint64_t seed) {
  LongTailConfig config;
  config.num_items = 600;
  config.num_sources = 150;
  config.avg_votes_per_item = 8.0;
  config.max_false_claims = 2;
  config.seed = seed;
  return GenerateLongTail(config);
}

// Exact double equality, slot by slot.
void ExpectBitIdentical(const std::vector<double>& actual,
                        const std::vector<double>& reference) {
  ASSERT_EQ(actual.size(), reference.size());
  for (std::size_t k = 0; k < actual.size(); ++k) {
    EXPECT_EQ(actual[k], reference[k]) << "candidate slot " << k;
  }
}

TEST(ApproxMeuScatterTest, DenseTwoClaimsMatchesReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    const ScatterCase c(Dense(400, 1, seed));
    const std::vector<ItemId> candidates = CandidateItems(c.ctx);
    ASSERT_GT(candidates.size(), 100u);
    ExpectBitIdentical(
        ApproxMeuStrategy::ScoreCandidates(c.ctx, candidates, nullptr),
        ReferenceScores(c.ctx, candidates, nullptr));
  }
}

TEST(ApproxMeuScatterTest, DenseManyFalseClaimsMatchesReference) {
  const ScatterCase c(Dense(300, 4, 5));
  const std::vector<ItemId> candidates = CandidateItems(c.ctx);
  ExpectBitIdentical(
      ApproxMeuStrategy::ScoreCandidates(c.ctx, candidates, nullptr),
      ReferenceScores(c.ctx, candidates, nullptr));
}

TEST(ApproxMeuScatterTest, LongTailMatchesReference) {
  const ScatterCase c(LongTail(11));
  const std::vector<ItemId> candidates = CandidateItems(c.ctx);
  ASSERT_FALSE(candidates.empty());
  ExpectBitIdentical(
      ApproxMeuStrategy::ScoreCandidates(c.ctx, candidates, nullptr),
      ReferenceScores(c.ctx, candidates, nullptr));
}

TEST(ApproxMeuScatterTest, PinnedNeighborsMatchReference) {
  const ScatterCase c(Dense(300, 2, 7), /*pins=*/25);
  ASSERT_EQ(c.priors.size(), 25u);
  const std::vector<ItemId> candidates = CandidateItems(c.ctx);
  ExpectBitIdentical(
      ApproxMeuStrategy::ScoreCandidates(c.ctx, candidates, nullptr),
      ReferenceScores(c.ctx, candidates, nullptr));
}

TEST(ApproxMeuScatterTest, ImpactFilterMatchesReference) {
  // The hybrid strategy's use: candidates and impact set are one subset.
  const ScatterCase c(Dense(300, 1, 9), /*pins=*/5);
  std::vector<bool> filter(c.data.db.num_items(), false);
  std::vector<ItemId> candidates;
  for (const ItemId i : CandidateItems(c.ctx)) {
    if (i % 3 == 0) continue;
    filter[i] = true;
    candidates.push_back(i);
  }
  ExpectBitIdentical(
      ApproxMeuStrategy::ScoreCandidates(c.ctx, candidates, &filter),
      ReferenceScores(c.ctx, candidates, &filter));
}

TEST(ApproxMeuScatterTest, NeedsNoItemGraph) {
  const ScatterCase c(Dense(200, 1, 4));
  StrategyContext no_graph = c.ctx;
  no_graph.graph = nullptr;
  const std::vector<ItemId> candidates = CandidateItems(c.ctx);
  ExpectBitIdentical(
      ApproxMeuStrategy::ScoreCandidates(no_graph, candidates, nullptr),
      ReferenceScores(c.ctx, candidates, nullptr));
}

}  // namespace
}  // namespace veritas
