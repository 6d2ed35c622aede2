// FeedbackSession with streaming ingestion: batches interleave with
// validation rounds, truth rows defer until their item arrives, and
// validated items stay pinned across epochs.
#include "core/session.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/oracle.h"
#include "core/strategy_factory.h"
#include "data/synthetic.h"
#include "fusion/accu.h"
#include "model/streaming_database.h"

namespace veritas {
namespace {

TEST(StreamingSessionTest, ConfigValidation) {
  StreamingDatabase stream{Database()};
  GroundTruth truth(stream.db());
  VectorFeed feed({}, {}, 8);
  AccuFusion model;
  auto strategy_or = MakeStrategy("qbc");
  ASSERT_TRUE(strategy_or.ok());
  PerfectOracle oracle;

  const auto run_with = [&](SessionOptions options) {
    FeedbackSession session(stream.db(), model, strategy_or.value().get(),
                            &oracle, truth, options, nullptr);
    return session.Run().status();
  };

  SessionOptions missing_feed;
  missing_feed.streaming.stream = &stream;
  missing_feed.streaming.truth = &truth;
  EXPECT_EQ(run_with(missing_feed).code(), StatusCode::kInvalidArgument);

  GroundTruth other_truth(stream.db());
  SessionOptions wrong_truth;
  wrong_truth.streaming.stream = &stream;
  wrong_truth.streaming.feed = &feed;
  wrong_truth.streaming.truth = &other_truth;  // Does not alias `truth`.
  EXPECT_EQ(run_with(wrong_truth).code(), StatusCode::kInvalidArgument);

  SessionOptions with_checkpoint;
  with_checkpoint.streaming.stream = &stream;
  with_checkpoint.streaming.feed = &feed;
  with_checkpoint.streaming.truth = &truth;
  with_checkpoint.checkpoint_path = "/tmp/never-written.ckpt";
  EXPECT_EQ(run_with(with_checkpoint).code(), StatusCode::kInvalidArgument);
}

TEST(StreamingSessionTest, InterleavesIngestWithValidation) {
  DenseConfig config;
  config.num_items = 60;
  config.num_sources = 15;
  config.seed = 23;
  config.emit_stream = true;
  const SyntheticDataset data = GenerateDense(config);

  StreamingDatabase stream{Database()};
  GroundTruth truth(stream.db());
  VectorFeed feed(data.stream, data.truth_stream, /*batch_size=*/48);
  AccuFusion model;
  auto strategy_or = MakeStrategy("qbc");
  ASSERT_TRUE(strategy_or.ok());
  PerfectOracle oracle;
  Rng rng(5);

  SessionOptions options;
  options.max_validations = 8;
  options.streaming.stream = &stream;
  options.streaming.feed = &feed;
  options.streaming.truth = &truth;
  // The perfect oracle hard-fails on unknown truth; streamed items must wait
  // for their truth row instead of aborting the run.
  options.streaming.require_known_truth = true;

  FeedbackSession session(stream.db(), model, strategy_or.value().get(),
                          &oracle, truth, options, &rng);
  auto trace_or = session.Run();
  ASSERT_TRUE(trace_or.ok()) << trace_or.status();
  const SessionTrace trace = trace_or.value();

  EXPECT_EQ(trace.steps.back().num_validated, 8u);
  EXPECT_GT(trace.ingest_batches, 0u);
  EXPECT_GT(trace.ingested_observations, 0u);
  EXPECT_GT(trace.truths_applied, 0u);
  EXPECT_GT(trace.final_epoch, 0u);
  // Validated pins survived every epoch: each validated item still carries
  // a full-size prior in the final trace.
  for (const SessionStep& step : trace.steps) {
    for (ItemId item : step.items) {
      ASSERT_TRUE(trace.priors.Has(item));
      EXPECT_EQ(trace.priors.Get(item).size(), stream.db().num_claims(item));
    }
  }
  ASSERT_TRUE(trace.final_fusion.AllFinite());
}

TEST(StreamingSessionTest, TruthArrivingBeforeItsItemIsDeferredThenApplied) {
  std::vector<StreamObservation> obs = {
      {"s1", "o1", "a", 0.10}, {"s2", "o1", "b", 0.20},
      {"s1", "o2", "x", 0.30}, {"s2", "o2", "y", 0.40}};
  // o2's truth is disclosed before o2 has any observations: it must ride
  // batch 1, sit deferred, and land after batch 2 brings the item in.
  std::vector<StreamTruth> truths = {{"o2", "x", 0.05}, {"o1", "a", 0.15}};

  StreamingDatabase stream{Database()};
  GroundTruth truth(stream.db());
  VectorFeed feed(obs, truths, /*batch_size=*/2);
  AccuFusion model;
  auto strategy_or = MakeStrategy("qbc");
  ASSERT_TRUE(strategy_or.ok());
  PerfectOracle oracle;

  SessionOptions options;
  options.streaming.stream = &stream;
  options.streaming.feed = &feed;
  options.streaming.truth = &truth;
  options.streaming.require_known_truth = true;

  FeedbackSession session(stream.db(), model, strategy_or.value().get(),
                          &oracle, truth, options, nullptr);
  auto trace_or = session.Run();
  ASSERT_TRUE(trace_or.ok()) << trace_or.status();
  const SessionTrace trace = trace_or.value();

  EXPECT_EQ(trace.ingested_observations, 4u);
  EXPECT_EQ(trace.truths_applied, 2u);
  EXPECT_EQ(trace.truths_deferred, 0u);
  // Both conflicted items became validatable once their truth landed.
  EXPECT_EQ(trace.steps.back().num_validated, 2u);
  const auto o2 = stream.db().FindItem("o2");
  ASSERT_TRUE(o2.ok());
  EXPECT_TRUE(truth.Knows(o2.value()));
}

TEST(StreamingSessionTest, DistanceBaselineIsTakenOnceTruthIsKnown) {
  // The stream starts empty, so the state before the first tick has no
  // known truth to measure against. The baseline must come from the first
  // validating round instead, so the reported reduction is no longer 0.
  DenseConfig config;
  config.num_items = 300;
  config.num_sources = 40;
  config.seed = 42;
  config.emit_stream = true;
  config.revision_fraction = 0.02;
  const SyntheticDataset data = GenerateDense(config);

  StreamingDatabase stream{Database()};
  GroundTruth truth(stream.db());
  VectorFeed feed(data.stream, data.truth_stream, /*batch_size=*/64);
  AccuFusion model;
  auto strategy_or = MakeStrategy("qbc");
  ASSERT_TRUE(strategy_or.ok());
  PerfectOracle oracle;
  Rng rng(42);

  SessionOptions options;
  options.max_validations = 20;
  options.streaming.stream = &stream;
  options.streaming.feed = &feed;
  options.streaming.truth = &truth;
  options.streaming.require_known_truth = true;

  FeedbackSession session(stream.db(), model, strategy_or.value().get(),
                          &oracle, truth, options, &rng);
  auto trace_or = session.Run();
  ASSERT_TRUE(trace_or.ok()) << trace_or.status();
  const SessionTrace trace = trace_or.value();

  ASSERT_EQ(trace.steps.back().num_validated, 20u);
  EXPECT_GT(trace.initial_distance, 0.0);
  EXPECT_GT(trace.initial_uncertainty, 0.0);
  // No sign is asserted: truth rows keep arriving after the baseline, and
  // every newly known item adds to the distance.
  EXPECT_NE(trace.DistanceReductionPercent(trace.steps.size() - 1), 0.0);
}

}  // namespace
}  // namespace veritas
