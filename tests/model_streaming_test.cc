// Streaming ingestion: epoch-stamped in-place view rebuilds
// (model/streaming_database) plus the synthetic stream generator that feeds
// them. The structural invariant under test everywhere: the view a stream
// keeps after its appends is identical to a fresh CompiledDatabase over the
// same Database.
#include "model/streaming_database.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset_stats.h"
#include "data/synthetic.h"
#include "model/compiled_database.h"
#include "model/database.h"
#include "model/database_builder.h"

namespace veritas {
namespace {

StreamObservation Obs(const std::string& source, const std::string& item,
                      const std::string& value, double ts = 0.0) {
  return StreamObservation{source, item, value, ts};
}

IngestBatch BatchOf(std::vector<StreamObservation> obs) {
  IngestBatch batch;
  batch.observations = std::move(obs);
  return batch;
}

/// Asserts that `view` is identical to a freshly compiled view of `db`:
/// same counts, same global claim ids, same CSR arrays entry for entry.
void ExpectViewMatchesFresh(const CompiledDatabase& view, const Database& db) {
  const CompiledDatabase fresh(db);
  ASSERT_EQ(view.num_items(), fresh.num_items());
  ASSERT_EQ(view.num_sources(), fresh.num_sources());
  ASSERT_EQ(view.num_claims(), fresh.num_claims());
  ASSERT_EQ(view.num_observations(), fresh.num_observations());
  EXPECT_EQ(view.claim_sources(), fresh.claim_sources());
  EXPECT_EQ(view.item_vote_sources(), fresh.item_vote_sources());
  EXPECT_EQ(view.item_vote_claims(), fresh.item_vote_claims());
  EXPECT_EQ(view.source_vote_items(), fresh.source_vote_items());
  EXPECT_EQ(view.source_vote_claims(), fresh.source_vote_claims());

  for (ItemId i = 0; i < db.num_items(); ++i) {
    ASSERT_EQ(view.item_num_claims(i), db.num_claims(i)) << "item " << i;
    ASSERT_EQ(view.claim_offset(i), fresh.claim_offset(i)) << "item " << i;
    EXPECT_EQ(view.log_false_values(i), fresh.log_false_values(i))
        << "item " << i;
    EXPECT_EQ(view.item_votes_begin(i), fresh.item_votes_begin(i));
    EXPECT_EQ(view.item_votes_end(i), fresh.item_votes_end(i));
    for (std::size_t k = 0; k < db.num_claims(i); ++k) {
      const std::uint32_t g = view.claim_offset(i) + k;
      EXPECT_EQ(view.claim_sources_begin(g), fresh.claim_sources_begin(g))
          << "item " << i << " claim " << k;
      EXPECT_EQ(view.claim_sources_end(g), fresh.claim_sources_end(g))
          << "item " << i << " claim " << k;
      EXPECT_EQ(view.claim_num_sources(g), db.item(i).claims[k].sources.size())
          << "item " << i << " claim " << k;
    }
  }
  for (SourceId j = 0; j < db.num_sources(); ++j) {
    EXPECT_EQ(view.source_votes_begin(j), fresh.source_votes_begin(j));
    EXPECT_EQ(view.source_votes_end(j), fresh.source_votes_end(j));
    EXPECT_EQ(view.source_degree(j), db.source_degree(j)) << "source " << j;
  }
}

Database SeedDb() {
  DatabaseBuilder builder;
  EXPECT_TRUE(builder.AddObservation("s1", "o1", "a").ok());
  EXPECT_TRUE(builder.AddObservation("s2", "o1", "b").ok());
  EXPECT_TRUE(builder.AddObservation("s1", "o2", "x").ok());
  return builder.Build();
}

TEST(StreamingDatabaseTest, AppendBatchCountsAndDirtySets) {
  StreamingDatabase stream(SeedDb());
  EXPECT_EQ(stream.epoch(), 0u);
  const CompiledDatabase* view = &stream.compiled();

  const auto stats_or = stream.AppendBatch(BatchOf({
      Obs("s3", "o1", "a"),   // fresh vote, new source
      Obs("s1", "o1", "a"),   // duplicate (s1 already votes a)
      Obs("s2", "o1", "a"),   // revision: s2 moves b -> a
      Obs("s4", "o3", "z"),   // new source, new item, new claim
  }));
  ASSERT_TRUE(stats_or.ok()) << stats_or.status();
  const IngestStats stats = stats_or.value();
  EXPECT_EQ(stats.fresh, 2u);
  EXPECT_EQ(stats.duplicates, 1u);
  EXPECT_EQ(stats.revisions, 1u);
  EXPECT_EQ(stats.new_items, 1u);
  EXPECT_EQ(stats.new_sources, 2u);
  EXPECT_EQ(stats.new_claims, 1u);
  // One structural batch: one in-place rebuild, one epoch.
  EXPECT_EQ(stream.epoch(), 1u);
  EXPECT_EQ(&stream.compiled(), view);

  std::vector<ItemId> dirty_items;
  std::vector<SourceId> dirty_sources;
  stream.TakeDirty(&dirty_items, &dirty_sources);
  // o1 and o3 changed; o2 did not. Duplicates dirty nothing.
  const auto o1 = stream.db().FindItem("o1");
  const auto o3 = stream.db().FindItem("o3");
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o3.ok());
  EXPECT_EQ(dirty_items,
            (std::vector<ItemId>{o1.value(), o3.value()}));
  EXPECT_EQ(dirty_sources.size(), 3u);  // s2 (revised), s3, s4.

  // TakeDirty clears.
  stream.TakeDirty(&dirty_items, &dirty_sources);
  EXPECT_TRUE(dirty_items.empty());
  EXPECT_TRUE(dirty_sources.empty());

  ExpectViewMatchesFresh(stream.compiled(), stream.db());
}

TEST(StreamingDatabaseTest, PureDuplicateBatchKeepsEpoch) {
  StreamingDatabase stream(SeedDb());
  const auto stats_or =
      stream.AppendBatch(BatchOf({Obs("s1", "o1", "a"), Obs("s1", "o2", "x")}));
  ASSERT_TRUE(stats_or.ok());
  EXPECT_EQ(stats_or.value().duplicates, 2u);
  // No structural change: derived positional state must stay valid.
  EXPECT_EQ(stream.epoch(), 0u);
  ExpectViewMatchesFresh(stream.compiled(), stream.db());
}

TEST(StreamingDatabaseTest, EmptyNamesRejected) {
  StreamingDatabase stream(SeedDb());
  EXPECT_EQ(stream.AppendBatch(BatchOf({Obs("", "o1", "a")})).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(stream.AppendBatch(BatchOf({Obs("s1", "", "a")})).status().code(),
            StatusCode::kInvalidArgument);
  // A malformed row anywhere rejects the whole batch before any of it lands.
  const std::size_t obs_before = stream.db().num_observations();
  EXPECT_EQ(stream
                .AppendBatch(BatchOf({Obs("s3", "o1", "a"), Obs("s3", "o2", "")}))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(stream.db().num_observations(), obs_before);
  EXPECT_EQ(stream.epoch(), 0u);
  ExpectViewMatchesFresh(stream.compiled(), stream.db());
}

TEST(StreamingDatabaseTest, CheckEpochFailsLoudlyOnStaleViews) {
  StreamingDatabase stream(SeedDb());
  const std::uint64_t before = stream.epoch();
  EXPECT_TRUE(stream.compiled().CheckEpoch(before).ok());
  ASSERT_TRUE(stream.AppendBatch(BatchOf({Obs("s9", "o1", "a")})).ok());
  const Status stale = stream.compiled().CheckEpoch(before);
  EXPECT_EQ(stale.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(stream.compiled().CheckEpoch(stream.epoch()).ok());
}

TEST(StreamingDatabaseTest, RevisionChainsStayConsistent) {
  // Repeated last-write-wins flips across batches, including revising an
  // appended vote and revising back to the original claim. Every batch is
  // structural, so each one bumps the epoch exactly once.
  StreamingDatabase stream(SeedDb());
  const std::vector<StreamObservation> flips = {
      Obs("s3", "o1", "c"), Obs("s3", "o1", "a"), Obs("s2", "o1", "a"),
      Obs("s2", "o1", "b")};
  std::uint64_t epoch = stream.epoch();
  for (const StreamObservation& obs : flips) {
    ASSERT_TRUE(stream.AppendBatch(BatchOf({obs})).ok());
    EXPECT_EQ(stream.epoch(), ++epoch);
    ExpectViewMatchesFresh(stream.compiled(), stream.db());
  }
  EXPECT_EQ(stream.totals().revisions, 3u);
}

TEST(VectorFeedTest, TruthRowsRideTheBatchWhoseHorizonReachesThem) {
  std::vector<StreamObservation> obs = {
      Obs("s1", "o1", "a", 0.1), Obs("s2", "o1", "b", 0.2),
      Obs("s1", "o2", "x", 0.3), Obs("s2", "o2", "y", 0.4)};
  std::vector<StreamTruth> truths = {{"o2", "y", 0.35},
                                     {"o1", "a", 0.15},
                                     {"o9", "z", 0.9}};
  VectorFeed feed(obs, truths, /*batch_size=*/2);

  IngestBatch b1;
  ASSERT_TRUE(feed.Next(&b1));
  ASSERT_EQ(b1.observations.size(), 2u);
  ASSERT_EQ(b1.truths.size(), 1u);  // Horizon 0.2 reaches the 0.15 row.
  EXPECT_EQ(b1.truths[0].item, "o1");

  IngestBatch b2;
  ASSERT_TRUE(feed.Next(&b2));
  ASSERT_EQ(b2.observations.size(), 2u);
  // Final batch: the 0.35 row (within horizon 0.4) plus the 0.9 leftover.
  ASSERT_EQ(b2.truths.size(), 2u);
  EXPECT_EQ(b2.truths[0].item, "o2");
  EXPECT_EQ(b2.truths[1].item, "o9");

  IngestBatch b3;
  EXPECT_FALSE(feed.Next(&b3));
}

TEST(SyntheticStreamTest, EmitStreamDoesNotPerturbTheDataset) {
  DenseConfig config;
  config.num_items = 40;
  config.num_sources = 12;
  config.seed = 7;
  const SyntheticDataset plain = GenerateDense(config);
  config.emit_stream = true;
  const SyntheticDataset streamed = GenerateDense(config);

  EXPECT_TRUE(plain.stream.empty());
  ASSERT_EQ(streamed.stream.size(), streamed.db.num_observations());
  ASSERT_EQ(plain.db.num_observations(), streamed.db.num_observations());
  ASSERT_EQ(plain.db.num_items(), streamed.db.num_items());
  ASSERT_EQ(plain.db.num_claims(), streamed.db.num_claims());
  EXPECT_FALSE(streamed.truth_stream.empty());
  // Timestamps preserve emission order strictly.
  for (std::size_t k = 1; k < streamed.stream.size(); ++k) {
    EXPECT_LT(streamed.stream[k - 1].timestamp, streamed.stream[k].timestamp);
  }
}

TEST(SyntheticStreamTest, ReplayReproducesTheBatchBuiltDatabase) {
  LongTailConfig config;
  config.num_items = 60;
  config.num_sources = 15;
  config.seed = 11;
  config.emit_stream = true;
  config.revision_fraction = 0.05;
  const SyntheticDataset data = GenerateLongTail(config);
  ASSERT_GT(data.stream.size(), data.db.num_observations());

  StreamingDatabase stream{Database()};
  VectorFeed feed(data.stream, {}, /*batch_size=*/37);
  IngestBatch batch;
  while (feed.Next(&batch)) {
    ASSERT_TRUE(stream.AppendBatch(batch).ok());
  }
  EXPECT_GT(stream.totals().revisions + stream.totals().duplicates, 0u);

  const Database& replayed = stream.db();
  ASSERT_EQ(replayed.num_items(), data.db.num_items());
  ASSERT_EQ(replayed.num_sources(), data.db.num_sources());
  ASSERT_EQ(replayed.num_claims(), data.db.num_claims());
  ASSERT_EQ(replayed.num_observations(), data.db.num_observations());
  // Identical ids: replay in timestamp order interns names in the same
  // order the batch builder saw them.
  for (ItemId i = 0; i < data.db.num_items(); ++i) {
    EXPECT_EQ(replayed.item(i).name, data.db.item(i).name);
    ASSERT_EQ(replayed.num_claims(i), data.db.num_claims(i));
    for (std::size_t k = 0; k < data.db.num_claims(i); ++k) {
      EXPECT_EQ(replayed.item(i).claims[k].value,
                data.db.item(i).claims[k].value);
      EXPECT_EQ(replayed.item(i).claims[k].sources,
                data.db.item(i).claims[k].sources);
    }
  }
  for (SourceId j = 0; j < data.db.num_sources(); ++j) {
    EXPECT_EQ(replayed.source(j).name, data.db.source(j).name);
    EXPECT_EQ(replayed.source(j).votes.size(), data.db.source(j).votes.size());
  }
  ExpectViewMatchesFresh(stream.compiled(), replayed);
}

TEST(DatasetStatsTest, TruthReportFoldsIntoStats) {
  const Database db = SeedDb();
  TruthLoadReport report;
  report.truth = GroundTruth(db);
  report.applied = 1;
  report.unknown_item = 2;
  report.unknown_claim = 3;
  const DatasetStats stats = ComputeStats(db, report);
  EXPECT_TRUE(stats.has_truth);
  EXPECT_EQ(stats.truth_applied, 1u);
  EXPECT_EQ(stats.truth_unknown_item, 2u);
  EXPECT_EQ(stats.truth_unknown_claim, 3u);
  // The plain overload reports no truth.
  EXPECT_FALSE(ComputeStats(db).has_truth);
}

}  // namespace
}  // namespace veritas
