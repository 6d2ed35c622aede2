#include "sessions.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "core/metrics.h"
#include "core/oracle.h"
#include "core/session.h"
#include "core/session_checkpoint.h"
#include "core/strategy_factory.h"
#include "fusion/delta_fusion.h"
#include "fusion/fusion_factory.h"
#include "model/item_graph.h"
#include "model/streaming_database.h"
#include "record.h"

namespace perfbench {

using veritas::Database;
using veritas::FusionResult;
using veritas::ItemId;

namespace {

class TimedStrategy : public veritas::Strategy {
 public:
  explicit TimedStrategy(veritas::Strategy* inner) : inner_(inner) {}
  std::string name() const override { return inner_->name(); }
  void Reset() override { inner_->Reset(); }
  std::vector<ItemId> SelectBatch(const veritas::StrategyContext& ctx,
                                  std::size_t batch) override {
    entries.push_back(Now());
    std::vector<ItemId> out = inner_->SelectBatch(ctx, batch);
    picked.push_back(out.size());
    selections.insert(selections.end(), out.begin(), out.end());
    return out;
  }

  std::vector<double> entries;
  std::vector<std::size_t> picked;
  std::vector<std::uint32_t> selections;

 private:
  veritas::Strategy* inner_;
};

class TimedFeed : public veritas::ObservationFeed {
 public:
  explicit TimedFeed(veritas::ObservationFeed* inner) : inner_(inner) {}
  bool Next(veritas::IngestBatch* out) override {
    const bool got = inner_->Next(out);
    if (got) {
      receipts.push_back(Now());
      sizes.push_back(out->observations.size());
    }
    return got;
  }

  std::vector<double> receipts;
  std::vector<std::size_t> sizes;

 private:
  veritas::ObservationFeed* inner_;
};

/// The stream a streaming session replays, in timestamp order.
veritas::VectorFeed MakeFeed(const veritas::SyntheticDataset& data) {
  std::vector<veritas::StreamObservation> stream = data.stream;
  std::stable_sort(stream.begin(), stream.end(),
                   [](const veritas::StreamObservation& a,
                      const veritas::StreamObservation& b) {
                     return a.timestamp < b.timestamp;
                   });
  return veritas::VectorFeed(std::move(stream), data.truth_stream, kBatchObs);
}

veritas::FusionOptions SessionFusionOptions() {
  veritas::FusionOptions opts;
  opts.use_delta_fusion = true;
  return opts;
}

std::unique_ptr<veritas::FusionModel> Accu() {
  return std::move(veritas::MakeFusionModel("accu")).value();
}

/// Lookaheads counted by the strategies a workload session can use.
std::uint64_t Lookaheads() {
  return CounterValue("strategy.meu.lookaheads") +
         CounterValue("strategy.approx_meu.lookaheads");
}

// Table-11 probe: one SelectBatch per strategy from the same fused state,
// recorded as spans named "core.select.<strategy>". The MEU step's
// lookahead and pruning counts go to `out` as well.
void Table11Probe(const Database& db, const FusionResult& fusion,
                  const veritas::PriorSet& priors,
                  const veritas::DeltaFusionEngine* delta,
                  const veritas::ItemGraph& graph, SpanRecorder* spans,
                  ReplayExtras* out) {
  auto model = Accu();
  const veritas::FusionOptions fusion_opts = SessionFusionOptions();
  veritas::Rng rng(1);
  Scope probe(spans, "probe.table11", "table11");
  for (const char* name : {"qbc", "us", "approx_meu", "meu"}) {
    auto strategy =
        std::move(veritas::MakeStrategy(name, kScanThreads)).value();
    veritas::StrategyContext ctx;
    ctx.db = &db;
    ctx.fusion = &fusion;
    ctx.priors = &priors;
    ctx.model = model.get();
    ctx.fusion_opts = &fusion_opts;
    ctx.graph = &graph;
    ctx.rng = &rng;
    ctx.delta = delta;
    const std::uint64_t lookaheads = CounterValue("strategy.meu.lookaheads");
    const std::uint64_t pruned = CounterValue("meu.candidates_pruned");
    const double start = Now();
    {
      Scope s(spans, std::string("core.select.") + name, "table11");
      strategy->SelectBatch(ctx, 1);
    }
    out->select_by_strategy[name] = Now() - start;
    if (std::string(name) == "meu") {
      out->probe_meu_lookaheads =
          CounterValue("strategy.meu.lookaheads") - lookaheads;
      out->probe_meu_pruned = CounterValue("meu.candidates_pruned") - pruned;
    }
  }
}

// CompactIfNeeded under a span named for what it did: "model.compaction"
// when the tail was folded, "model.compaction_check" when it was not.
bool TimedCompaction(veritas::StreamingDatabase* stream, SpanRecorder* spans,
                     std::int64_t parent, const std::string& sid) {
  const double start = Now();
  const bool compacted = stream->CompactIfNeeded();
  if (spans != nullptr) {
    spans->Add(compacted ? "model.compaction" : "model.compaction_check", sid,
               start, Now(), parent);
  }
  return compacted;
}

}  // namespace

veritas::Result<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.spec.name = name;
  w.spec.seed = seed;
  if (name == "expert_dense") {
    // FlightsDay-like dense snapshot (paper Table 10).
    w.spec.shape = "dense";
    w.spec.num_items = 1000;
    w.spec.num_sources = 38;
    w.spec.params = {{"density", "0.36"}, {"copier_fraction", "0.5"}};
    w.strategy = "approx_meu";
    w.budget = 10;
    w.datasets = 5;
    w.tail_percentile = 80;  // 5 sessions x 10 rounds in the first pass.
  } else if (name == "stream_ingest") {
    w.spec.shape = "dense";
    w.spec.num_items = 5000;
    w.spec.num_sources = 38;
    w.spec.params = {{"density", "0.36"},
                     {"emit_stream", "true"},
                     {"revision_fraction", "0.1"}};
    w.strategy = "us";
    w.budget = 100;
    w.checkpoint = false;  // Streaming sessions do not checkpoint.
    w.streaming = true;
    // Round cost follows how fast the 38 sources' accuracies converge,
    // which differs a lot between streams; sixteen per run average it out.
    w.datasets = 16;
    w.tail_percentile = 90;  // 100 rounds in every session.
  } else {
    return veritas::Status::InvalidArgument("unknown workload: " + name);
  }
  return w;
}

Workload DatasetFor(const Workload& w, std::size_t k) {
  Workload out = w;
  out.spec.seed = w.spec.seed + k * 1000003;
  return out;
}

std::string DescribeSpec(const veritas::DatasetSpec& spec) {
  std::map<std::string, std::string> params(spec.params.begin(),
                                            spec.params.end());
  JsonObject p;
  for (const auto& [key, value] : params) p.Add(key, value);
  JsonObject out;
  out.Add("name", spec.name)
      .Add("shape", spec.shape)
      .Add("num_items", spec.num_items)
      .Add("num_sources", spec.num_sources)
      .Add("seed", static_cast<std::uint64_t>(spec.seed))
      .AddRaw("params", p.ToString());
  return out.ToString();
}

std::string DescribeReport(const veritas::GenerationReport& report) {
  JsonObject out;
  out.Add("generator", report.generator)
      .Add("dataset_name", report.dataset_name)
      .Add("num_items", report.num_items)
      .Add("num_sources", report.num_sources)
      .Add("num_observations", report.num_observations)
      .Add("contested_items", report.contested_items)
      .Add("max_source_coverage", report.max_source_coverage);
  return out.ToString();
}

double SessionResult::DistanceGainPct() const {
  if (initial_distance == 0.0) return 0.0;
  return (initial_distance - final_distance) / initial_distance * 100.0;
}

SessionResult RunSession(const Workload& w,
                         const veritas::SyntheticDataset& data,
                         const std::string& dir) {
  SessionResult result;
  auto model = Accu();
  auto inner =
      std::move(veritas::MakeStrategy(w.strategy, kScanThreads)).value();
  TimedStrategy strategy(inner.get());
  veritas::PerfectOracle oracle;
  veritas::Rng rng(w.spec.seed);

  veritas::SessionOptions options;
  options.fusion = SessionFusionOptions();
  options.max_validations = w.budget;
  std::filesystem::create_directories(dir);
  if (w.checkpoint) {
    options.checkpoint_path = dir + "/session.ckpt";
    options.checkpoint_every_rounds = 1;
  }

  std::optional<veritas::StreamingDatabase> stream;
  std::optional<veritas::GroundTruth> stream_truth;
  std::optional<veritas::VectorFeed> feed;
  std::optional<TimedFeed> timed_feed;
  const Database* db = &data.db;
  const veritas::GroundTruth* truth = &data.truth;
  if (w.streaming) {
    stream.emplace(Database());
    stream_truth.emplace(stream->db());
    feed.emplace(MakeFeed(data));
    timed_feed.emplace(&*feed);
    options.streaming.stream = &*stream;
    options.streaming.feed = &*timed_feed;
    options.streaming.truth = &*stream_truth;
    options.streaming.require_known_truth = true;
    db = &stream->db();
    truth = &*stream_truth;
  }

  veritas::FeedbackSession session(*db, *model, &strategy, &oracle, *truth,
                                   options, &rng);
  const double start = Now();
  auto trace = session.Run();
  const double end = Now();
  result.loop_seconds = end - start;
  std::filesystem::remove_all(dir);
  result.status = trace.status();
  if (!trace.ok()) return result;
  if (w.streaming) {
    // A stream starts empty, so its gain is measured against the same final
    // database fused without any feedback.
    const FusionResult unvalidated =
        model->Fuse(*db, veritas::PriorSet(), options.fusion);
    trace->initial_distance =
        veritas::DistanceToGroundTruth(*db, unvalidated, *truth);
  }

  result.selections = std::move(strategy.selections);
  const std::vector<double>& entries = strategy.entries;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    if (strategy.picked[k] == 0) continue;  // Stream waited for truth rows.
    const double next = k + 1 < entries.size() ? entries[k + 1] : end;
    result.rounds.push_back(next - entries[k]);
  }
  if (timed_feed) {
    std::size_t e = 0;
    for (std::size_t b = 0; b < timed_feed->receipts.size(); ++b) {
      const double receipt = timed_feed->receipts[b];
      while (e < entries.size() && entries[e] < receipt) ++e;
      if (e == entries.size()) break;  // Not folded before the run ended.
      result.staleness.push_back(entries[e] - receipt);
      result.ingested += timed_feed->sizes[b];
    }
  }
  result.validations =
      trace->steps.empty() ? 0 : trace->steps.back().num_validated;
  result.initial_distance = trace->initial_distance;
  result.final_distance = trace->steps.empty()
                              ? trace->initial_distance
                              : trace->steps.back().distance;
  result.all_finite = trace->final_fusion.AllFinite();
  for (const veritas::SessionStep& step : trace->steps) {
    if (!std::isfinite(step.distance) || !std::isfinite(step.uncertainty)) {
      result.all_finite = false;
    }
  }
  return result;
}

SessionResult ReplaySession(const Workload& w,
                            const veritas::SyntheticDataset& data,
                            const std::string& dir, const std::string& sid,
                            SpanRecorder* spans, ReplayExtras* extras) {
  SessionResult result;
  const std::int64_t session_span =
      spans != nullptr ? spans->Begin("core.session", sid) : -1;
  auto model = Accu();
  auto strategy =
      std::move(veritas::MakeStrategy(w.strategy, kScanThreads)).value();
  veritas::PerfectOracle oracle;
  veritas::Rng rng(w.spec.seed);
  veritas::FusionOptions fusion_opts = SessionFusionOptions();
  std::filesystem::create_directories(dir);
  const std::string ckpt = dir + "/session.ckpt";

  std::optional<veritas::StreamingDatabase> stream;
  std::optional<veritas::GroundTruth> stream_truth;
  std::optional<veritas::VectorFeed> feed;
  const Database* db_ptr = &data.db;
  const veritas::GroundTruth* truth_ptr = &data.truth;
  if (w.streaming) {
    stream.emplace(Database());
    stream_truth.emplace(stream->db());
    feed.emplace(MakeFeed(data));
    db_ptr = &stream->db();
    truth_ptr = &*stream_truth;
  }
  const Database& db = *db_ptr;
  const veritas::GroundTruth& truth = *truth_ptr;

  veritas::SessionTrace trace;
  strategy->Reset();
  std::optional<veritas::ItemGraph> graph;
  std::unique_ptr<veritas::DeltaFusionEngine> delta;
  FusionResult fusion;
  {
    Scope s(spans, "model.item_graph", sid);
    graph.emplace(db);
  }
  {
    Scope s(spans, "model.compile", sid);
    delta = w.streaming
                ? veritas::DeltaFusionEngine::Create(*stream, *model,
                                                     fusion_opts)
                : veritas::DeltaFusionEngine::Create(db, *model, fusion_opts);
  }
  {
    Scope s(spans, "fusion.fuse", sid);
    fusion = model->Fuse(db, trace.priors, fusion_opts);
  }
  if (extras != nullptr) extras->accu_iterations = fusion.iterations();
  {
    Scope s(spans, "core.metrics", sid);
    trace.initial_distance = veritas::DistanceToGroundTruth(db, fusion, truth);
    trace.initial_uncertainty = veritas::Uncertainty(fusion);
  }
  bool delta_base_valid = true;
  std::unordered_set<ItemId> skipped;
  std::size_t validated = 0;

  // Mirrors FeedbackSession::Run's ingest tick (core/session.cc).
  std::deque<veritas::StreamTruth> deferred;
  bool feed_live = w.streaming;
  const auto ingest_tick = [&]() -> veritas::Status {
    if (!feed_live) return veritas::Status::OK();
    veritas::IngestBatch batch;
    if (!feed->Next(&batch)) {
      feed_live = false;
      return veritas::Status::OK();
    }
    const double receipt = Now();
    Scope tick(spans, "ingest.tick", sid);
    {
      Scope s(spans, "model.append_batch", sid);
      auto stats = stream->AppendBatch(batch);
      if (!stats.ok()) return stats.status();
    }
    {
      Scope s(spans, "model.apply_truth", sid);
      for (const veritas::StreamTruth& t : batch.truths) deferred.push_back(t);
      const std::size_t pending = deferred.size();
      for (std::size_t n = 0; n < pending; ++n) {
        veritas::StreamTruth t = std::move(deferred.front());
        deferred.pop_front();
        if (!stream_truth->SetByValue(db, t.item, t.value).ok()) {
          deferred.push_back(std::move(t));
        }
      }
    }
    {
      Scope s(spans, "fusion.extend_priors", sid);
      trace.priors.ExtendForNewClaims(db);
    }
    if (TimedCompaction(&*stream, spans, tick.id(), sid) &&
        extras != nullptr) {
      ++extras->compactions;
    }
    std::vector<ItemId> dirty_items;
    std::vector<veritas::SourceId> dirty_sources;
    stream->TakeDirty(&dirty_items, &dirty_sources);
    if (!dirty_items.empty() || !dirty_sources.empty()) {
      bool incremental = false;
      {
        Scope s(spans, "fusion.fuse_with_appends", sid);
        if (delta != nullptr && delta_base_valid) {
          auto next = delta->FuseWithAppends(fusion, trace.priors,
                                             dirty_items, dirty_sources);
          if (next.ok() && next.value().AllFinite()) {
            fusion = std::move(next).value();
            incremental = true;
          }
        }
      }
      if (!incremental) {
        Scope s(spans, "fusion.fuse", sid);
        FusionResult next = model->Fuse(db, trace.priors, fusion_opts);
        if (!next.AllFinite()) {
          result.all_finite = false;
          return veritas::Status::Internal("non-finite streaming re-fusion");
        }
        fusion = std::move(next);
      }
      delta_base_valid = true;
      Scope s(spans, "model.item_graph", sid);
      graph.emplace(db);
    }
    result.staleness.push_back(Now() - receipt);
    result.ingested += batch.observations.size();
    return veritas::Status::OK();
  };

  const auto run_table11 = [&] {
    Table11Probe(db, fusion, trace.priors,
                 delta_base_valid ? delta.get() : nullptr, *graph, spans,
                 extras);
  };

  while (validated < w.budget) {
    const double round_start = Now();
    {
      // Every exit from this block (continue, break) closes the round span.
      Scope round(spans, "core.round", sid);
      result.status = ingest_tick();
      if (!result.status.ok()) break;

      veritas::StrategyContext ctx;
      ctx.db = &db;
      ctx.fusion = &fusion;
      ctx.priors = &trace.priors;
      ctx.model = model.get();
      ctx.fusion_opts = &fusion_opts;
      ctx.ground_truth = &truth;
      ctx.graph = &*graph;
      ctx.rng = &rng;
      ctx.excluded = &skipped;
      ctx.warm_start_lookahead = true;
      ctx.delta = delta_base_valid ? delta.get() : nullptr;
      ctx.require_known_truth = w.streaming;
      ctx.db_epoch = w.streaming ? stream->epoch() : 0;

      std::vector<ItemId> batch;
      const std::uint64_t lookaheads = Lookaheads();
      {
        Scope s(spans, "core.select", sid);
        batch = strategy->SelectBatch(ctx, 1);
      }
      if (extras != nullptr) {
        extras->session_lookaheads += Lookaheads() - lookaheads;
      }
      if (batch.empty()) {
        if (feed_live) continue;
        break;
      }
      veritas::SessionStep step;
      for (ItemId item : batch) {
        veritas::Result<std::vector<double>> answer = std::vector<double>();
        {
          Scope s(spans, "core.oracle", sid);
          answer = oracle.Answer(db, item, truth, &rng);
        }
        if (!answer.ok()) {
          result.status = answer.status();
          break;
        }
        Scope s(spans, "fusion.set_prior", sid);
        result.status =
            trace.priors.SetDistribution(db, item, std::move(answer).value());
        if (!result.status.ok()) break;
        step.items.push_back(item);
        result.selections.push_back(item);
        ++validated;
      }
      if (!result.status.ok()) break;
      {
        Scope s(spans, "fusion.refuse", sid);
        const bool pinned = delta != nullptr && delta_base_valid;
        veritas::DeltaFusionStats stats;
        FusionResult next =
            pinned ? delta->FuseWithPins(fusion, trace.priors, step.items,
                                         &stats)
                   : model->Fuse(db, trace.priors, fusion_opts, &fusion);
        if (pinned && extras != nullptr) {
          ++extras->pinned_refuses;
          if (stats.fell_back) ++extras->refuse_fallbacks;
        }
        if (next.AllFinite()) {
          fusion = std::move(next);
          delta_base_valid = true;
        } else {
          result.all_finite = false;
          delta_base_valid = false;
        }
      }
      step.num_validated = validated;
      {
        Scope s(spans, "core.metrics", sid);
        step.distance = veritas::DistanceToGroundTruth(db, fusion, truth);
        step.uncertainty = veritas::Uncertainty(fusion);
      }
      trace.steps.push_back(step);
      if (w.checkpoint) {
        Scope s(spans, "core.checkpoint", sid);
        veritas::SessionCheckpoint cp;
        cp.num_validated = validated;
        cp.initial_distance = trace.initial_distance;
        cp.initial_uncertainty = trace.initial_uncertainty;
        cp.steps = trace.steps;
        cp.priors = trace.priors;
        cp.fusion = fusion;
        std::ostringstream rng_state;
        rng_state << rng.engine();
        cp.rng_state = rng_state.str();
        cp.oracle_state = oracle.SerializeState();
        result.status = veritas::SaveSessionCheckpoint(cp, ckpt);
        if (!result.status.ok()) break;
        if (extras != nullptr) {
          extras->checkpoint_bytes.push_back(
              static_cast<double>(std::filesystem::file_size(ckpt)));
        }
      }
    }
    result.rounds.push_back(Now() - round_start);
    if (extras != nullptr && extras->table11 &&
        validated == extras->table11_after) {
      run_table11();
    }
  }
  if (spans != nullptr) spans->End(session_span);
  if (extras != nullptr && extras->table11 && extras->table11_after == 0) {
    run_table11();
  }
  if (!w.checkpoint && extras != nullptr) {
    // Streams never checkpoint; time one save of the final state so the
    // checkpoint layer is measured on this shape too.
    Scope s(spans, "core.checkpoint", sid);
    veritas::SessionCheckpoint cp;
    cp.num_validated = validated;
    cp.steps = trace.steps;
    cp.priors = trace.priors;
    cp.fusion = fusion;
    if (veritas::SaveSessionCheckpoint(cp, ckpt).ok()) {
      extras->checkpoint_bytes.push_back(
          static_cast<double>(std::filesystem::file_size(ckpt)));
    }
  }
  std::filesystem::remove_all(dir);
  if (w.streaming) {
    // A stream starts empty, so its gain is measured against the same final
    // database fused without any feedback.
    const FusionResult unvalidated =
        model->Fuse(db, veritas::PriorSet(), fusion_opts);
    trace.initial_distance =
        veritas::DistanceToGroundTruth(db, unvalidated, truth);
  }

  result.validations = validated;
  result.initial_distance = trace.initial_distance;
  result.final_distance =
      trace.steps.empty() ? trace.initial_distance : trace.steps.back().distance;
  if (!fusion.AllFinite()) result.all_finite = false;
  return result;
}

IngestResult IngestProbe(const Database& source, std::size_t max_batches,
                         SpanRecorder* spans) {
  IngestResult result;
  std::vector<veritas::StreamObservation> observations;
  observations.reserve(source.num_observations());
  for (const veritas::Item& item : source.items()) {
    for (const veritas::Claim& claim : item.claims) {
      for (veritas::SourceId s : claim.sources) {
        veritas::StreamObservation obs;
        obs.source = source.source(s).name;
        obs.item = item.name;
        obs.value = claim.value;
        obs.timestamp = static_cast<double>(observations.size());
        observations.push_back(std::move(obs));
      }
    }
  }
  veritas::VectorFeed feed(std::move(observations), {}, kBatchObs);
  veritas::StreamingDatabase stream{Database()};
  auto model = Accu();
  const veritas::FusionOptions fusion_opts = SessionFusionOptions();
  const auto delta =
      veritas::DeltaFusionEngine::Create(stream, *model, fusion_opts);
  veritas::PriorSet priors;
  FusionResult fusion = model->Fuse(stream.db(), priors, fusion_opts);
  Scope probe(spans, "probe.ingest", "ingest");
  veritas::IngestBatch batch;
  for (std::size_t b = 0; b < max_batches && feed.Next(&batch); ++b) {
    const double receipt = Now();
    Scope tick(spans, "ingest.tick", "ingest");
    {
      Scope s(spans, "model.append_batch", "ingest");
      if (!stream.AppendBatch(batch).ok()) {
        result.all_finite = false;
        break;
      }
    }
    if (TimedCompaction(&stream, spans, tick.id(), "ingest")) {
      ++result.compactions;
    }
    std::vector<ItemId> dirty_items;
    std::vector<veritas::SourceId> dirty_sources;
    stream.TakeDirty(&dirty_items, &dirty_sources);
    {
      Scope s(spans, "fusion.fuse_with_appends", "ingest");
      auto next = delta->FuseWithAppends(fusion, priors, dirty_items,
                                         dirty_sources);
      if (next.ok() && next.value().AllFinite()) {
        fusion = std::move(next).value();
      } else {
        fusion = model->Fuse(stream.db(), priors, fusion_opts);
      }
    }
    if (!fusion.AllFinite()) result.all_finite = false;
    result.staleness.push_back(Now() - receipt);
    result.ingested += batch.observations.size();
  }
  return result;
}

}  // namespace perfbench
