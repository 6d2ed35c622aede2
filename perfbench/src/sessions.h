// The expert-session side of the benchmark: workload definitions, the
// untraced FeedbackSession runs timed from outside, and the traced replay
// that replays the same session one layer call at a time.
#ifndef PERFBENCH_SESSIONS_H_
#define PERFBENCH_SESSIONS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "fusion/fusion_result.h"
#include "spans.h"
#include "util/result.h"

namespace perfbench {

/// Lookahead scan threads of every session: one, so the MEU pool stays out
/// of the round figures.
inline constexpr std::size_t kScanThreads = 1;
/// Observations per ingest batch, for streams and the ingest probe.
inline constexpr std::size_t kBatchObs = 256;

/// One named workload: the declarative dataset and the session it runs.
struct Workload {
  std::string name;
  veritas::DatasetSpec spec;
  std::string strategy;       ///< Session strategy (core/strategy_factory).
  std::size_t budget = 20;    ///< Validations per session.
  bool checkpoint = true;     ///< Checkpoint every round.
  bool streaming = false;     ///< Stream the dataset in through a feed.
  /// Independent datasets per run, so one seed's quirks weigh less. Dataset
  /// k is generated from seed + k * 1000003 (DatasetFor).
  std::size_t datasets = 1;
  /// Percentile of the round tail, fixed per workload so that it does not
  /// move with the number of rounds a run happens to fit in: the highest
  /// that leaves at least ten rounds beyond it in the rounds every run has.
  std::size_t tail_percentile = 90;
};

/// The workload with its spec re-seeded for dataset `k` of a run.
Workload DatasetFor(const Workload& w, std::size_t k);

veritas::Result<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed);
std::string DescribeSpec(const veritas::DatasetSpec& spec);
std::string DescribeReport(const veritas::GenerationReport& report);

/// Outcome of one session, however it was driven.
struct SessionResult {
  veritas::Status status;
  std::vector<std::uint32_t> selections;  ///< Items, in selection order.
  std::vector<double> rounds;     ///< Seconds per validating round.
  std::vector<double> staleness;  ///< Batch receipt -> fused state, seconds.
  std::size_t ingested = 0;       ///< Observations in applied batches.
  std::size_t validations = 0;
  double loop_seconds = 0.0;      ///< Wall time of the session loop.
  double initial_distance = 0.0;
  double final_distance = 0.0;
  bool all_finite = true;         ///< Every fused state was finite.
  double DistanceGainPct() const;
};

/// Runs FeedbackSession::Run over the dataset and times it from outside: a
/// strategy wrapper stamps each SelectBatch and a feed wrapper stamps each
/// batch receipt, so a round is the time from one selection to the next.
/// `dir` receives the checkpoint chain and is removed afterwards.
SessionResult RunSession(const Workload& w,
                         const veritas::SyntheticDataset& data,
                         const std::string& dir);

/// The traced replay: repeats RunSession's loop by calling the layers in
/// order — SelectBatch, Answer, SetDistribution, FuseWithPins/Fuse, metrics,
/// SaveSessionCheckpoint, and for streams AppendBatch, CompactIfNeeded and
/// FuseWithAppends — with one span per call under a "core.round" span.
/// With `table11` set, the Table-11 probe runs on the state after
/// `table11_after` validations (0: the final state), outside any round span.
/// Counters are read around the calls they belong to, so the probe's
/// lookaheads do not mix with the session's.
struct ReplayExtras {
  bool table11 = false;
  std::size_t table11_after = 0;
  std::map<std::string, double> select_by_strategy;
  std::uint64_t probe_meu_lookaheads = 0;  ///< Of the probe's MEU step.
  std::uint64_t probe_meu_pruned = 0;      ///< meu.candidates_pruned growth.
  std::uint64_t session_lookaheads = 0;    ///< Over the replay's selects.
  std::size_t pinned_refuses = 0;          ///< FuseWithPins calls.
  std::size_t refuse_fallbacks = 0;        ///< Of those, fell back to Fuse.
  std::vector<double> checkpoint_bytes;
  std::size_t compactions = 0;
  std::size_t accu_iterations = 0;  ///< Of the initial cold Fuse.
};
SessionResult ReplaySession(const Workload& w,
                            const veritas::SyntheticDataset& data,
                            const std::string& dir, const std::string& sid,
                            SpanRecorder* spans, ReplayExtras* extras);

/// Ingest probe: streams the dataset's observations (item-major) into an
/// empty StreamingDatabase, kBatchObs per tick, folding each batch in with
/// FuseWithAppends, for at most `max_batches` ticks. Spans: "ingest.tick"
/// with children model.append_batch, model.compaction,
/// fusion.fuse_with_appends. Returns the staleness per tick.
struct IngestResult {
  std::vector<double> staleness;
  std::size_t ingested = 0;
  std::size_t compactions = 0;
  bool all_finite = true;
};
IngestResult IngestProbe(const veritas::Database& db, std::size_t max_batches,
                         SpanRecorder* spans);

}  // namespace perfbench

#endif  // PERFBENCH_SESSIONS_H_
