// veritas_bench: runs one benchmark workload and prints one JSON record.
//
//   veritas_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --work-dir <dir> --out-dir <dir>
//
// --trace 0 measures the end-to-end metrics with nothing traced; --trace 1
// replays the workload one layer call at a time and prints the per-layer
// metrics, writing the spans to <out-dir>/<workload>-seed<n>.trace.json.
// perfbench/run.py builds this binary, runs it and checks the record.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fleet.h"
#include "fusion/delta_fusion.h"
#include "fusion/fusion_factory.h"
#include "model/streaming_database.h"
#include "record.h"
#include "sessions.h"
#include "spans.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string out_dir = ".bench_build/results";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0 && argc % 2 == 1;
}

/// Metric values keyed by name, each with its unit.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  std::string ToJson() const {
    JsonObject out;
    for (const auto& [name, entry] : values_) {
      JsonObject m;
      m.Add("value", entry.first).Add("unit", entry.second);
      out.AddRaw(name, m.ToString());
    }
    return out.ToString();
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

class Checks {
 public:
  void Expect(const std::string& name, bool ok) {
    auto it = results_.find(name);
    results_[name] = ok && (it == results_.end() || it->second);
  }
  bool all() const {
    for (const auto& [name, ok] : results_) {
      if (!ok) return false;
    }
    return true;
  }
  std::string ToJson() const {
    JsonObject out;
    for (const auto& [name, ok] : results_) out.Add(name, ok);
    return out.ToString();
  }

 private:
  std::map<std::string, bool> results_;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Set-up: generate, load, compile and initial Fuse of one dataset. Each
/// dataset of a run is set up kSetupReps times: once before the sessions,
/// which keeps the data, and the rest right after the dataset's first
/// session, so the repetitions are spread over the run like its rounds.
/// setup_s is the mean over the datasets of each dataset's median, like the
/// round figures.
constexpr std::size_t kSetupReps = 7;

struct Setup {
  std::vector<std::vector<double>> seconds;     ///< Per dataset, per rep.
  std::vector<veritas::SyntheticDataset> data;  ///< One per dataset.
  std::vector<veritas::GenerationReport> reports;
  double Seconds() const {
    std::vector<double> medians;
    for (const std::vector<double>& reps : seconds) {
      medians.push_back(Median(reps));
    }
    return veritas::Mean(medians);
  }
};

veritas::Status SetupOnce(const Workload& w, std::size_t k,
                          SpanRecorder* spans, Setup* setup) {
  const auto model = std::move(veritas::MakeFusionModel("accu")).value();
  const veritas::FusionOptions opts;
  Scope root(spans, "setup", "setup");
  const double start = Now();
  veritas::GenerationReport report;
  veritas::Result<veritas::SyntheticDataset> data =
      veritas::Status::Internal("not generated");
  {
    Scope s(spans, "data.generate", "setup");
    data = veritas::GenerateFromSpec(DatasetFor(w, k).spec, &report);
  }
  VERITAS_RETURN_IF_ERROR(data.status());
  // A stream starts from an empty database; everything else compiles and
  // fuses the generated snapshot.
  veritas::StreamingDatabase empty{veritas::Database()};
  const veritas::Database& db = w.streaming ? empty.db() : data->db;
  std::unique_ptr<veritas::DeltaFusionEngine> engine;
  {
    Scope s(spans, "model.compile", "setup");
    engine = w.streaming
                 ? veritas::DeltaFusionEngine::Create(empty, *model, opts)
                 : veritas::DeltaFusionEngine::Create(db, *model, opts);
  }
  {
    Scope s(spans, "fusion.fuse", "setup");
    const veritas::FusionResult fused = model->Fuse(db, opts);
    if (!fused.AllFinite()) {
      return veritas::Status::Internal("initial fuse is not finite");
    }
  }
  const double seconds = Now() - start;
  if (k == setup->data.size()) {
    // A stream session reads only the stream; the batch-built snapshot is
    // kept for dataset 0 alone, which the traced probes use.
    if (w.streaming && k > 0) data->db = veritas::Database();
    setup->data.push_back(std::move(data).value());
    setup->reports.push_back(report);
    setup->seconds.emplace_back();
  }
  setup->seconds[k].push_back(seconds);
  return veritas::Status::OK();
}

/// Round figures of a run over several datasets: each dataset's median
/// round, its round tail at the workload's fixed percentile and its median
/// session throughput, averaged over the datasets. Round cost differs a lot
/// between datasets, and a median of the pooled rounds would jump between
/// their clusters; the mean of per-dataset figures moves smoothly. Medians
/// over a dataset's sessions keep one session hit by a slow spell of the
/// host from moving the throughput.
struct RoundFigures {
  double p50 = 0.0;
  double tail = 0.0;
  double per_s = 0.0;
};

struct DatasetRuns {
  std::vector<double> rounds;
  std::vector<double> per_s;  ///< Validations per second, per session.
};

RoundFigures PerDataset(const std::vector<DatasetRuns>& runs,
                        std::size_t tail_percentile) {
  std::vector<double> p50s, tails, per_s;
  for (const DatasetRuns& r : runs) {
    p50s.push_back(Median(r.rounds));
    tails.push_back(PercentileOf(r.rounds, tail_percentile));
    per_s.push_back(Median(r.per_s));
  }
  return {veritas::Mean(p50s), veritas::Mean(tails), veritas::Mean(per_s)};
}

void AddFleetDetail(const FleetResult& f, JsonObject* detail) {
  const Tail tail = TailOf(f.latency);
  auto phase = [](const PhaseCounts& p) {
    JsonObject o;
    o.Add("sent", p.sent).Add("succeeded", p.succeeded).Add("failed", p.failed);
    return o.ToString();
  };
  JsonObject o;
  o.Add("offered_rate_per_s", kProbeRate)
      .Add("poll_interval_s", kPollSeconds)
      .Add("workers", kProbeWorkers)
      .Add("client_threads", kProbeClients)
      .Add("attempted", f.attempted)
      .Add("completed", f.completed)
      .Add("shed", f.shed)
      .Add("typed_errors", f.typed_errors)
      .Add("client_errors", f.client_errors)
      .Add("timed_out", f.timed_out)
      .Add("session_p50_s", Median(f.latency))
      .Add("session_tail_s", tail.value)
      .Add("session_tail_percentile", tail.percentile)
      .Add("session_samples", tail.samples)
      .Add("run_p50_s", Median(f.run))
      .Add("queue_wait_p50_s", Median(f.queue_wait))
      .Add("polls_per_session", Median(f.polls))
      .Add("failed_frac", Ratio(f.failed(), static_cast<double>(f.attempted)))
      .Add("generator_late_p50_s", Median(f.lateness))
      .AddRaw("submit", phase(f.submit))
      .AddRaw("poll", phase(f.poll))
      .AddRaw("report", phase(f.report));
  detail->AddRaw("serve_probe", o.ToString());
}

/// Fleet accounting the serve probe checks: each attempted session ends
/// completed or as a typed/client failure, none silently lost.
void CheckFleet(const FleetResult& f, Checks* checks) {
  checks->Expect("fleet_started", f.status.ok());
  checks->Expect("no_silent_loss",
                 f.attempted == f.completed + f.shed + f.typed_errors +
                                    f.client_errors + f.timed_out);
  checks->Expect("served_validations", f.wrong_validations == 0);
}

/// Per-layer metrics of a traced run. Every workload reports every metric:
/// the layers its own session does not reach are measured by probes on its
/// snapshot (ingest replay, a few served sessions), so each number is real.
void TracedMetrics(const Workload& w, const Args& args,
                   const veritas::SyntheticDataset& data,
                   const SessionResult& untraced, SpanRecorder* sp,
                   Checks* checks, Metrics* metrics, JsonObject* detail) {
  const auto p50 = [&](const std::string& name) {
    return Median(sp->Durations(name));
  };
  ReplayExtras extras;
  // Probe the Table-11 ordering on the final state; a stream's final state
  // is too large for a single MEU step, so it is probed 20 ticks in.
  extras.table11 = true;
  extras.table11_after = w.streaming ? 20 : 0;
  const SessionResult replay = ReplaySession(
      w, data, args.work_dir + "/replay", "replay", sp, &extras);
  const double rounds = static_cast<double>(replay.rounds.size());
  checks->Expect("session_ok", replay.status.ok());
  checks->Expect("finite", replay.all_finite);
  checks->Expect("replay_matches_run",
                 replay.selections == untraced.selections &&
                     replay.final_distance == untraced.final_distance);

  for (const auto& [name, seconds] : extras.select_by_strategy) {
    metrics->Set("core.select_s." + name, seconds, "s");
  }

  IngestResult ingest;
  if (w.streaming) {
    ingest.staleness = replay.staleness;
    ingest.ingested = replay.ingested;
    ingest.compactions = extras.compactions;
  } else {
    ingest = IngestProbe(data.db, 200, sp);
    checks->Expect("finite", ingest.all_finite);
  }

  // Serve probe on this snapshot: `us` sessions of 10 validations.
  FleetConfig fleet;
  fleet.spec.strategy = "us";
  fleet.spec.oracle = "perfect";
  fleet.spec.max_validations = 10;
  fleet.spec.seed = args.seed;
  fleet.seed = args.seed;
  fleet.dir = args.work_dir + "/sessions";
  const FleetResult served = RunFleet(data.db, data.truth, fleet, sp);
  std::filesystem::remove_all(fleet.dir);
  CheckFleet(served, checks);
  AddFleetDetail(served, detail);

  metrics->Set("core.select_s", p50("core.select"), "s");
  metrics->Set("core.lookaheads",
               Ratio(static_cast<double>(extras.session_lookaheads), rounds),
               "count");
  const double probe_lookaheads =
      static_cast<double>(extras.probe_meu_lookaheads);
  metrics->Set("core.exact_lookahead_frac",
               Ratio(probe_lookaheads -
                         static_cast<double>(extras.probe_meu_pruned),
                     probe_lookaheads),
               "ratio");
  metrics->Set("core.oracle_s", p50("core.oracle"), "s");
  metrics->Set("core.checkpoint_s", p50("core.checkpoint"), "s");
  metrics->Set("core.checkpoint_bytes", Median(extras.checkpoint_bytes),
               "bytes");
  metrics->Set("core.metrics_s", p50("core.metrics"), "s");
  metrics->Set("fusion.refuse_s", p50("fusion.refuse"), "s");
  metrics->Set("fusion.refuse_fallback_frac",
               Ratio(static_cast<double>(extras.refuse_fallbacks),
                     static_cast<double>(extras.pinned_refuses)),
               "ratio");
  metrics->Set("fusion.fuse_s", p50("fusion.fuse"), "s");
  metrics->Set("fusion.accu_iterations",
               static_cast<double>(extras.accu_iterations), "count");
  metrics->Set("fusion.fuse_with_appends_s", p50("fusion.fuse_with_appends"),
               "s");
  metrics->Set("model.compile_s", p50("model.compile"), "s");
  metrics->Set("model.append_batch_s", p50("model.append_batch"), "s");
  metrics->Set("model.compaction_s", p50("model.compaction"), "s");
  metrics->Set("model.compactions", static_cast<double>(ingest.compactions),
               "count");
  metrics->Set("data.generate_s", p50("data.generate"), "s");
  const Tail staleness_tail = TailOf(ingest.staleness);
  metrics->Set("ingest.obs_per_s",
               Ratio(static_cast<double>(ingest.ingested),
                     Sum(ingest.staleness)),
               "1/s");
  metrics->Set("ingest.staleness_p50_s", Median(ingest.staleness), "s");
  metrics->Set("ingest.staleness_tail_s", staleness_tail.value, "s");
  metrics->Set("quality.distance_gain_pct", untraced.DistanceGainPct(), "%");

  const Tail queue_tail = TailOf(served.queue_wait);
  metrics->Set("serve.queue_wait_p50_s", Median(served.queue_wait), "s");
  metrics->Set("serve.queue_wait_tail_s", queue_tail.value, "s");
  metrics->Set("serve.run_p50_s", Median(served.run), "s");
  metrics->Set("serve.admitted", static_cast<double>(served.submit.succeeded),
               "count");
  metrics->Set("serve.shed", static_cast<double>(served.shed), "count");
  metrics->Set("net.submit_s", p50("net.submit"), "s");
  metrics->Set("net.report_s", p50("net.report"), "s");
  metrics->Set("net.polls_per_session", Median(served.polls), "count");
  metrics->Set("net.retries", static_cast<double>(served.retries), "count");
  metrics->Set("obs.instruments_per_session",
               Ratio(static_cast<double>(served.instruments),
                     static_cast<double>(served.completed)),
               "count");
  metrics->Set("bench.generator_late_p50_s", Median(served.lateness), "s");
  metrics->Set("bench.generator_late_max_s", veritas::Max(served.lateness),
               "s");

  // Validity of the split: traced against untraced rounds, and the share of
  // round time that no layer span covers.
  const double unattributed = sp->UnattributedFrac("core.round");
  metrics->Set("bench.tracing_overhead_frac",
               Ratio(Median(replay.rounds), Median(untraced.rounds)) - 1.0,
               "ratio");
  metrics->Set("bench.unattributed_frac", unattributed, "ratio");

  // Where a round goes: share of the summed round time per direct child
  // span (and per child of the ingest tick), the basis for the isolation
  // claims.
  const std::vector<Span> all = sp->Snapshot();
  double total = 0.0;
  std::map<std::string, double> by_name;
  for (const Span& s : all) {
    if (s.name == "core.round") total += s.seconds();
  }
  for (const Span& s : all) {
    if (s.parent < 0) continue;
    const Span& parent = all[static_cast<std::size_t>(s.parent)];
    if (parent.name == "core.round") {
      by_name[s.name] += s.seconds();
    } else if (parent.name == "ingest.tick" && parent.parent >= 0 &&
               all[static_cast<std::size_t>(parent.parent)].name ==
                   "core.round") {
      by_name["ingest.tick/" + s.name] += s.seconds();
    }
  }
  JsonObject split;
  for (const auto& [name, seconds] : by_name) {
    split.Add(name, Ratio(seconds, total));
  }
  split.Add("unattributed", unattributed);
  detail->AddRaw("split", split.ToString());
  detail->AddRaw("refuse",
                 JsonObject()
                     .Add("pinned_refuses", extras.pinned_refuses)
                     .Add("fallbacks", extras.refuse_fallbacks)
                     .ToString());
}

int Run(const Args& args) {
  auto workload = MakeWorkload(args.workload, args.seed);
  if (!workload.ok()) {
    std::cerr << workload.status().ToString() << "\n";
    return 2;
  }
  const Workload& w = *workload;
  std::filesystem::create_directories(args.work_dir);
  std::filesystem::create_directories(args.out_dir);
  const std::string session_dir = args.work_dir + "/session";

  std::unique_ptr<SpanRecorder> spans;
  if (args.trace) spans = std::make_unique<SpanRecorder>();
  Setup setup;
  const auto set_up = [&](std::size_t k) {
    const veritas::Status status = SetupOnce(w, k, spans.get(), &setup);
    if (!status.ok()) {
      std::cerr << "setup failed: " << status.ToString() << "\n";
    }
    return status.ok();
  };
  for (std::size_t k = 0; k < w.datasets; ++k) {
    if (!set_up(k)) return 1;
  }

  Checks checks;
  Metrics metrics;
  JsonObject detail;
  std::size_t attempted = 0;
  const std::uint64_t stale_before =
      CounterValue("delta.stale_view_violations");
  const auto check_session = [&](const SessionResult& r) {
    checks.Expect("session_ok", r.status.ok());
    checks.Expect("finite", r.all_finite);
    checks.Expect("budget_validated", r.validations == w.budget);
  };

  // One session per dataset; an untraced run then cycles through the
  // datasets again while another session fits in the time, and every
  // repeat must select exactly what the first pass did. A traced run needs
  // only dataset 0, for the tracing-overhead baseline and the replay check.
  const std::size_t first_pass = args.trace ? 1 : w.datasets;
  const double loop_start = Now();
  double last_session = 0.0;
  std::vector<SessionResult> firsts;
  std::vector<std::string> digests;
  std::vector<double> rounds, staleness, gains;
  std::vector<DatasetRuns> by_dataset(first_pass);
  std::size_t ingested = 0;
  std::size_t sessions = 0;
  do {
    const std::size_t k = sessions % first_pass;
    const double session_start = Now();
    SessionResult r = RunSession(DatasetFor(w, k), setup.data[k], session_dir);
    last_session = Now() - session_start;
    check_session(r);
    const std::string digest = DigestOf(r.selections);
    if (sessions < first_pass) {
      digests.push_back(digest);
      gains.push_back(r.DistanceGainPct());
    } else {
      checks.Expect("selections_repeat", digest == digests[k]);
    }
    rounds.insert(rounds.end(), r.rounds.begin(), r.rounds.end());
    by_dataset[k].rounds.insert(by_dataset[k].rounds.end(), r.rounds.begin(),
                                r.rounds.end());
    by_dataset[k].per_s.push_back(
        Ratio(static_cast<double>(r.validations), r.loop_seconds));
    staleness.insert(staleness.end(), r.staleness.begin(), r.staleness.end());
    ingested += r.ingested;
    if (sessions < first_pass) {
      firsts.push_back(std::move(r));
      for (std::size_t rep = 1; rep < kSetupReps; ++rep) {
        if (!set_up(k)) return 1;
      }
    }
    ++sessions;
  } while (sessions < first_pass ||
           (!args.trace && Now() - loop_start + last_session <= args.seconds));

  JsonObject digest_list;
  for (std::size_t k = 0; k < digests.size(); ++k) {
    digest_list.Add(std::to_string(k), digests[k]);
  }
  detail.Add("sessions", sessions)
      .AddRaw("digests", digest_list.ToString())
      .Add("distance_gain_pct", veritas::Mean(gains));

  if (!args.trace) {
    const RoundFigures round = PerDataset(by_dataset, w.tail_percentile);
    JsonObject r;
    r.Add("round_p50_s", round.p50)
        .Add("round_tail_s", round.tail)
        .Add("round_tail_percentile", w.tail_percentile)
        .Add("round_samples", rounds.size())
        .Add("validations_per_s", round.per_s);
    JsonObject p50_by_dataset;
    for (std::size_t k = 0; k < by_dataset.size(); ++k) {
      p50_by_dataset.Add(std::to_string(k), Median(by_dataset[k].rounds));
    }
    r.AddRaw("round_p50_by_dataset", p50_by_dataset.ToString());
    if (w.streaming) {
      const Tail st = TailOf(staleness);
      r.Add("ingest_obs_per_s",
            Ratio(static_cast<double>(ingested), Sum(staleness)))
          .Add("staleness_p50_s", Median(staleness))
          .Add("staleness_tail_s", st.value)
          .Add("staleness_tail_percentile", st.percentile);
    }
    detail.AddRaw("rounds", r.ToString());
    metrics.Set("latency_p50_s", round.p50, "s");
    metrics.Set("latency_tail_s", round.tail, "s");
    metrics.Set("throughput_per_s", round.per_s, "1/s");
    metrics.Set("setup_s", setup.Seconds(), "s");
    metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
    attempted = rounds.size();
  } else {
    TracedMetrics(w, args, setup.data[0], firsts[0], spans.get(), &checks,
                  &metrics, &detail);
    attempted = firsts[0].rounds.size();
  }

  const bool stale_ok =
      CounterValue("delta.stale_view_violations") == stale_before;
  checks.Expect("no_stale_view", stale_ok);
  if (spans != nullptr) {
    spans->WriteChromeJson(args.out_dir + "/" + w.name + "-seed" +
                           std::to_string(args.seed) + ".trace.json");
  }

  std::string reports = "[";
  for (std::size_t k = 0; k < setup.reports.size(); ++k) {
    if (k > 0) reports += ", ";
    reports += DescribeReport(setup.reports[k]);
  }
  reports += "]";
  JsonObject record;
  record.Add("workload", w.name)
      .Add("seed", static_cast<std::uint64_t>(args.seed))
      .Add("trace", args.trace)
      .Add("seconds", args.seconds)
      .AddRaw("spec", DescribeSpec(w.spec))
      .Add("datasets", w.datasets)
      .AddRaw("generation", reports)
      .AddRaw("session", JsonObject()
                             .Add("strategy", w.strategy)
                             .Add("threads", kScanThreads)
                             .Add("batch_obs", kBatchObs)
                             .Add("budget", w.budget)
                             .Add("checkpoint", w.checkpoint)
                             .ToString())
      .Add("digest", digests[0])
      .Add("correct", checks.all())
      .AddRaw("checks", checks.ToJson())
      .Add("attempted", attempted)
      .Add("failed", std::size_t{0})
      .AddRaw("metrics", metrics.ToJson())
      .AddRaw("detail", detail.ToString());
  std::cout << record.ToString() << std::endl;
  return checks.all() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: veritas_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir d] [--out-dir d]\n";
    return 2;
  }
  return perfbench::Run(args);
}
