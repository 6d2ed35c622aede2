#include "serve/session_supervisor.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "core/oracle.h"
#include "core/resilient_oracle.h"
#include "core/strategy_factory.h"
#include "fusion/fusion_factory.h"
#include "obs/metrics.h"
#include "serve/stall_oracle.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/timer.h"

namespace veritas {

namespace {

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

// Best-effort removal of a terminal session's durable artifacts; a leftover
// file is re-examined (and re-deleted) by the next recovery sweep, so
// failures here are not fatal.
void RemoveIfPresent(const std::string& path) { ::unlink(path.c_str()); }

void RemoveCheckpointChain(const std::string& ckpt) {
  RemoveIfPresent(ckpt);
  RemoveIfPresent(ckpt + ".1");
  RemoveIfPresent(ckpt + ".2");
}

// mkdir -p: creates every missing component of `dir`.
Status MakeDirectories(const std::string& dir) {
  std::string partial;
  partial.reserve(dir.size());
  for (std::size_t i = 0; i <= dir.size(); ++i) {
    if (i < dir.size() && dir[i] != '/') {
      partial.push_back(dir[i]);
      continue;
    }
    if (!partial.empty() &&
        ::mkdir(partial.c_str(), 0777) != 0 && errno != EEXIST) {
      return Status::IoError("cannot create sessions directory " + partial +
                             ": " + std::strerror(errno));
    }
    if (i < dir.size()) partial.push_back('/');
  }
  return Status::OK();
}

}  // namespace

const char* SessionOutcomeName(SessionOutcome outcome) {
  switch (outcome) {
    case SessionOutcome::kCompleted:
      return "completed";
    case SessionOutcome::kEvicted:
      return "evicted";
    case SessionOutcome::kCancelled:
      return "cancelled";
    case SessionOutcome::kFailed:
      return "failed";
  }
  return "unknown";
}

SessionSupervisor::SessionSupervisor(const Database& db,
                                     const GroundTruth& truth,
                                     SupervisorOptions options)
    : db_(db), truth_(truth), options_(std::move(options)) {}

SessionSupervisor::~SessionSupervisor() { Shutdown(); }

Status SessionSupervisor::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) {
    return Status::FailedPrecondition("supervisor already started");
  }
  if (options_.sessions_dir.empty()) {
    return Status::InvalidArgument(
        "SupervisorOptions::sessions_dir is required");
  }
  VERITAS_RETURN_IF_ERROR(MakeDirectories(options_.sessions_dir));
  const std::size_t workers =
      options_.max_concurrent_sessions > 0 ? options_.max_concurrent_sessions
                                           : 1;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back(&SessionSupervisor::WorkerLoop, this);
  }
  watchdog_ = std::thread(&SessionSupervisor::WatchdogLoop, this);
  started_ = true;
  return Status::OK();
}

Status SessionSupervisor::Submit(SessionSpec spec) {
  auto& reg = MetricsRegistry::Global();
  static Counter* submitted = reg.GetCounter("supervisor.submitted");
  static Counter* admitted = reg.GetCounter("supervisor.admitted");
  static Counter* shed = reg.GetCounter("supervisor.shed");
  submitted->Add(1);
  const std::string why = ValidateSessionId(spec.id);
  if (!why.empty()) return Status::InvalidArgument(why);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) {
      return Status::FailedPrecondition(
          "Start() the supervisor before Submit()");
    }
    if (stopping_) {
      return Status::FailedPrecondition("supervisor is shutting down");
    }
    if (draining_) {
      // Unavailable, not FailedPrecondition: the work is retryable against
      // the replacement process once this one finishes draining.
      return Status::Unavailable("supervisor is draining; session \"" +
                                 spec.id + "\" not admitted");
    }
    if (active_ids_.count(spec.id) != 0) {
      return Status::InvalidArgument("session \"" + spec.id +
                                     "\" is already queued or running");
    }
    if (queue_.size() + admitting_ >= options_.max_queue_depth) {
      shed->Add(1);
      std::ostringstream msg;
      msg << "admission queue full (" << (queue_.size() + admitting_)
          << " waiting, limit " << options_.max_queue_depth << "); session \""
          << spec.id << "\" shed";
      return Status::ResourceExhausted(msg.str());
    }
    active_ids_.insert(spec.id);
    ++admitting_;
  }
  // The durable manifest (fsync) is written outside mu_; the id + admitting_
  // reservation above keeps the slot accounted meanwhile.
  const Status saved = SaveSessionManifest(
      spec, SessionManifestPath(options_.sessions_dir, spec.id));
  std::lock_guard<std::mutex> lock(mu_);
  --admitting_;
  if (!saved.ok()) {
    active_ids_.erase(spec.id);
    if (queue_.empty() && running_.empty() && admitting_ == 0) {
      idle_cv_.notify_all();
    }
    return saved;
  }
  Pending item;
  item.spec = std::move(spec);
  item.enqueued = std::chrono::steady_clock::now();
  queue_.push_back(std::move(item));
  admitted->Add(1);
  work_cv_.notify_one();
  return Status::OK();
}

std::size_t SessionSupervisor::RecoverSessions() {
  auto& reg = MetricsRegistry::Global();
  static Counter* recovered_counter = reg.GetCounter("supervisor.recovered");
  static Counter* abandoned_counter =
      reg.GetCounter("supervisor.recovery_abandoned");
  static Counter* orphan_tmp_counter =
      reg.GetCounter("supervisor.orphan_tmp_removed");
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) return 0;
  }
  // A SIGKILLed predecessor can strand `*.tmp.*` files mid-checkpoint;
  // reclaim them here so crash-restart cycles never accumulate litter.
  orphan_tmp_counter->Add(RemoveOrphanTempFiles(options_.sessions_dir));
  auto ids = ListSessionManifests(options_.sessions_dir);
  if (!ids.ok()) return 0;
  std::size_t recovered = 0;
  for (const std::string& id : *ids) {
    const std::string manifest_path =
        SessionManifestPath(options_.sessions_dir, id);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (active_ids_.count(id) != 0) continue;  // Still live, not orphaned.
    }
    auto spec = LoadSessionManifest(manifest_path);
    if (!spec.ok()) {
      // Unreadable manifest: the spec cannot be reconstructed, so the
      // session cannot be re-admitted. Abandon it (checkpoints are kept for
      // forensics) rather than rescanning it forever.
      RemoveIfPresent(manifest_path);
      abandoned_counter->Add(1);
      continue;
    }
    if (spec->recovery_attempts >= options_.max_recovery_attempts) {
      RemoveIfPresent(manifest_path);
      abandoned_counter->Add(1);
      continue;
    }
    spec->recovery_attempts += 1;
    // Persist the incremented attempt count *before* re-running: a crash
    // during the re-run must see the attempt as spent, or a session that
    // reliably crashes the process would recovery-loop forever.
    if (!SaveSessionManifest(*spec, manifest_path).ok()) continue;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_ || active_ids_.count(id) != 0) continue;
      active_ids_.insert(id);
      Pending item;
      item.spec = std::move(*spec);
      item.enqueued = std::chrono::steady_clock::now();
      item.recovered = true;
      // Recovered sessions bypass the shed check: they hold an admission
      // already (their manifest survived), and the sweep runs at startup
      // when the queue is empty.
      queue_.push_back(std::move(item));
      work_cv_.notify_one();
    }
    recovered_counter->Add(1);
    ++recovered;
  }
  return recovered;
}

void SessionSupervisor::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    return queue_.empty() && running_.empty() && admitting_ == 0;
  });
}

void SessionSupervisor::BeginDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_) return;
  draining_ = true;
  // Graceful stop only: every running session checkpoints at its next round
  // boundary and reports kCancelled with its manifest intact, so the next
  // process's recovery sweep resumes it bit-exactly.
  for (auto& entry : running_) entry.second->token.RequestStop();
  work_cv_.notify_all();
}

void SessionSupervisor::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    work_cv_.notify_all();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(mu_);
    watchdog_stop_ = true;
    watchdog_cv_.notify_all();
  }
  if (watchdog_.joinable()) watchdog_.join();
}

std::size_t SessionSupervisor::running_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_.size();
}

std::size_t SessionSupervisor::queued_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

bool SessionSupervisor::IsActive(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_ids_.count(id) != 0;
}

bool SessionSupervisor::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

std::vector<SessionReport> SessionSupervisor::Reports() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reports_;
}

bool SessionSupervisor::FindReport(const std::string& id,
                                   SessionReport* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = reports_.rbegin(); it != reports_.rend(); ++it) {
    if (it->id == id) {
      *out = *it;
      return true;
    }
  }
  return false;
}

void SessionSupervisor::WorkerLoop() {
  auto& reg = MetricsRegistry::Global();
  static Counter* completed = reg.GetCounter("supervisor.completed");
  static Counter* evicted = reg.GetCounter("supervisor.evicted");
  static Counter* cancelled = reg.GetCounter("supervisor.cancelled");
  static Counter* failed = reg.GetCounter("supervisor.failed");
  static Histogram* queue_wait =
      reg.GetHistogram("supervisor.queue_wait_seconds");
  static Histogram* session_seconds =
      reg.GetHistogram("supervisor.session_seconds");
  for (;;) {
    Pending item;
    Running* run = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] {
        return stopping_ || draining_ || !queue_.empty();
      });
      // Draining: leave queued admissions untouched — their manifests are
      // durable and the next process's recovery sweep re-admits them.
      if (draining_) return;
      if (queue_.empty()) return;  // stopping_ set and queue drained.
      item = std::move(queue_.front());
      queue_.pop_front();
      auto owned = std::make_unique<Running>();
      const long deadline_ms = item.spec.deadline_ms > 0
                                   ? item.spec.deadline_ms
                                   : options_.default_deadline_ms;
      owned->deadline = deadline_ms > 0 ? Deadline::AfterMillis(deadline_ms)
                                        : Deadline::Infinite();
      run = owned.get();
      running_[item.spec.id] = std::move(owned);
    }
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      item.enqueued)
            .count();
    SessionReport report = RunOne(item, run);
    report.queue_wait_seconds = waited;
    queue_wait->Observe(waited);
    session_seconds->Observe(report.run_seconds);
    switch (report.outcome) {
      case SessionOutcome::kCompleted:
        completed->Add(1);
        break;
      case SessionOutcome::kEvicted:
        evicted->Add(1);
        break;
      case SessionOutcome::kCancelled:
        cancelled->Add(1);
        break;
      case SessionOutcome::kFailed:
        failed->Add(1);
        break;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      running_.erase(report.id);
      active_ids_.erase(report.id);
      reports_.push_back(std::move(report));
      if (queue_.empty() && running_.empty() && admitting_ == 0) {
        idle_cv_.notify_all();
      }
    }
  }
}

void SessionSupervisor::WatchdogLoop() {
  auto& reg = MetricsRegistry::Global();
  static Counter* graceful = reg.GetCounter("supervisor.watchdog_graceful");
  static Counter* hard = reg.GetCounter("supervisor.watchdog_hard");
  std::unique_lock<std::mutex> lock(mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, options_.watchdog_poll);
    if (watchdog_stop_) break;
    const auto now = std::chrono::steady_clock::now();
    for (auto& entry : running_) {
      Running& run = *entry.second;
      if (run.escalation >= 2) continue;
      if (run.escalation == 1) {
        // Graceful was sent; a session stuck inside a round (hung oracle,
        // diverging solver) cannot observe it — escalate to the hard stop,
        // which inner loops and StallOracle-style transports do poll.
        if (now - run.escalated_at >= options_.watchdog_hard_grace) {
          run.token.RequestHardStop();
          run.escalation = 2;
          hard->Add(1);
        }
        continue;
      }
      if (!run.deadline.has_deadline() || !run.deadline.expired()) continue;
      if (!run.expired_seen) {
        // First observation past the deadline: start the grace clock; the
        // session's own round-boundary check normally wins this race.
        run.expired_seen = true;
        run.expired_seen_at = now;
        continue;
      }
      if (now - run.expired_seen_at >= options_.watchdog_grace) {
        run.token.RequestStop();
        run.escalation = 1;
        run.escalated_at = now;
        graceful->Add(1);
      }
    }
  }
}

SessionReport SessionSupervisor::RunOne(const Pending& item, Running* run) {
  const SessionSpec& spec = item.spec;
  SessionReport report;
  report.id = spec.id;
  report.recovered = item.recovered;
  Timer run_timer;
  const auto fail = [&](const Status& status) {
    report.outcome = SessionOutcome::kFailed;
    report.status = status;
    report.run_seconds = run_timer.ElapsedSeconds();
    RemoveIfPresent(SessionManifestPath(options_.sessions_dir, spec.id));
    return report;
  };

  auto model = MakeFusionModel(spec.model);
  if (!model.ok()) return fail(model.status());
  // Cap the session's lookahead threads so workers x threads stays within
  // the host budget: each of the max_concurrent_sessions workers may run a
  // session concurrently, so every session gets an equal share.
  std::size_t total_threads = options_.max_total_threads;
  if (total_threads == 0) {
    total_threads = std::thread::hardware_concurrency();
    if (total_threads == 0) total_threads = 1;
  }
  const std::size_t workers =
      options_.max_concurrent_sessions > 0 ? options_.max_concurrent_sessions
                                           : 1;
  const std::size_t share = std::max<std::size_t>(1, total_threads / workers);
  const std::size_t effective_threads =
      std::max<std::size_t>(1, std::min(spec.threads, share));
  auto strategy = MakeStrategy(spec.strategy, effective_threads);
  if (!strategy.ok()) return fail(strategy.status());
  auto base_oracle = MakeOracle(spec.oracle);
  if (!base_oracle.ok()) return fail(base_oracle.status());

  // Oracle chain, innermost out: base -> flaky faults -> stalled transport
  // -> retries. The stall sits outside the fault injector so a hang session
  // really hangs (injected faults cannot pre-empt it), and inside the retry
  // layer so retried calls pay the transport cost again.
  FeedbackOracle* tip = base_oracle->get();
  std::unique_ptr<FlakyOracle> flaky;
  if (!spec.flaky_plan.empty()) {
    auto plan = ParseFaultPlan(spec.flaky_plan);
    if (!plan.ok()) return fail(plan.status());
    flaky = std::make_unique<FlakyOracle>(tip, *plan, spec.seed);
    tip = flaky.get();
  }
  std::unique_ptr<StallOracle> stall;
  if (spec.stall_seconds > 0.0) {
    stall = std::make_unique<StallOracle>(tip, &run->token,
                                          spec.stall_seconds);
    tip = stall.get();
  }
  std::unique_ptr<RetryingOracle> retrying;
  if (spec.retries > 0) {
    RetryPolicy policy;
    policy.max_attempts = spec.retries + 1;
    policy.session_deadline = run->deadline;
    policy.cancel = &run->token;
    retrying = std::make_unique<RetryingOracle>(tip, policy);
    tip = retrying.get();
  }

  SessionOptions session_options;
  session_options.fusion.use_delta_fusion = spec.use_delta_fusion;
  session_options.max_validations = spec.max_validations;
  session_options.batch_size = spec.batch_size;
  session_options.checkpoint_path =
      SessionCheckpointPath(options_.sessions_dir, spec.id);
  session_options.resume_path = session_options.checkpoint_path;
  session_options.checkpoint_every_rounds = 1;
  session_options.cancel = &run->token;
  session_options.deadline = run->deadline;
  session_options.budget =
      spec.budget.limited() ? spec.budget : options_.default_budget;
  report.resumed = FileExists(session_options.resume_path);

  Rng rng(spec.seed);
  FeedbackSession session(db_, **model, strategy->get(), tip, truth_,
                          session_options, &rng);
  auto trace = session.Run();
  report.run_seconds = run_timer.ElapsedSeconds();
  report.status = trace.status();

  if (trace.ok()) {
    report.outcome = SessionOutcome::kCompleted;
    report.rounds = trace->steps.size();
    report.num_validated =
        trace->steps.empty() ? 0 : trace->steps.back().num_validated;
    if (options_.keep_traces) report.trace = std::move(*trace);
    // Terminal success: nothing left to recover or resume.
    RemoveIfPresent(SessionManifestPath(options_.sessions_dir, spec.id));
    RemoveCheckpointChain(session_options.checkpoint_path);
    return report;
  }
  switch (trace.status().code()) {
    case StatusCode::kResourceExhausted:
      // Budget eviction: checkpointed by the session; manifest stays so the
      // recovery sweep (or an operator) can resume it.
      report.outcome = SessionOutcome::kEvicted;
      return report;
    case StatusCode::kDeadlineExceeded:
      // Deadline / watchdog / operator stop; also checkpointed + resumable.
      report.outcome = SessionOutcome::kCancelled;
      return report;
    default:
      // Hard error: keep the checkpoint for forensics but drop the manifest
      // so recovery does not re-run a deterministic failure.
      return fail(trace.status());
  }
}

}  // namespace veritas
