#include "fleet.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <queue>
#include <random>
#include <string>
#include <thread>

#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "record.h"
#include "serve/session_supervisor.h"

namespace perfbench {

namespace {

struct Server {
  std::unique_ptr<veritas::SessionSupervisor> supervisor;
  std::unique_ptr<veritas::net::NetServer> net;

  ~Server() {
    if (net) net->Stop();
    if (supervisor) supervisor->Shutdown();
  }
};

veritas::Status StartServer(const veritas::Database& db,
                            const veritas::GroundTruth& truth,
                            const FleetConfig& config, Server* server) {
  std::filesystem::create_directories(config.dir);
  veritas::SupervisorOptions options;
  options.max_concurrent_sessions = kProbeWorkers;
  options.max_queue_depth = 256;
  options.sessions_dir = config.dir;
  options.max_total_threads = kProbeWorkers;
  server->supervisor =
      std::make_unique<veritas::SessionSupervisor>(db, truth, options);
  VERITAS_RETURN_IF_ERROR(server->supervisor->Start());
  veritas::net::NetServerOptions net_options;
  net_options.address.host = "127.0.0.1";
  net_options.address.port = 0;
  server->net = std::make_unique<veritas::net::NetServer>(
      server->supervisor.get(), net_options);
  return server->net->Start();
}

std::string Field(const veritas::net::NetResponse& r, const std::string& k) {
  const auto it = r.fields.find(k);
  return it == r.fields.end() ? "" : it->second;
}

double DoubleField(const veritas::net::NetResponse& r, const std::string& k) {
  const std::string v = Field(r, k);
  return v.empty() ? 0.0 : std::strtod(v.c_str(), nullptr);
}

std::uint64_t InstrumentCount() {
  const veritas::MetricsSnapshot snap =
      veritas::MetricsRegistry::Global().Snapshot();
  return snap.counters.size() + snap.gauges.size() + snap.histograms.size();
}

const std::string kIdPrefix = "p";  ///< Serve probe session ids.

struct Task {
  double due = 0.0;
  std::size_t session = 0;
  bool submit = true;
  bool operator>(const Task& other) const { return due > other.due; }
};

struct SessionState {
  std::string id;
  double due = 0.0;
  std::size_t polls = 0;
  std::int64_t root = -1;
  bool terminal = false;
};

}  // namespace

FleetResult RunFleet(const veritas::Database& db,
                     const veritas::GroundTruth& truth,
                     const FleetConfig& config, SpanRecorder* spans) {
  FleetResult result;
  result.attempted = kProbeSessions;
  const std::uint64_t instruments_before = InstrumentCount();
  veritas::Counter* retries =
      veritas::MetricsRegistry::Global().GetCounter("net.retries");
  const std::uint64_t retries_before = retries->value();

  Server server;
  result.status = StartServer(db, truth, config, &server);
  if (!result.status.ok()) return result;

  // Poisson arrivals conditioned on `sessions` arrivals in a window of
  // sessions / rate seconds: sorted uniform offsets. The window, and so the
  // offered rate, is then exact for every seed.
  std::mt19937_64 gen(config.seed);
  const double window = static_cast<double>(kProbeSessions) / kProbeRate;
  std::uniform_real_distribution<double> offset(0.0, window);
  std::vector<double> offsets(kProbeSessions);
  for (double& o : offsets) o = offset(gen);
  std::sort(offsets.begin(), offsets.end());
  std::vector<SessionState> sessions(kProbeSessions);
  std::priority_queue<Task, std::vector<Task>, std::greater<Task>> tasks;
  const double origin = Now() + 0.05;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    sessions[i].id = kIdPrefix + std::to_string(i);
    sessions[i].due = origin + offsets[i];
    tasks.push(Task{sessions[i].due, i, true});
  }
  const double give_up = origin + window + kDrainSeconds;

  std::mutex mu;
  std::condition_variable cv;
  std::size_t outstanding = sessions.size();

  veritas::net::NetClientOptions client_options;
  client_options.address = server.net->bound_address();
  client_options.request_timeout_ms = 5000;

  // Everything below that touches `result`, `sessions` or `tasks` holds mu.
  const auto finish = [&](SessionState& s) {
    s.terminal = true;
    --outstanding;
    if (spans != nullptr && s.root >= 0) spans->End(s.root);
    cv.notify_all();
  };
  const auto execute = [&](veritas::net::NetClient& client, const Task& task) {
    SessionState& s = sessions[task.session];
    const double send = Now();
    std::int64_t span = -1;
    if (task.submit) {
      if (spans != nullptr) {
        s.root = spans->Add("serve.session", s.id, s.due, s.due, -1);
        spans->Add("bench.generator_late", s.id, s.due, send, s.root);
        span = spans->Begin("net.submit", s.id, s.root);
      }
      veritas::SessionSpec spec = config.spec;
      spec.id = s.id;
      auto response = client.Submit(spec);
      const double done = Now();
      if (spans != nullptr) spans->End(span);
      std::lock_guard<std::mutex> lock(mu);
      ++result.submit.sent;
      result.lateness.push_back(send - s.due);
      result.submit_rpc.push_back(done - send);
      if (!response.ok()) {
        ++result.submit.failed;
        ++result.client_errors;
        finish(s);
      } else if (!response->status.ok()) {
        ++result.submit.failed;
        if (response->status.code() ==
            veritas::StatusCode::kResourceExhausted) {
          ++result.shed;
        } else {
          ++result.typed_errors;
        }
        finish(s);
      } else {
        ++result.submit.succeeded;
        tasks.push(Task{done + kPollSeconds, task.session, false});
        cv.notify_all();
      }
      return;
    }
    if (spans != nullptr) span = spans->Begin("net.report", s.id, s.root);
    auto response = client.Report(s.id);
    const double done = Now();
    if (spans != nullptr) spans->End(span);
    std::lock_guard<std::mutex> lock(mu);
    ++s.polls;
    const bool terminal = response.ok() && response->status.ok() &&
                          Field(*response, "state") == "done";
    PhaseCounts& phase = terminal ? result.report : result.poll;
    ++phase.sent;
    if (!response.ok()) {
      ++phase.failed;
      ++result.client_errors;
      finish(s);
      return;
    }
    if (!response->status.ok()) {
      ++phase.failed;
      ++result.typed_errors;
      finish(s);
      return;
    }
    ++phase.succeeded;
    if (!terminal) {
      // Poll every poll_seconds, or a tenth of the session's age if that is
      // longer: quantization stays under 10% of any latency, and a backlog
      // does not multiply the poll load that slows the server further.
      const double interval =
          std::max(kPollSeconds, 0.1 * (done - s.due));
      tasks.push(Task{done + interval, task.session, false});
      cv.notify_all();
      return;
    }
    result.report_rpc.push_back(done - send);
    if (Field(*response, "outcome") != "completed") {
      ++result.typed_errors;
      finish(s);
      return;
    }
    const double latency = done - s.due;
    const double queue = DoubleField(*response, "queue_wait_seconds");
    const double run = DoubleField(*response, "run_seconds");
    ++result.completed;
    if (std::strtoull(Field(*response, "num_validated").c_str(), nullptr,
                      10) != config.spec.max_validations) {
      ++result.wrong_validations;
    }
    result.latency.push_back(latency);
    result.queue_wait.push_back(queue);
    result.run.push_back(run);
    result.polls.push_back(static_cast<double>(s.polls));
    finish(s);
  };

  const auto client_loop = [&] {
    veritas::net::NetClient client(client_options);
    std::unique_lock<std::mutex> lock(mu);
    while (outstanding > 0) {
      const double now = Now();
      if (now > give_up) break;
      if (tasks.empty()) {
        cv.wait_for(lock, std::chrono::milliseconds(50));
        continue;
      }
      const Task task = tasks.top();
      if (task.due > now) {
        cv.wait_for(lock, std::chrono::duration<double>(task.due - now));
        continue;
      }
      tasks.pop();
      lock.unlock();
      execute(client, task);
      lock.lock();
    }
    cv.notify_all();
  };
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kProbeClients; ++t) {
    clients.emplace_back(client_loop);
  }
  for (std::thread& t : clients) t.join();

  for (const SessionState& s : sessions) {
    if (!s.terminal) ++result.timed_out;
  }
  result.retries = retries->value() - retries_before;
  result.instruments = InstrumentCount() - instruments_before;
  return result;
}

}  // namespace perfbench
