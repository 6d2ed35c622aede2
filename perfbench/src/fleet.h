// The serve probe of the benchmark: an in-process SessionSupervisor behind
// a NetServer on loopback TCP, driven by an open-loop client. Sessions are
// due at Poisson arrival times (conditioned on the session count); a small
// fixed pool of client threads (one connection each at a time) submits them
// when due and polls each for its terminal report. Latency is timed from the
// due time, so a late generator or a stall charges every session queued
// behind it.
#ifndef PERFBENCH_FLEET_H_
#define PERFBENCH_FLEET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "model/database.h"
#include "model/ground_truth.h"
#include "serve/session_manifest.h"
#include "spans.h"
#include "util/result.h"

namespace perfbench {

/// Load of the serve probe: a few sessions at a low rate, so only the
/// per-session costs of the snapshot's shape show.
inline constexpr double kProbeRate = 4.0;        ///< Offered sessions per s.
inline constexpr std::size_t kProbeSessions = 8;
inline constexpr std::size_t kProbeWorkers = 2;  ///< Supervisor workers.
inline constexpr std::size_t kProbeClients = 2;  ///< Client threads.
inline constexpr double kPollSeconds = 0.002;    ///< Minimum poll interval.
inline constexpr double kDrainSeconds = 20.0;    ///< Give up this long after
                                                 ///< the last due time.

struct FleetConfig {
  veritas::SessionSpec spec;  ///< Template; the id is set per session.
  std::uint64_t seed = 1;     ///< Arrival schedule.
  std::string dir;            ///< Supervisor sessions directory.
};

struct PhaseCounts {
  std::size_t sent = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;
};

struct FleetResult {
  veritas::Status status;  ///< Server start failure; sessions not run.
  std::size_t attempted = 0;
  std::size_t completed = 0;     ///< Terminal report with outcome completed.
  std::size_t shed = 0;          ///< Submit refused with ResourceExhausted.
  std::size_t typed_errors = 0;  ///< Any other typed error or outcome.
  std::size_t client_errors = 0; ///< Transport failure after retries.
  std::size_t timed_out = 0;     ///< No terminal report before the drain.
  std::size_t wrong_validations = 0;  ///< Completed with != budget items.
  std::vector<double> latency;   ///< Completed sessions, due -> report.
  std::vector<double> queue_wait;
  std::vector<double> run;
  std::vector<double> lateness;  ///< Submit send time - due time.
  std::vector<double> submit_rpc;
  std::vector<double> report_rpc;
  std::vector<double> polls;     ///< Report calls per completed session.
  PhaseCounts submit, poll, report;
  std::uint64_t retries = 0;     ///< net.retries growth.
  std::uint64_t instruments = 0; ///< MetricsRegistry instrument growth.
  double failed() const {
    return static_cast<double>(attempted - completed);
  }
};

FleetResult RunFleet(const veritas::Database& db,
                     const veritas::GroundTruth& truth,
                     const FleetConfig& config, SpanRecorder* spans);

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_H_
