// client.hpp — thin synchronous client for the experiment daemon.
//
// A ServeClient is one tenant's connection: connect() performs the Hello
// handshake, submit() ships a plan or study (encoded by plan_codec) and
// returns the job id, wait() blocks until the job is terminal and
// reassembles the result — RunReport::from_csv / StudyResult::from_csv on
// the deterministic CSV body, plus the cache stats and wall time carried
// alongside — so a served report is the same object a local Session::run
// would have returned, byte-identical CSV included.
//
// The client stays synchronous — one in-flight request per connection,
// blocking replies — but it survives daemon restarts: connect(), submit(),
// status(), stats() and metrics() retry transport failures with bounded
// exponential backoff (RetryPolicy), re-handshaking on a fresh socket each
// attempt. Retries are transport-level only: a server refusal (Error
// frame) is never retried, and wait()/cancel() never retry a send that may
// already have been acted on. A restarted daemon forgets job ids, so a
// retried status() for a pre-restart job surfaces "unknown job" — callers
// resubmit (submit() is safe to retry: a duplicate submit is coalesced
// server-side by content address). Not thread-safe; use one ServeClient
// per thread (tenants are free to open many connections).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/experiment_plan.hpp"
#include "api/run_report.hpp"
#include "serve/plan_codec.hpp"
#include "serve/wire.hpp"
#include "study/study_plan.hpp"
#include "study/study_result.hpp"

namespace hpf90d::serve {

/// Terminal result of a served job, reassembled client-side.
struct JobResult {
  std::string state;  // "done" | "failed" | "cancelled"
  bool is_study = false;
  std::string error;          // failed jobs
  double wall_seconds = 0;    // server-side sweep wall time
  api::RunReport report;      // plan jobs (empty otherwise)
  study::StudyResult study;   // study jobs (empty otherwise)

  [[nodiscard]] bool ok() const noexcept { return state == "done"; }
};

/// Bounded reconnect policy for transport failures (WireError): up to
/// `attempts` tries total, sleeping backoff_ms * 2^i between them.
/// attempts <= 1 restores the old fail-fast behaviour.
struct RetryPolicy {
  int attempts = 3;
  int backoff_ms = 50;
};

class ServeClient {
 public:
  /// Does not connect; call connect().
  ServeClient(std::string socket_path, std::string tenant);
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Connects and performs the Hello handshake, retrying per the policy.
  /// Throws WireError when every attempt fails.
  void connect();

  void set_retry(RetryPolicy policy) noexcept { retry_ = policy; }
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }
  void close();

  /// Submits; returns the job id. Throws WireError on transport errors
  /// and std::runtime_error when the server refuses (queue full).
  std::uint64_t submit(const api::ExperimentPlan& plan);
  std::uint64_t submit(const study::StudyPlan& plan);

  /// Blocks until the job is terminal and reassembles the outcome.
  [[nodiscard]] JobResult wait(std::uint64_t job_id);

  /// "queued" | "running" | "done" | "failed" | "cancelled"; throws
  /// std::runtime_error for unknown ids.
  [[nodiscard]] std::string status(std::uint64_t job_id);

  /// True when the job was still queued and is now cancelled.
  bool cancel(std::uint64_t job_id);

  [[nodiscard]] ServerStats stats();

  /// Prometheus text exposition of the daemon's live metrics (queue depth,
  /// lockstep occupancy, spill hit ratio, per-job wall-time histograms —
  /// see the README's Observability section).
  [[nodiscard]] std::string metrics();

  /// Polls `count` ServerStats snapshots spaced `interval_ms` apart over
  /// one StatsStream request (count 1..1000, interval <= 10000ms; the
  /// server rejects more). With `on_change` the daemon still samples
  /// `count` times but pushes only snapshots whose activity counters moved
  /// since the last push (the first always arrives), so an idle daemon
  /// returns a single snapshot. A daemon shutting down mid-stream may
  /// return fewer snapshots than requested.
  [[nodiscard]] std::vector<ServerStats> stats_stream(int count, int interval_ms,
                                                      bool on_change = false);

  /// Asks the daemon to shut down (acknowledged before it stops).
  void shutdown_server();

 private:
  /// One request/reply round trip (no retry — a dead peer throws).
  [[nodiscard]] Frame roundtrip(const Frame& request);
  /// roundtrip with bounded reconnect-and-retry on transport failure.
  /// Only used for requests that are safe to re-send (see file comment).
  [[nodiscard]] Frame roundtrip_retrying(const Frame& request);
  /// One socket + handshake attempt (the old connect()).
  void connect_once();

  std::string socket_path_;
  std::string tenant_;
  RetryPolicy retry_;
  int fd_ = -1;
};

}  // namespace hpf90d::serve
