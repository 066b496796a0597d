// server.hpp — the long-lived multi-tenant experiment daemon.
//
// One ExperimentServer owns ONE api::Session — one hot program cache, one
// content-addressed layout store, one machine registry — shared by every
// tenant, which is the point of the service: the second tenant to sweep a
// Laplace plan hits the layouts the first one built. Around the session it
// runs
//
//   * an accept loop on a Unix-domain socket, one handler thread per
//     connection, speaking the framed protocol (wire.hpp / plan_codec.hpp),
//   * a JobQueue scheduling submitted plans fairly across tenants
//     (per-tenant FIFO, round-robin, in-flight caps), and
//   * a pool of executor threads running jobs through Session::run — each
//     job itself fans out on the session's worker pool.
//
// When ServerOptions::artifact_dir is set, an ArtifactStore is attached as
// the session's spill tier and warm_start() runs before the first accept:
// a killed-and-restarted daemon recompiles persisted program recipes and
// lazily reloads layouts from disk, so a previously-seen plan is served
// with cache hits — and a byte-identical report — instead of cold builds.
//
// The server never trusts payload bytes: malformed frames drop the
// connection, malformed plans fail the job with an Error/Failed outcome,
// and both leave the daemon serving other tenants.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "serve/artifact_store.hpp"
#include "serve/job_queue.hpp"
#include "serve/plan_codec.hpp"

namespace hpf90d::serve {

struct ServerOptions {
  std::string socket_path;  // required; unlinked+rebound on start
  /// Artifact spill root; empty disables persistence.
  std::string artifact_dir;
  /// Executor threads (concurrent jobs). Tenant fairness is decided by the
  /// queue; this is raw job parallelism.
  int executors = 2;
  /// RunOptions::workers for each job's sweep (0 = hardware concurrency).
  /// The default 1 keeps per-job determinism obvious; large sweeps want 0.
  int job_workers = 1;
  /// JobQueue per-tenant caps.
  std::size_t tenant_inflight = 1;
  std::size_t tenant_queued = 64;
  /// Session machine-model size (max simulated nodes).
  int max_nodes = 64;
  /// Tracing: when true (the default) the daemon keeps an obs::Tracer
  /// attached to its session, recording compile/layout/lockstep/queue/job
  /// spans into a bounded ring of `trace_capacity` spans (oldest
  /// overwritten — fixed memory forever). Reports are byte-identical
  /// either way; tracing only observes timings.
  bool trace = true;
  std::size_t trace_capacity = 1 << 14;
  /// Slow jobs: a job whose sweep wall time reaches this threshold is
  /// counted in ServerStats::slow_jobs. 0 disables the count.
  int slow_job_ms = 0;
};

class ExperimentServer {
 public:
  explicit ExperimentServer(ServerOptions options);
  /// stop()s if still running.
  ~ExperimentServer();

  ExperimentServer(const ExperimentServer&) = delete;
  ExperimentServer& operator=(const ExperimentServer&) = delete;

  /// Binds the socket, warm-starts from the artifact store, spawns the
  /// accept loop and executors. Throws std::runtime_error on bind
  /// failures. Idempotent while running.
  void start();

  /// Stops accepting, shuts the queue down (queued jobs cancel, running
  /// jobs finish), joins every thread, removes the socket. Idempotent.
  void stop();

  /// True once a Shutdown frame (or stop()) was seen. The daemon's main
  /// loop polls this and then calls stop() — a connection thread cannot
  /// join itself.
  [[nodiscard]] bool stop_requested() const noexcept { return stopping_.load(); }
  /// Programs recompiled from persisted recipes during start().
  [[nodiscard]] std::size_t warmed_programs() const noexcept { return warmed_; }

  /// Snapshot of the daemon counters (the StatsReply payload).
  [[nodiscard]] ServerStats stats() const;

  /// The daemon's span ring (always constructed; only attached to the
  /// session when ServerOptions::trace is set).
  [[nodiscard]] obs::Tracer& tracer() noexcept { return tracer_; }

  /// Prometheus text exposition for the MetricsReply frame: refreshes the
  /// snapshot gauges (queue depth, occupancy, spill hit ratio, ...) from
  /// stats() and renders the registry. Deterministic for equal daemon
  /// state.
  [[nodiscard]] std::string metrics_text();

 private:
  /// A job currently executing, keyed by its content address (the encoded
  /// payload — encode_plan is a fixpoint, so byte equality means plan
  /// equality). Executors popping an identical payload wait here and share
  /// the leader's outcome instead of re-running the sweep: different
  /// tenants submitting the same plan cost one run.
  struct Inflight {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    JobState terminal = JobState::Done;
    std::string result;
  };

  void accept_loop();
  void executor_loop();
  void handle_connection(int fd);
  /// Decodes and runs one job, producing its encoded outcome.
  [[nodiscard]] std::string execute(const Job& job, JobState& terminal);
  /// Streams `count` StatsReply frames at `interval_ms` spacing, then
  /// StatsStreamEnd (the StatsStream frame handler). With the optional
  /// `changed` flag in the request, samples `count` times but only pushes
  /// snapshots whose activity counters moved since the last push (the
  /// first snapshot is always pushed), so an idle daemon costs one frame.
  void stream_stats(int fd, const std::string& request);

  ServerOptions options_;
  api::Session session_;
  std::shared_ptr<ArtifactStore> store_;  // null without artifact_dir
  JobQueue queue_;
  std::size_t warmed_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  std::thread acceptor_;
  std::vector<std::thread> executors_;
  std::mutex conn_mutex_;
  std::vector<std::thread> connections_;

  std::mutex inflight_mutex_;
  std::map<std::string, std::shared_ptr<Inflight>> inflight_;

  // batch telemetry, summed over every job this daemon ran (ServerStats)
  std::atomic<std::size_t> jobs_coalesced_{0};
  std::atomic<std::size_t> points_batched_{0};
  std::atomic<std::size_t> points_scalar_{0};
  std::atomic<std::size_t> points_replayed_{0};
  std::atomic<std::uint64_t> batch_ir_visits_{0};
  std::atomic<std::uint64_t> batch_lane_visits_{0};
  std::atomic<std::uint64_t> lanes_evicted_{0};
  std::atomic<std::uint64_t> simd_stripes_{0};

  // observability: span ring, metrics registry, slow-job count
  obs::Tracer tracer_;
  obs::Registry metrics_;
  std::atomic<std::size_t> slow_jobs_{0};
};

}  // namespace hpf90d::serve
