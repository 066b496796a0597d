// job_queue.hpp — the daemon's multi-tenant job scheduler.
//
// Requirements (tentpole spec): FIFO order *within* a tenant, fair
// round-robin *across* tenants, a per-tenant in-flight cap so one chatty
// client cannot monopolize the executor pool, and cancel/status on every
// job. The queue is the synchronization point between connection threads
// (submit/cancel/status/wait) and executor threads (pop/complete); it
// holds opaque payloads — the server decodes and runs them — so it is
// testable without sockets or sessions.
//
// Fairness model: tenants are rotated in first-appearance order. pop()
// scans one full rotation starting after the last-served tenant and takes
// the head of the first tenant queue whose in-flight count is under the
// cap. A tenant at its cap is skipped, not blocked on — other tenants'
// work proceeds.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace hpf90d::serve {

enum class JobState { Queued, Running, Done, Failed, Cancelled };

[[nodiscard]] const char* job_state_name(JobState s) noexcept;

struct Job {
  std::uint64_t id = 0;
  std::string tenant;
  bool is_study = false;     // SubmitStudy vs SubmitPlan
  std::string payload;       // encoded plan (opaque to the queue)
  JobState state = JobState::Queued;
  std::string result;        // encoded outcome once terminal
  /// Steady-clock nanoseconds at submit — the server turns pop-minus-submit
  /// into an obs::Phase::QueueWait span and the queue-wait histogram.
  std::uint64_t submitted_ns = 0;
};

class JobQueue {
 public:
  /// `tenant_inflight`: max jobs of one tenant running at once (>= 1).
  /// `tenant_queued`: max jobs of one tenant waiting (submit beyond it
  /// throws std::runtime_error — backpressure surfaces to the client as
  /// an Error frame).
  explicit JobQueue(std::size_t tenant_inflight = 1, std::size_t tenant_queued = 64);

  /// Enqueues and returns the job id (ids are dense, starting at 1).
  std::uint64_t submit(std::string tenant, bool is_study, std::string payload);

  /// Blocks until a job is runnable under the fairness policy or the
  /// queue shuts down (nullopt). The returned copy is already marked
  /// Running.
  [[nodiscard]] std::optional<Job> pop();

  /// Marks a Running job terminal and publishes its encoded outcome.
  void complete(std::uint64_t id, JobState terminal, std::string result);

  /// Cancels a Queued job (removes it from its tenant's queue). Returns
  /// false when the job is already running or terminal — cancellation is
  /// not preemptive.
  bool cancel(std::uint64_t id);

  [[nodiscard]] std::optional<JobState> status(std::uint64_t id) const;

  /// Blocks until the job reaches a terminal state and returns it;
  /// nullopt for unknown ids or when the queue shuts down first.
  [[nodiscard]] std::optional<Job> wait(std::uint64_t id);

  /// Wakes all waiters; pop() returns nullopt from now on. Queued jobs
  /// are marked Cancelled.
  void shutdown();

  [[nodiscard]] std::size_t queued() const;
  [[nodiscard]] std::size_t running() const;
  /// submitted/done/failed/cancelled lifetime counters.
  struct Counters {
    std::size_t submitted = 0, done = 0, failed = 0, cancelled = 0;
  };
  [[nodiscard]] Counters counters() const;

 private:
  struct Tenant {
    std::deque<std::uint64_t> fifo;  // queued job ids, submit order
    std::size_t inflight = 0;
  };

  const std::size_t tenant_inflight_;
  const std::size_t tenant_queued_;

  mutable std::mutex mutex_;
  std::condition_variable runnable_;   // pop() waiters
  std::condition_variable terminal_;   // wait() waiters
  std::map<std::uint64_t, Job> jobs_;
  std::map<std::string, Tenant> tenants_;
  std::vector<std::string> rotation_;  // tenants in first-appearance order
  std::size_t next_tenant_ = 0;        // rotation cursor (last served + 1)
  std::uint64_t next_id_ = 1;
  bool shutdown_ = false;
  Counters counters_;
};

}  // namespace hpf90d::serve
