#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "serve/wire.hpp"
#include "study/study_plan.hpp"
#include "support/codec.hpp"
#include "support/text.hpp"

namespace hpf90d::serve {

namespace {

/// Parses a decimal job id; 0 (never issued) on malformed input.
std::uint64_t parse_job_id(const std::string& payload) {
  return support::parse_uint(payload).value_or(0);
}

}  // namespace

ExperimentServer::ExperimentServer(ServerOptions options)
    : options_(std::move(options)),
      session_(options_.max_nodes),
      queue_(options_.tenant_inflight, options_.tenant_queued),
      tracer_(options_.trace_capacity) {}

ExperimentServer::~ExperimentServer() { stop(); }

void ExperimentServer::start() {
  if (running_.load()) return;
  if (options_.socket_path.empty()) {
    throw std::runtime_error("ExperimentServer: socket_path is required");
  }

  // The tracer outlives every session operation (both are daemon members),
  // so attaching here is safe; with trace off the session keeps a null sink
  // and every span stays a predicted branch.
  session_.set_trace_sink(options_.trace ? &tracer_ : nullptr);

  if (!options_.artifact_dir.empty()) {
    store_ = std::make_shared<ArtifactStore>(options_.artifact_dir);
    session_.set_artifact_spill(store_);
    // Recompile persisted recipes before the first client connects: a
    // previously-seen plan then compile-hits on every variant, and its
    // layouts stream back from the spill on first touch.
    warmed_ = session_.warm_start();
  }

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("ExperimentServer: socket path too long: " +
                             options_.socket_path);
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("ExperimentServer: socket: ") +
                             std::strerror(errno));
  }
  ::unlink(options_.socket_path.c_str());  // stale socket from a kill -9
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listen_fd_, 16) < 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("ExperimentServer: cannot listen on " +
                             options_.socket_path + ": " + why);
  }

  stopping_.store(false);
  running_.store(true);
  acceptor_ = std::thread([this] { accept_loop(); });
  const int n = options_.executors < 1 ? 1 : options_.executors;
  executors_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    executors_.emplace_back([this] { executor_loop(); });
  }
}

void ExperimentServer::stop() {
  if (!running_.load() && !acceptor_.joinable()) return;
  stopping_.store(true);
  queue_.shutdown();
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& t : executors_) {
    if (t.joinable()) t.join();
  }
  executors_.clear();
  {
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    for (auto& t : connections_) {
      if (t.joinable()) t.join();
    }
    connections_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(options_.socket_path.c_str());
  running_.store(false);
}

void ExperimentServer::accept_loop() {
  while (!stopping_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 100);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    connections_.emplace_back([this, fd] { handle_connection(fd); });
  }
}

void ExperimentServer::handle_connection(int fd) {
  std::string tenant = "anonymous";
  try {
    while (!stopping_.load()) {
      Frame request;
      const ReadStatus st = try_read_frame(fd, request, 200);
      if (st == ReadStatus::Timeout) continue;  // re-check stopping_
      if (st == ReadStatus::Eof) break;

      Frame reply;
      switch (request.type) {
        case MsgType::Hello: {
          if (!request.payload.empty()) tenant = request.payload;
          reply.type = MsgType::HelloAck;
          reply.payload = "hpf90d-serve 1";
          break;
        }
        case MsgType::SubmitPlan:
        case MsgType::SubmitStudy: {
          const bool is_study = request.type == MsgType::SubmitStudy;
          try {
            const std::uint64_t id =
                queue_.submit(tenant, is_study, std::move(request.payload));
            reply.type = MsgType::Submitted;
            reply.payload = std::to_string(id);
          } catch (const std::exception& e) {
            reply.type = MsgType::Error;
            reply.payload = e.what();
          }
          break;
        }
        case MsgType::Status: {
          const auto state = queue_.status(parse_job_id(request.payload));
          if (state) {
            reply.type = MsgType::StatusReply;
            reply.payload = job_state_name(*state);
          } else {
            reply.type = MsgType::Error;
            reply.payload = "unknown job " + request.payload;
          }
          break;
        }
        case MsgType::Wait: {
          const auto job = queue_.wait(parse_job_id(request.payload));
          if (!job) {
            reply.type = MsgType::Error;
            reply.payload = "unknown job or server shutting down";
          } else if (job->result.empty()) {
            // cancelled while queued: no executor produced an outcome
            JobOutcome outcome;
            outcome.state = job_state_name(job->state);
            outcome.is_study = job->is_study;
            reply.type = MsgType::Result;
            reply.payload = encode_outcome(outcome);
          } else {
            reply.type = MsgType::Result;
            reply.payload = job->result;
          }
          break;
        }
        case MsgType::Cancel: {
          const std::uint64_t id = parse_job_id(request.payload);
          reply.type = MsgType::CancelReply;
          if (queue_.cancel(id)) {
            reply.payload = "cancelled";
          } else {
            reply.payload = queue_.status(id) ? "late" : "unknown";
          }
          break;
        }
        case MsgType::Stats: {
          reply.type = MsgType::StatsReply;
          reply.payload = encode_stats(stats());
          break;
        }
        case MsgType::Metrics: {
          reply.type = MsgType::MetricsReply;
          reply.payload = metrics_text();
          break;
        }
        case MsgType::StatsStream: {
          // stream_stats writes its own frames (a burst of StatsReply ending
          // in StatsStreamEnd), so skip the single-reply write below.
          stream_stats(fd, request.payload);
          continue;
        }
        case MsgType::Shutdown: {
          reply.type = MsgType::ShutdownAck;
          write_frame(fd, reply);
          stopping_.store(true);
          queue_.shutdown();
          ::close(fd);
          return;
        }
        default: {
          reply.type = MsgType::Error;
          reply.payload = "unexpected message type";
          break;
        }
      }
      write_frame(fd, reply);
    }
  } catch (const WireError&) {
    // protocol violation or peer death: drop this connection, keep serving
  }
  ::close(fd);
}

void ExperimentServer::executor_loop() {
  obs::Sink* const trace = options_.trace ? &tracer_ : nullptr;
  for (;;) {
    std::optional<Job> job = queue_.pop();
    if (!job) return;  // queue shut down

    // The queue wait straddles threads (submitted on a connection thread,
    // popped here), so it cannot be an RAII span — reconstruct the record
    // from the submit timestamp instead.
    const std::uint64_t popped_ns = obs::now_ns();
    if (trace != nullptr && job->submitted_ns != 0) {
      obs::SpanRecord wait;
      wait.phase = obs::Phase::QueueWait;
      wait.start_ns = job->submitted_ns;
      wait.dur_ns = popped_ns > job->submitted_ns ? popped_ns - job->submitted_ns : 0;
      wait.arg = job->id;
      trace->record(wait);
    }

    // Content-address coalescing: the payload *is* the plan (encode is a
    // decode fixpoint), so a byte-identical payload already executing means
    // this job's sweep is redundant — wait for the leader and share its
    // outcome. A leader always publishes (execute() reports errors
    // in-band), so followers cannot hang.
    const std::string key = (job->is_study ? "S" : "P") + job->payload;
    std::shared_ptr<Inflight> mine;
    std::shared_ptr<Inflight> leader;
    {
      const std::lock_guard<std::mutex> lock(inflight_mutex_);
      const auto it = inflight_.find(key);
      if (it != inflight_.end()) {
        leader = it->second;
      } else {
        mine = std::make_shared<Inflight>();
        inflight_.emplace(key, mine);
      }
    }
    if (leader) {
      std::unique_lock<std::mutex> lk(leader->m);
      leader->cv.wait(lk, [&] { return leader->done; });
      jobs_coalesced_.fetch_add(1, std::memory_order_relaxed);
      metrics_
          .counter("hpf90d_tenant_jobs", "Jobs finished, by tenant and terminal state",
                   {{"tenant", job->tenant}, {"state", job_state_name(leader->terminal)}})
          .add();
      queue_.complete(job->id, leader->terminal, std::string(leader->result));
      continue;
    }

    JobState terminal = JobState::Done;
    std::string result;
    const std::uint64_t exec_start_ns = obs::now_ns();
    try {
      const obs::Span exec_span(trace, obs::Phase::JobExecute, job->id);
      result = execute(*job, terminal);
    } catch (...) {
      // execute() reports job errors in-band; this is a belt for bugs
      JobOutcome outcome;
      outcome.state = "failed";
      outcome.is_study = job->is_study;
      outcome.error = "internal executor error";
      terminal = JobState::Failed;
      result = encode_outcome(outcome);
    }
    {
      // unregister first: jobs arriving from here on run fresh
      const std::lock_guard<std::mutex> lock(inflight_mutex_);
      inflight_.erase(key);
    }
    {
      const std::lock_guard<std::mutex> lk(mine->m);
      mine->terminal = terminal;
      mine->result = result;
      mine->done = true;
    }
    mine->cv.notify_all();

    const double wall_s =
        static_cast<double>(obs::now_ns() - exec_start_ns) / 1e9;
    const double wait_s =
        job->submitted_ns != 0 && popped_ns > job->submitted_ns
            ? static_cast<double>(popped_ns - job->submitted_ns) / 1e9
            : 0.0;
    metrics_
        .counter("hpf90d_tenant_jobs", "Jobs finished, by tenant and terminal state",
                 {{"tenant", job->tenant}, {"state", job_state_name(terminal)}})
        .add();
    metrics_.histogram("hpf90d_job_wall_seconds", "Per-job sweep execution time",
                       {0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 600.0})
        .observe(wall_s);
    metrics_.histogram("hpf90d_job_queue_wait_seconds", "Per-job time spent queued",
                       {0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 60.0})
        .observe(wait_s);
    if (options_.slow_job_ms > 0 &&
        wall_s * 1000.0 >= static_cast<double>(options_.slow_job_ms)) {
      slow_jobs_.fetch_add(1, std::memory_order_relaxed);
    }

    queue_.complete(job->id, terminal, std::move(result));
  }
}

std::string ExperimentServer::execute(const Job& job, JobState& terminal) {
  JobOutcome outcome;
  outcome.is_study = job.is_study;
  api::RunOptions run_options;
  run_options.workers = options_.job_workers;
  const auto note_batch = [this](const api::BatchStats& b) {
    points_batched_.fetch_add(b.batched_points, std::memory_order_relaxed);
    points_scalar_.fetch_add(b.scalar_points, std::memory_order_relaxed);
    points_replayed_.fetch_add(b.replayed_points, std::memory_order_relaxed);
    batch_ir_visits_.fetch_add(b.ir_visits, std::memory_order_relaxed);
    batch_lane_visits_.fetch_add(b.lane_visits, std::memory_order_relaxed);
    lanes_evicted_.fetch_add(b.evicted_lanes, std::memory_order_relaxed);
    simd_stripes_.fetch_add(b.simd_stripes, std::memory_order_relaxed);
  };
  try {
    if (job.is_study) {
      const study::StudyPlan plan = decode_study(job.payload);
      const study::StudyResult result = run_study(session_, plan, run_options);
      outcome.state = "done";
      outcome.title = result.title;
      outcome.wall_seconds = result.report.wall_seconds;
      outcome.cache = result.report.cache;
      outcome.body_csv = result.csv();
      note_batch(result.report.batch);
    } else {
      const api::ExperimentPlan plan = decode_plan(job.payload);
      const api::RunReport report = session_.run(plan, run_options);
      outcome.state = "done";
      outcome.title = report.title;
      outcome.wall_seconds = report.wall_seconds;
      outcome.cache = report.cache;
      outcome.body_csv = report.csv();
      note_batch(report.batch);
    }
    terminal = JobState::Done;
  } catch (const std::exception& e) {
    outcome.state = "failed";
    outcome.error = e.what();
    terminal = JobState::Failed;
  }
  return encode_outcome(outcome);
}

void ExperimentServer::stream_stats(int fd, const std::string& request) {
  // Payload: "<count> <interval_ms> [changed]". Both numbers bounded — a
  // stream is a burst a client polls with, not a subscription the daemon
  // must carry forever. The optional "changed" flag switches to push-on-
  // change: the daemon still samples `count` times at the interval, but a
  // snapshot is only written when its activity counters (queue occupancy,
  // job terminals, batch telemetry) moved since the last pushed one.
  std::vector<std::string> words;
  for (auto& w : support::split(request, ' ')) {
    if (!w.empty()) words.push_back(std::move(w));
  }
  const bool on_change = words.size() == 3 && words[2] == "changed";
  const bool shaped = words.size() == (on_change ? 3u : 2u);
  const auto requested_count = shaped ? support::parse_uint(words[0]) : std::nullopt;
  const auto requested_interval = shaped ? support::parse_uint(words[1]) : std::nullopt;
  if (!requested_count || !requested_interval) {
    write_frame(fd, Frame{MsgType::Error, "malformed stats stream request"});
    return;
  }
  const std::uint64_t count = *requested_count;
  const std::uint64_t interval_ms = *requested_interval;
  if (count < 1 || count > 1000 || interval_ms > 10000) {
    write_frame(fd, Frame{MsgType::Error, "stats stream bounds: count 1..1000, interval <= 10000ms"});
    return;
  }
  // The change signature deliberately excludes ambient state (spill-dir
  // disk usage, cache capacity): only work the daemon did since the last
  // push should wake a changed-mode subscriber.
  const auto signature = [](const ServerStats& s) {
    return std::array<std::uint64_t, 10>{
        s.queue_depth,    s.jobs_running,  s.jobs_submitted,
        s.jobs_done,      s.jobs_failed,   s.jobs_cancelled,
        s.points_batched, s.points_scalar, s.points_replayed,
        s.lanes_evicted};
  };
  bool pushed_any = false;
  std::array<std::uint64_t, 10> last{};
  for (std::uint64_t i = 0; i < count; ++i) {
    if (i > 0) {
      // sleep in 50ms slices so shutdown is never blocked on a stream
      for (std::uint64_t slept = 0; slept < interval_ms && !stopping_.load();
           slept += 50) {
        const std::uint64_t slice = std::min<std::uint64_t>(50, interval_ms - slept);
        std::this_thread::sleep_for(std::chrono::milliseconds(slice));
      }
      if (stopping_.load()) break;
    }
    const ServerStats snapshot = stats();
    const auto sig = signature(snapshot);
    if (on_change && pushed_any && sig == last) continue;
    last = sig;
    pushed_any = true;
    write_frame(fd, Frame{MsgType::StatsReply, encode_stats(snapshot)});
  }
  write_frame(fd, Frame{MsgType::StatsStreamEnd, {}});
}

std::string ExperimentServer::metrics_text() {
  // Snapshot gauges refresh from stats() on every exposition; counters and
  // histograms (job wall/wait) accumulate live on the executor threads.
  const ServerStats s = stats();
  metrics_.gauge("hpf90d_queue_depth", "Jobs queued, all tenants").set(
      static_cast<double>(s.queue_depth));
  metrics_.gauge("hpf90d_jobs_running", "Jobs executing right now").set(
      static_cast<double>(s.jobs_running));
  metrics_.gauge("hpf90d_jobs_submitted", "Jobs submitted since daemon start")
      .set(static_cast<double>(s.jobs_submitted));
  metrics_.gauge("hpf90d_jobs_done", "Jobs completed successfully")
      .set(static_cast<double>(s.jobs_done));
  metrics_.gauge("hpf90d_jobs_failed", "Jobs that failed")
      .set(static_cast<double>(s.jobs_failed));
  metrics_.gauge("hpf90d_jobs_cancelled", "Jobs cancelled")
      .set(static_cast<double>(s.jobs_cancelled));
  metrics_.gauge("hpf90d_jobs_coalesced", "Jobs served a coalesced in-flight result")
      .set(static_cast<double>(s.jobs_coalesced));
  metrics_.gauge("hpf90d_slow_jobs", "Jobs over the slow-job threshold")
      .set(static_cast<double>(s.slow_jobs));
  metrics_.gauge("hpf90d_lockstep_occupancy",
                 "Mean active lanes per batch IR visit, daemon lifetime")
      .set(s.mean_lanes_per_visit());
  metrics_.gauge("hpf90d_lanes_evicted", "Lanes evicted from lockstep windows")
      .set(static_cast<double>(s.lanes_evicted));
  const std::size_t probes = s.cache.layout_misses;
  metrics_.gauge("hpf90d_spill_hit_ratio",
                 "Layout-store misses answered by the artifact spill")
      .set(probes == 0 ? 0.0
                       : static_cast<double>(s.cache.layout_spill_hits) /
                             static_cast<double>(probes));
  metrics_.gauge("hpf90d_value_tape_hits", "Measured points that re-timed a shared value tape")
      .set(static_cast<double>(s.cache.value_tape_hits));
  metrics_.gauge("hpf90d_value_tape_misses", "Simulator functional passes run")
      .set(static_cast<double>(s.cache.value_tape_misses));
  metrics_.gauge("hpf90d_value_tape_evictions", "Value tapes dropped for the byte budget")
      .set(static_cast<double>(s.cache.value_tape_evictions));
  metrics_.gauge("hpf90d_value_tape_bytes", "Value-tape bytes resident in the session")
      .set(static_cast<double>(s.cache.value_tape_bytes));
  metrics_.gauge("hpf90d_spill_dir_bytes", "Artifact spill directory size")
      .set(static_cast<double>(s.spill_dir_bytes));
  metrics_.gauge("hpf90d_spill_dir_files", "Artifact spill directory file count")
      .set(static_cast<double>(s.spill_dir_files));
  metrics_.gauge("hpf90d_trace_spans_recorded", "Spans recorded by the daemon tracer")
      .set(static_cast<double>(tracer_.recorded()));
  metrics_.gauge("hpf90d_trace_spans_dropped", "Spans overwritten by ring wrap-around")
      .set(static_cast<double>(tracer_.dropped()));
  return metrics_.prometheus();
}

ServerStats ExperimentServer::stats() const {
  ServerStats s;
  s.cache = session_.cache_stats();
  s.cached_programs = session_.cached_programs();
  s.cached_layouts = session_.cached_layouts();
  s.warmed_programs = warmed_;
  const JobQueue::Counters jobs = queue_.counters();
  s.jobs_submitted = jobs.submitted;
  s.jobs_done = jobs.done;
  s.jobs_failed = jobs.failed;
  s.jobs_cancelled = jobs.cancelled;
  if (store_) {
    s.spill_layouts_stored = store_->layouts_stored();
    s.spill_layouts_loaded = store_->layouts_loaded();
    s.spill_programs_stored = store_->programs_stored();
  }
  s.jobs_coalesced = jobs_coalesced_.load();
  s.points_batched = points_batched_.load();
  s.points_scalar = points_scalar_.load();
  s.points_replayed = points_replayed_.load();
  s.batch_ir_visits = batch_ir_visits_.load();
  s.batch_lane_visits = batch_lane_visits_.load();
  s.lanes_evicted = lanes_evicted_.load();
  s.simd_stripes = simd_stripes_.load();
  s.queue_depth = queue_.queued();
  s.jobs_running = queue_.running();
  s.slow_jobs = slow_jobs_.load();
  if (store_) {
    const ArtifactStore::DiskUsage usage = store_->disk_usage();
    s.spill_dir_bytes = usage.bytes;
    s.spill_dir_files = usage.files;
  }
  return s;
}

}  // namespace hpf90d::serve
