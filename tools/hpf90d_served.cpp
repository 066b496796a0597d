// hpf90d_served — the experiment service daemon.
//
//   hpf90d_served --socket /tmp/hpf90d.sock [--artifacts DIR]
//                 [--executors N] [--job-workers N] [--max-nodes N]
//                 [--tenant-inflight N] [--tenant-queue N]
//                 [--slow-job-ms N] [--no-trace] [--trace-capacity N]
//                 [--trace FILE]
//
// Runs until SIGINT/SIGTERM or a client Shutdown frame. With --artifacts
// the daemon persists compiled-program recipes and data layouts under DIR
// and warm-starts from them on the next launch, so a restart keeps
// serving previously-seen plans with hot caches.
//
// Observability: tracing is on by default (a bounded span ring; --no-trace
// disables it, --trace-capacity resizes it). --trace FILE (or the
// HPF90D_TRACE environment variable) writes the ring as Chrome trace_event
// JSON at shutdown — open it in chrome://tracing or Perfetto.
// --slow-job-ms N logs jobs whose sweep takes >= N ms (client-visible via
// STATS; see the README's Observability section).
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "serve/server.hpp"
#include "support/codec.hpp"

namespace {

namespace support = hpf90d::support;

volatile std::sig_atomic_t g_signalled = 0;

void on_signal(int) { g_signalled = 1; }

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--artifacts DIR] [--executors N]\n"
               "          [--job-workers N] [--max-nodes N] [--tenant-inflight N]\n"
               "          [--tenant-queue N] [--slow-job-ms N] [--no-trace]\n"
               "          [--trace-capacity N] [--trace FILE]\n",
               argv0);
  return 2;
}

/// Writes the daemon's span ring as Chrome trace_event JSON.
void dump_trace(hpf90d::serve::ExperimentServer& server, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "hpf90d_served: cannot write trace to %s\n", path.c_str());
    return;
  }
  const std::string json = server.tracer().chrome_trace_json();
  std::fwrite(json.data(), 1, json.size(), out);
  std::fclose(out);
  std::printf("hpf90d_served: wrote %zu spans to %s (%llu dropped by ring bound)\n",
              server.tracer().snapshot().size(), path.c_str(),
              static_cast<unsigned long long>(server.tracer().dropped()));
}

}  // namespace

int main(int argc, char** argv) {
  hpf90d::serve::ServerOptions options;
  std::string trace_path;
  if (const char* env = std::getenv("HPF90D_TRACE")) trace_path = env;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    // Each setter reads the flag's value; a missing or malformed one is a
    // usage error.
    const auto text_flag = [&](std::string& out) {
      const char* v = next();
      if (v != nullptr) out = v;
      return v != nullptr;
    };
    const auto int_flag = [&](int& out) {
      const char* v = next();
      const auto n = v != nullptr ? support::parse_int(v, INT_MIN, INT_MAX) : std::nullopt;
      if (n) out = static_cast<int>(*n);
      return n.has_value();
    };
    const auto size_flag = [&](std::size_t& out) {
      const char* v = next();
      const auto n = v != nullptr ? support::parse_uint(v) : std::nullopt;
      if (n) out = static_cast<std::size_t>(*n);
      return n.has_value();
    };
    const char* flag = argv[i];
    bool ok = true;
    if (std::strcmp(flag, "--socket") == 0) {
      ok = text_flag(options.socket_path);
    } else if (std::strcmp(flag, "--artifacts") == 0) {
      ok = text_flag(options.artifact_dir);
    } else if (std::strcmp(flag, "--executors") == 0) {
      ok = int_flag(options.executors);
    } else if (std::strcmp(flag, "--job-workers") == 0) {
      ok = int_flag(options.job_workers);
    } else if (std::strcmp(flag, "--max-nodes") == 0) {
      ok = int_flag(options.max_nodes);
    } else if (std::strcmp(flag, "--tenant-inflight") == 0) {
      ok = size_flag(options.tenant_inflight);
    } else if (std::strcmp(flag, "--tenant-queue") == 0) {
      ok = size_flag(options.tenant_queued);
    } else if (std::strcmp(flag, "--slow-job-ms") == 0) {
      ok = int_flag(options.slow_job_ms);
    } else if (std::strcmp(flag, "--no-trace") == 0) {
      options.trace = false;
    } else if (std::strcmp(flag, "--trace-capacity") == 0) {
      ok = size_flag(options.trace_capacity);
    } else if (std::strcmp(flag, "--trace") == 0) {
      ok = text_flag(trace_path);
    } else {
      ok = false;
    }
    if (!ok) return usage(argv[0]);
  }
  if (options.socket_path.empty()) return usage(argv[0]);
  if (!trace_path.empty()) options.trace = true;  // a requested dump implies tracing

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  try {
    hpf90d::serve::ExperimentServer server(options);
    server.start();
    std::printf("hpf90d_served: listening on %s (%zu programs warmed)\n",
                options.socket_path.c_str(), server.warmed_programs());
    std::fflush(stdout);
    while (g_signalled == 0 && !server.stop_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    server.stop();  // joins executors first, so the dump sees final spans
    if (!trace_path.empty()) dump_trace(server, trace_path);
    std::printf("hpf90d_served: stopped\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hpf90d_served: %s\n", e.what());
    return 1;
  }
}
