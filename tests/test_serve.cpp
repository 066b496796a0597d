// Experiment-service tests: wire framing (round trip, truncation, hostile
// headers), plan/outcome codec fixpoints, multi-tenant job-queue fairness
// and cancellation, artifact-store persistence, and the daemon end to end
// over a Unix-domain socket — byte-identical served reports (vs local
// runs, across concurrent tenants, and across a kill/restart with a warm
// artifact spill), plus protocol-abuse resilience.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "compiler/mapping.hpp"
#include "compiler/pipeline.hpp"
#include "serve/artifact_store.hpp"
#include "serve/client.hpp"
#include "serve/job_queue.hpp"
#include "serve/plan_codec.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "study/study_plan.hpp"
#include "suite/suite.hpp"
#include "support/text.hpp"

namespace hpf90d {
namespace {

namespace fs = std::filesystem;

constexpr const char* kLaplace = R"f90(
program laplace
  parameter (n = 64)
  real u(n,n), unew(n,n)
!hpf$ template d(n,n)
!hpf$ align u(i,j) with d(i,j)
!hpf$ align unew(i,j) with d(i,j)
!hpf$ distribute d(block,*)
  forall (i = 2:n-1, j = 2:n-1) &
    unew(i,j) = 0.25*(u(i-1,j) + u(i+1,j) + u(i,j-1) + u(i,j+1))
  forall (i = 2:n-1, j = 2:n-1) u(i,j) = unew(i,j)
end program laplace
)f90";

/// Unique per-test scratch path under the system temp dir.
std::string scratch_path(const std::string& tag) {
  static std::atomic<int> seq{0};
  return (fs::temp_directory_path() /
          ("hpf90d-serve-" + std::to_string(::getpid()) + "-" + tag + "-" +
           std::to_string(seq.fetch_add(1))))
      .string();
}

api::ExperimentPlan small_plan(const std::string& title = "serve test plan") {
  api::ExperimentPlan plan(title);
  plan.source(kLaplace)
      .nprocs({1, 2, 4})
      .add_variant("(block,*)", {"distribute d(block,*)"}, 1)
      .runs(2);
  return plan;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

/// RAII server + cleanup of socket/artifact scratch.
struct ServerFixture {
  explicit ServerFixture(std::string artifact_dir = "",
                         serve::ServerOptions base = {}) {
    options = base;
    options.socket_path = scratch_path("sock") + ".sock";
    options.artifact_dir = std::move(artifact_dir);
    server = std::make_unique<serve::ExperimentServer>(options);
    server->start();
  }
  ~ServerFixture() {
    server->stop();
    std::error_code ec;
    fs::remove(options.socket_path, ec);
  }
  serve::ServerOptions options;
  std::unique_ptr<serve::ExperimentServer> server;
};

// --- wire framing -------------------------------------------------------------

TEST(Wire, FrameRoundTripsArbitraryBytes) {
  serve::Frame frame;
  frame.type = serve::MsgType::SubmitPlan;
  frame.payload = std::string("bin\0ary\n\tdata", 13);
  const std::string bytes = serve::encode_frame(frame);
  ASSERT_EQ(bytes.size(), serve::kHeaderSize + 13);
  std::size_t offset = 0;
  const auto decoded = serve::decode_frame(bytes, offset);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, serve::MsgType::SubmitPlan);
  EXPECT_EQ(decoded->payload, frame.payload);
  EXPECT_EQ(offset, bytes.size());
}

TEST(Wire, TruncatedBufferReportsNeedMoreBytes) {
  const std::string bytes =
      serve::encode_frame({serve::MsgType::Hello, "tenant-name"});
  // every strict prefix is "incomplete", never an error
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    std::size_t offset = 0;
    EXPECT_FALSE(serve::decode_frame(std::string_view(bytes).substr(0, n), offset)
                     .has_value())
        << "prefix length " << n;
    EXPECT_EQ(offset, 0u);
  }
}

TEST(Wire, BadMagicRejected) {
  std::string bytes = serve::encode_frame({serve::MsgType::Hello, "x"});
  bytes[0] = 'X';
  std::size_t offset = 0;
  EXPECT_THROW((void)serve::decode_frame(bytes, offset), serve::WireError);
}

TEST(Wire, BadVersionRejected) {
  std::string bytes = serve::encode_frame({serve::MsgType::Hello, "x"});
  bytes[4] = 0x7f;  // version LSB
  std::size_t offset = 0;
  EXPECT_THROW((void)serve::decode_frame(bytes, offset), serve::WireError);
}

TEST(Wire, OversizedLengthFieldRejected) {
  std::string bytes = serve::encode_frame({serve::MsgType::Hello, ""});
  bytes[8] = bytes[9] = bytes[10] = bytes[11] = static_cast<char>(0xff);
  std::size_t offset = 0;
  EXPECT_THROW((void)serve::decode_frame(bytes, offset), serve::WireError);
}

TEST(Wire, TwoFramesDecodeBackToBack) {
  const std::string bytes = serve::encode_frame({serve::MsgType::Hello, "a"}) +
                            serve::encode_frame({serve::MsgType::Stats, ""});
  std::size_t offset = 0;
  const auto first = serve::decode_frame(bytes, offset);
  const auto second = serve::decode_frame(bytes, offset);
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->type, serve::MsgType::Hello);
  EXPECT_EQ(second->type, serve::MsgType::Stats);
  EXPECT_EQ(offset, bytes.size());
}

TEST(Wire, SocketRoundTripAndGarbageRejection) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  serve::write_frame(fds[0], {serve::MsgType::HelloAck, "banner"});
  const serve::Frame got = serve::read_frame(fds[1], 1000);
  EXPECT_EQ(got.type, serve::MsgType::HelloAck);
  EXPECT_EQ(got.payload, "banner");

  // junk bytes instead of a header: protocol violation, not a hang
  ASSERT_EQ(::send(fds[0], "not a frame.", 12, 0), 12);
  EXPECT_THROW((void)serve::read_frame(fds[1], 1000), serve::WireError);
  ::close(fds[0]);
  ::close(fds[1]);
}

// --- plan codec ---------------------------------------------------------------

TEST(PlanCodec, PlanRoundTripIsAFixpoint) {
  api::ExperimentPlan plan("codec, title\nwith hostile bytes");
  plan.source(kLaplace)
      .machines({"ipsc860", "paragon"})
      .nprocs({1, 2, 4, 8})
      .add_variant("(block,block)", {"distribute d(block,block)"}, 2)
      .add_variant("plain", {}, std::nullopt)
      .runs(5);
  front::Bindings b;
  b.set_int("n", 128);
  b.set("mask__prob", 0.375);
  plan.add_problem("n=128, tricky", b);
  sim::SimOptions so;
  so.seed = 0xdeadbeef12345678ULL;
  so.noise = false;
  plan.sim_options(so);

  const std::string once = serve::encode_plan(plan);
  const api::ExperimentPlan decoded = serve::decode_plan(once);
  EXPECT_EQ(serve::encode_plan(decoded), once);
  EXPECT_EQ(decoded.title(), plan.title());
  EXPECT_EQ(decoded.machine_names(), plan.machine_names());
  EXPECT_EQ(decoded.nprocs_list(), plan.nprocs_list());
  ASSERT_EQ(decoded.variants().size(), 2u);
  EXPECT_EQ(decoded.variants()[0].overrides, plan.variants()[0].overrides);
  EXPECT_EQ(decoded.variants()[0].grid_rank, plan.variants()[0].grid_rank);
  ASSERT_EQ(decoded.problems().size(), 1u);
  EXPECT_EQ(decoded.problems()[0].name, "n=128, tricky");
  EXPECT_EQ(decoded.problems()[0].bindings.get("mask__prob"), 0.375);
  EXPECT_EQ(decoded.sim_opts().seed, so.seed);
  EXPECT_FALSE(decoded.sim_opts().noise);
  EXPECT_EQ(decoded.measure_runs(), 5);
}

TEST(PlanCodec, ScaledAxisRoundTrips) {
  api::ExperimentPlan plan("weak scaling");
  plan.source(kLaplace).nprocs({1, 4});
  plan.problems_scaled_by_nprocs({64}, [](long long scaled) {
    front::Bindings b;
    b.set_int("n", scaled);
    return b;
  });
  const std::string once = serve::encode_plan(plan);
  const api::ExperimentPlan decoded = serve::decode_plan(once);
  EXPECT_EQ(serve::encode_plan(decoded), once);
  ASSERT_TRUE(decoded.scaled_by_nprocs());
  ASSERT_EQ(decoded.scaled_cases_list().size(), 2u);
  EXPECT_EQ(decoded.scaled_cases_list()[0].problem.name, "n=64");
  EXPECT_EQ(decoded.scaled_cases_list()[0].nprocs, 1);
  EXPECT_EQ(decoded.scaled_cases_list()[1].problem.name, "n=256");
  EXPECT_EQ(decoded.scaled_cases_list()[1].nprocs, 4);
  EXPECT_EQ(decoded.scaled_cases_list()[1].problem.bindings.get("n"), 256.0);
}

TEST(PlanCodec, StudyRoundTripIsAFixpoint) {
  study::StudyPlan plan("what-if latency study");
  plan.source(kLaplace)
      .base_machine("fattree")
      .knob_axis(study::Knob::Latency, {0.25, 1.0, 4.0})
      .knob_axis(study::Knob::Cpu, {0.5, 2.0})
      .add_reference_machine("ipsc860")
      .nprocs({1, 2, 4})
      .runs(0);
  const std::string once = serve::encode_study(plan);
  const study::StudyPlan decoded = serve::decode_study(once);
  EXPECT_EQ(serve::encode_study(decoded), once);
  EXPECT_EQ(decoded.base(), "fattree");
  ASSERT_EQ(decoded.family().axes().size(), 2u);
  EXPECT_EQ(decoded.family().axes()[1].values, (std::vector<double>{0.5, 2.0}));
  EXPECT_EQ(decoded.reference_machines(), (std::vector<std::string>{"ipsc860"}));
  EXPECT_EQ(decoded.inner().measure_runs(), 0);
}

TEST(PlanCodec, MalformedPayloadsRejected) {
  EXPECT_THROW((void)serve::decode_plan(""), serve::CodecError);
  EXPECT_THROW((void)serve::decode_plan("hpf90d-plan 9\n"), serve::CodecError);
  EXPECT_THROW((void)serve::decode_plan("not a plan at all"), serve::CodecError);
  const std::string good = serve::encode_plan(small_plan());
  // chopping anywhere inside the payload must throw, never crash
  for (std::size_t n = 1; n < good.size(); n += 17) {
    EXPECT_THROW((void)serve::decode_plan(good.substr(0, n)), serve::CodecError);
  }
  EXPECT_THROW((void)serve::decode_outcome("garbage"), serve::CodecError);
  EXPECT_THROW((void)serve::decode_stats("garbage"), serve::CodecError);
}

TEST(PlanCodec, OutcomeAndStatsRoundTrip) {
  serve::JobOutcome outcome;
  outcome.state = "done";
  outcome.is_study = true;
  outcome.title = "t";
  outcome.wall_seconds = 0.125;
  outcome.cache.compile_hits = 3;
  outcome.cache.layout_spill_hits = 7;
  outcome.cache.value_tape_hits = 12;
  outcome.cache.value_tape_misses = 4;
  outcome.cache.value_tape_evictions = 1;
  outcome.cache.value_tape_bytes = 150000;
  outcome.body_csv = "a,b\n1,2\n";
  const serve::JobOutcome back = serve::decode_outcome(serve::encode_outcome(outcome));
  EXPECT_EQ(back.state, "done");
  EXPECT_TRUE(back.is_study);
  EXPECT_EQ(back.wall_seconds, 0.125);
  EXPECT_EQ(back.cache.compile_hits, 3u);
  EXPECT_EQ(back.cache.layout_spill_hits, 7u);
  EXPECT_EQ(back.cache.value_tape_hits, 12u);
  EXPECT_EQ(back.cache.value_tape_misses, 4u);
  EXPECT_EQ(back.cache.value_tape_evictions, 1u);
  EXPECT_EQ(back.cache.value_tape_bytes, 150000u);
  EXPECT_EQ(back.body_csv, outcome.body_csv);
  EXPECT_EQ(serve::encode_outcome(back), serve::encode_outcome(outcome));
  // a v1 payload (no tapes line) is a different wire format
  std::string v1 = serve::encode_outcome(outcome);
  v1.replace(v1.find("result 2"), 8, "result 1");
  EXPECT_THROW((void)serve::decode_outcome(v1), serve::CodecError);

  serve::ServerStats stats;
  stats.cache.layout_misses = 11;
  stats.cache.value_tape_hits = 228;
  stats.cache.value_tape_misses = 76;
  stats.cache.value_tape_evictions = 5;
  stats.cache.value_tape_bytes = 153600;
  stats.warmed_programs = 2;
  stats.jobs_done = 5;
  stats.spill_layouts_stored = 9;
  stats.jobs_coalesced = 3;
  stats.points_batched = 4000;
  stats.points_scalar = 17;
  stats.points_replayed = 2;
  stats.batch_ir_visits = 1250;
  stats.batch_lane_visits = 70000;
  stats.lanes_evicted = 21;
  stats.simd_stripes = 8750;
  stats.queue_depth = 6;
  stats.jobs_running = 2;
  stats.slow_jobs = 1;
  stats.spill_dir_bytes = 123456789;
  stats.spill_dir_files = 42;
  const serve::ServerStats s2 = serve::decode_stats(serve::encode_stats(stats));
  EXPECT_EQ(s2.cache.layout_misses, 11u);
  EXPECT_EQ(s2.cache.value_tape_hits, 228u);
  EXPECT_EQ(s2.cache.value_tape_misses, 76u);
  EXPECT_EQ(s2.cache.value_tape_evictions, 5u);
  EXPECT_EQ(s2.cache.value_tape_bytes, 153600u);
  EXPECT_EQ(s2.warmed_programs, 2u);
  EXPECT_EQ(s2.jobs_done, 5u);
  EXPECT_EQ(s2.spill_layouts_stored, 9u);
  EXPECT_EQ(s2.jobs_coalesced, 3u);
  EXPECT_EQ(s2.points_batched, 4000u);
  EXPECT_EQ(s2.points_scalar, 17u);
  EXPECT_EQ(s2.points_replayed, 2u);
  EXPECT_EQ(s2.batch_ir_visits, 1250u);
  EXPECT_EQ(s2.batch_lane_visits, 70000u);
  EXPECT_EQ(s2.lanes_evicted, 21u);
  EXPECT_EQ(s2.simd_stripes, 8750u);
  EXPECT_EQ(s2.mean_lanes_per_visit(), 56.0);
  EXPECT_EQ(s2.queue_depth, 6u);
  EXPECT_EQ(s2.jobs_running, 2u);
  EXPECT_EQ(s2.slow_jobs, 1u);
  EXPECT_EQ(s2.spill_dir_bytes, 123456789u);
  EXPECT_EQ(s2.spill_dir_files, 42u);
  // encode∘decode is a fixpoint: re-encoding the decoded stats reproduces
  // the payload byte for byte
  EXPECT_EQ(serve::encode_stats(s2), serve::encode_stats(stats));
}

TEST(PlanCodec, StatsCodecIsStrictAboutVersionAndBatchLine) {
  const std::string good = serve::encode_stats(serve::ServerStats{});
  EXPECT_EQ(good.rfind("hpf90d-stats 8\n", 0), 0u);
  EXPECT_NE(good.find("\ntapes "), std::string::npos);
  EXPECT_NE(good.find("\nbatch "), std::string::npos);
  EXPECT_NE(good.find("\nqueue "), std::string::npos);
  EXPECT_NE(good.find("\nspilldir "), std::string::npos);

  // older headers (v1: no batch line, v2/v3: narrower batch lines, v4: no
  // queue/spilldir lines, v5: a wider batch line, v6: no tapes line, v7: a
  // refilled-lanes field in the batch line) are different wire formats — a
  // version mismatch is a hard error, never a best-effort parse
  for (const char* old : {"stats 1", "stats 2", "stats 3", "stats 4", "stats 5", "stats 6",
                          "stats 7"}) {
    std::string stale = good;
    stale.replace(stale.find("stats 8"), 7, old);
    EXPECT_THROW((void)serve::decode_stats(stale), serve::CodecError);
  }

  // a batch line with missing or extra fields must throw, never misparse
  const std::size_t pos = good.find("\nbatch ");
  const std::size_t eol = good.find('\n', pos + 1);
  std::string missing = good;
  missing.replace(pos, eol - pos, "\nbatch 1 2 3 4 5 6 7");
  EXPECT_THROW((void)serve::decode_stats(missing), serve::CodecError);
  std::string extra = good;
  extra.replace(pos, eol - pos, "\nbatch 1 2 3 4 5 6 7 8 9");
  EXPECT_THROW((void)serve::decode_stats(extra), serve::CodecError);
}

TEST(PlanCodec, StatsCodecRejectsV5Payload) {
  // A complete payload as a v5 daemon wrote it: its batch line carried 12
  // counters (pool and speculation telemetry included). Neither the header
  // nor the batch line is accepted.
  const std::string v5 =
      "hpf90d-stats 5\n"
      "cache 0 0 0 0 0 0 0\n"
      "session 0 0 0\n"
      "jobs 0 0 0 0\n"
      "spill 0 0 0\n"
      "spilldir 0 0\n"
      "queue 0 0 0\n"
      "batch 0 0 0 0 0 0 0 0 0 0 0 0\n";
  EXPECT_THROW((void)serve::decode_stats(v5), serve::CodecError);
  std::string relabeled = v5;
  relabeled.replace(relabeled.find("stats 5"), 7, "stats 8");
  relabeled.insert(relabeled.find("session "), "tapes 0 0 0 0\n");
  EXPECT_THROW((void)serve::decode_stats(relabeled), serve::CodecError);
  // the same payload with the current header and batch width decodes
  std::string current = relabeled;
  current.replace(current.find("batch "), std::string::npos,
                  "batch 0 0 0 0 0 0 0 0\n");
  EXPECT_NO_THROW((void)serve::decode_stats(current));
}

TEST(PlanCodec, StatsV4LinesRejectMalformedFields) {
  const std::string good = serve::encode_stats(serve::ServerStats{});
  const auto mutate_line = [&good](const char* tag, const std::string& repl) {
    std::string out = good;
    const std::size_t pos = out.find(tag);
    EXPECT_NE(pos, std::string::npos) << tag;
    const std::size_t eol = out.find('\n', pos + 1);
    out.replace(pos, eol - pos, repl);
    return out;
  };
  // wrong arity, non-numeric fields, and a renamed keyword all throw
  EXPECT_THROW((void)serve::decode_stats(mutate_line("\nqueue ", "\nqueue 1 2")),
               serve::CodecError);
  EXPECT_THROW((void)serve::decode_stats(mutate_line("\nqueue ", "\nqueue 1 2 3 4")),
               serve::CodecError);
  EXPECT_THROW((void)serve::decode_stats(mutate_line("\nqueue ", "\nqueue a b c")),
               serve::CodecError);
  EXPECT_THROW(
      (void)serve::decode_stats(mutate_line("\nspilldir ", "\nspilldir 1")),
      serve::CodecError);
  EXPECT_THROW(
      (void)serve::decode_stats(mutate_line("\nspilldir ", "\nspilldir -1 2")),
      serve::CodecError);
  EXPECT_THROW(
      (void)serve::decode_stats(mutate_line("\nspilldir ", "\nqueue2 1 2")),
      serve::CodecError);
}

// --- job queue ----------------------------------------------------------------

TEST(JobQueue, FifoWithinOneTenant) {
  serve::JobQueue queue(/*tenant_inflight=*/8);
  const auto a = queue.submit("t", false, "1");
  const auto b = queue.submit("t", false, "2");
  const auto c = queue.submit("t", false, "3");
  EXPECT_EQ(queue.pop()->id, a);
  EXPECT_EQ(queue.pop()->id, b);
  EXPECT_EQ(queue.pop()->id, c);
}

TEST(JobQueue, RoundRobinAcrossTenants) {
  serve::JobQueue queue(/*tenant_inflight=*/8);
  (void)queue.submit("a", false, "a1");
  (void)queue.submit("a", false, "a2");
  (void)queue.submit("b", false, "b1");
  (void)queue.submit("b", false, "b2");
  (void)queue.submit("c", false, "c1");
  std::vector<std::string> order;
  for (int i = 0; i < 5; ++i) order.push_back(queue.pop()->payload);
  EXPECT_EQ(order, (std::vector<std::string>{"a1", "b1", "c1", "a2", "b2"}));
}

TEST(JobQueue, InflightCapSkipsSaturatedTenant) {
  serve::JobQueue queue(/*tenant_inflight=*/1);
  const auto a1 = queue.submit("a", false, "a1");
  const auto a2 = queue.submit("a", false, "a2");
  const auto b1 = queue.submit("b", false, "b1");
  EXPECT_EQ(queue.pop()->id, a1);
  // tenant a is at its cap: b runs next even though a2 was queued earlier
  EXPECT_EQ(queue.pop()->id, b1);
  queue.complete(a1, serve::JobState::Done, "ok");
  EXPECT_EQ(queue.pop()->id, a2);
  EXPECT_EQ(queue.status(a1), serve::JobState::Done);
}

TEST(JobQueue, CancelQueuedNotRunning) {
  serve::JobQueue queue;
  const auto a = queue.submit("t", false, "a");
  const auto b = queue.submit("t", false, "b");
  EXPECT_TRUE(queue.cancel(b));
  EXPECT_EQ(queue.status(b), serve::JobState::Cancelled);
  EXPECT_EQ(queue.pop()->id, a);
  EXPECT_FALSE(queue.cancel(a));  // running: not preemptible
  EXPECT_FALSE(queue.cancel(9999));
  const auto cancelled = queue.wait(b);
  ASSERT_TRUE(cancelled.has_value());
  EXPECT_EQ(cancelled->state, serve::JobState::Cancelled);
}

TEST(JobQueue, BackpressureThrowsWhenTenantQueueFull) {
  serve::JobQueue queue(/*tenant_inflight=*/1, /*tenant_queued=*/2);
  (void)queue.submit("t", false, "1");
  (void)queue.submit("t", false, "2");
  EXPECT_THROW((void)queue.submit("t", false, "3"), std::runtime_error);
  (void)queue.submit("other", false, "ok");  // other tenants unaffected
}

TEST(JobQueue, WaitBlocksUntilTerminalAndShutdownWakes) {
  serve::JobQueue queue;
  const auto id = queue.submit("t", false, "job");
  std::thread worker([&] {
    const auto job = queue.pop();
    ASSERT_TRUE(job.has_value());
    queue.complete(job->id, serve::JobState::Done, "the result");
  });
  const auto done = queue.wait(id);
  worker.join();
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, serve::JobState::Done);
  EXPECT_EQ(done->result, "the result");

  queue.shutdown();
  EXPECT_FALSE(queue.pop().has_value());
  EXPECT_FALSE(queue.wait(12345).has_value());
}

// --- artifact store -----------------------------------------------------------

TEST(ArtifactStore, PersistsProgramsAndSurvivesCorruptFiles) {
  const std::string root = scratch_path("store");
  {
    serve::ArtifactStore store(root);
    api::ProgramRecipe recipe;
    recipe.source = kLaplace;
    recipe.overrides = {"distribute d(block,block)"};
    recipe.options.message_vectorization = false;
    store.store_program("prog-key-1", recipe);
    EXPECT_EQ(store.programs_stored(), 1u);
  }
  {
    serve::ArtifactStore store(root);  // fresh instance: reads from disk
    const auto recipes = store.load_programs();
    ASSERT_EQ(recipes.size(), 1u);
    EXPECT_EQ(recipes[0].source, kLaplace);
    EXPECT_EQ(recipes[0].overrides,
              (std::vector<std::string>{"distribute d(block,block)"}));
    EXPECT_FALSE(recipes[0].options.message_vectorization);
  }
  // corrupt every artifact: loads degrade to misses / skips, not throws
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (entry.is_regular_file()) {
      std::ofstream(entry.path(), std::ios::trunc) << "corrupted";
    }
  }
  serve::ArtifactStore store(root);
  EXPECT_TRUE(store.load_programs().empty());
  EXPECT_FALSE(store.load_layout("prog-key-1").has_value());
  fs::remove_all(root);
}

TEST(ArtifactStore, LayoutRoundTripsThroughDisk) {
  const std::string root = scratch_path("store");
  const compiler::CompiledProgram prog = compiler::compile(kLaplace);
  compiler::LayoutOptions lo;
  lo.nprocs = 4;
  const compiler::DataLayout layout(prog.directives, prog.symbols, front::Bindings{}, lo);
  {
    serve::ArtifactStore store(root);
    store.store_layout("layout-key", layout);
  }
  serve::ArtifactStore store(root);
  const auto loaded = store.load_layout("layout-key");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(compiler::serialize_layout(*loaded), compiler::serialize_layout(layout));
  EXPECT_FALSE(store.load_layout("some-other-key").has_value());
  fs::remove_all(root);
}

TEST(ArtifactStore, CorruptSpilledLayoutIsRebuiltNotLoaded) {
  // A spilled BLOCK layout whose block size reads 0 used to load and then
  // divide by zero in the first measured run that used it.
  const std::string root = scratch_path("store");
  const auto& app = suite::app("pi");
  api::ExperimentPlan plan("corrupt spill");
  plan.source(app.source).nprocs({4}).problems_from({256}, app.bindings).runs(2);
  std::string fresh_csv;
  {
    api::Session session;
    session.set_artifact_spill(std::make_shared<serve::ArtifactStore>(root));
    fresh_csv = session.run(plan).csv();
  }
  std::size_t corrupted = 0;
  for (const auto& entry : fs::directory_iterator(fs::path(root) / "layouts")) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    in.close();
    // "dim\t0\t..." is a BLOCK dimension; its last field is the block size
    std::string out;
    for (std::string line : support::split(text, '\n')) {
      if (line.rfind("dim\t0\t", 0) == 0) {
        line.resize(line.rfind('\t') + 1);
        line += '0';
        ++corrupted;
      }
      out += line;
      out += '\n';
    }
    out.pop_back();  // split() saw the final newline as one more empty line
    std::ofstream(entry.path(), std::ios::binary | std::ios::trunc) << out;
  }
  ASSERT_GT(corrupted, 0u);

  api::Session session;
  session.set_artifact_spill(std::make_shared<serve::ArtifactStore>(root));
  const api::RunReport rebuilt = session.run(plan);
  EXPECT_EQ(rebuilt.cache.layout_spill_hits, 0u);
  EXPECT_GT(rebuilt.cache.layout_misses, 0u);
  EXPECT_EQ(rebuilt.csv(), fresh_csv);
  fs::remove_all(root);
}

// --- daemon end to end --------------------------------------------------------

TEST(ExperimentServer, ServedReportMatchesLocalRunByteForByte) {
  ServerFixture fixture;
  serve::ServeClient client(fixture.options.socket_path, "tenant-1");
  client.connect();
  const api::ExperimentPlan plan = small_plan();
  const std::uint64_t id = client.submit(plan);
  const serve::JobResult result = client.wait(id);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(client.status(id), "done");

  api::Session local;
  const api::RunReport direct = local.run(plan);
  EXPECT_EQ(result.report.csv(), direct.csv());
  EXPECT_EQ(result.report.title, direct.title);
  EXPECT_GT(result.report.records.size(), 0u);
}

TEST(ExperimentServer, ServedStudyMatchesLocalRunByteForByte) {
  ServerFixture fixture;
  serve::ServeClient client(fixture.options.socket_path, "tenant-1");
  client.connect();
  study::StudyPlan plan("served study");
  plan.source(kLaplace)
      .knob_axis(study::Knob::Latency, {0.5, 2.0})
      .add_reference_machine("ipsc860")
      .nprocs({1, 4})
      .runs(0);
  const serve::JobResult result = client.wait(client.submit(plan));
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_TRUE(result.is_study);

  api::Session local;
  const study::StudyResult direct = study::run_study(local, plan);
  EXPECT_EQ(result.study.csv(), direct.csv());
  EXPECT_EQ(result.study.machine_points.size(), direct.machine_points.size());
}

TEST(ExperimentServer, TwoConcurrentTenantsGetByteIdenticalReports) {
  ServerFixture fixture;
  const api::ExperimentPlan plan = small_plan("two tenants");
  std::string csv_a, csv_b;
  std::thread ta([&] {
    serve::ServeClient client(fixture.options.socket_path, "alice");
    client.connect();
    const serve::JobResult r = client.wait(client.submit(plan));
    ASSERT_TRUE(r.ok()) << r.error;
    csv_a = r.report.csv();
  });
  std::thread tb([&] {
    serve::ServeClient client(fixture.options.socket_path, "bob");
    client.connect();
    const serve::JobResult r = client.wait(client.submit(plan));
    ASSERT_TRUE(r.ok()) << r.error;
    csv_b = r.report.csv();
  });
  ta.join();
  tb.join();
  api::Session local;
  const std::string direct = local.run(plan).csv();
  EXPECT_EQ(csv_a, direct);
  EXPECT_EQ(csv_b, direct);
}

TEST(ExperimentServer, MalformedPlanFailsTheJobNotTheDaemon) {
  ServerFixture fixture;
  const int fd = connect_unix(fixture.options.socket_path);
  serve::write_frame(fd, {serve::MsgType::Hello, "abuser"});
  (void)serve::read_frame(fd, 2000);
  serve::write_frame(fd, {serve::MsgType::SubmitPlan, "this is not a plan"});
  const serve::Frame submitted = serve::read_frame(fd, 2000);
  ASSERT_EQ(submitted.type, serve::MsgType::Submitted);
  serve::write_frame(fd, {serve::MsgType::Wait, submitted.payload});
  const serve::Frame result = serve::read_frame(fd, 10000);
  ASSERT_EQ(result.type, serve::MsgType::Result);
  const serve::JobOutcome outcome = serve::decode_outcome(result.payload);
  EXPECT_EQ(outcome.state, "failed");
  EXPECT_FALSE(outcome.error.empty());
  ::close(fd);

  // the daemon still serves well-formed tenants
  serve::ServeClient client(fixture.options.socket_path, "good-tenant");
  client.connect();
  const serve::JobResult ok = client.wait(client.submit(small_plan()));
  EXPECT_TRUE(ok.ok()) << ok.error;
}

TEST(ExperimentServer, GarbageBytesDropTheConnectionOnly) {
  ServerFixture fixture;
  const int fd = connect_unix(fixture.options.socket_path);
  static constexpr char kGarbage[] = "\xde\xad\xbe\xef garbage, not a frame header";
  ASSERT_GT(::send(fd, kGarbage, sizeof kGarbage - 1, 0), 0);
  ::close(fd);

  serve::ServeClient client(fixture.options.socket_path, "tenant");
  client.connect();  // daemon is alive and answering
  const serve::ServerStats stats = client.stats();
  EXPECT_EQ(stats.jobs_failed, 0u);
}

TEST(ExperimentServer, CancelQueuedJobThroughTheProtocol) {
  serve::ServerOptions base;
  base.executors = 1;  // one lane: the second job queues behind the first
  ServerFixture fixture("", base);
  serve::ServeClient client(fixture.options.socket_path, "tenant");
  client.connect();
  // The cancel finds the victim queued only while the busy job still runs.
  // Only a measured point's first run simulates values (later runs replay
  // its timing), so the larger grid is what keeps the lane busy, for some
  // milliseconds; a client descheduled on a loaded host for longer misses
  // that window, and then both jobs finish and the cancel comes "late".
  // Such a lost race is checked as one and the attempt repeated, with a
  // new problem size so that the busy job simulates afresh.
  bool cancelled_queued = false;
  for (long long attempt = 0; attempt < 5 && !cancelled_queued; ++attempt) {
    api::ExperimentPlan busy = small_plan("busy");
    busy.nprocs({1, 2, 4, 8}).runs(3).problems_from({64, 256 + 2 * attempt}, [](long long n) {
      front::Bindings b;
      b.set_int("n", n);
      return b;
    });
    const std::uint64_t first = client.submit(busy);
    const std::uint64_t second = client.submit(small_plan("victim"));
    cancelled_queued = client.cancel(second);
    const serve::JobResult victim = client.wait(second);
    EXPECT_EQ(victim.state, cancelled_queued ? "cancelled" : "done") << "attempt " << attempt;
    const serve::JobResult done = client.wait(first);
    EXPECT_TRUE(done.ok()) << done.error;
    EXPECT_FALSE(client.cancel(first));  // terminal: "late"
  }
  EXPECT_TRUE(cancelled_queued);
}

TEST(ExperimentServer, RestartWithArtifactStoreServesWarmByteIdentical) {
  const std::string artifacts = scratch_path("warm");
  const std::string socket = scratch_path("warmsock") + ".sock";
  const api::ExperimentPlan plan = small_plan("restart determinism");

  std::string cold_csv;
  {
    serve::ServerOptions options;
    options.socket_path = socket;
    options.artifact_dir = artifacts;
    serve::ExperimentServer server(options);
    server.start();
    serve::ServeClient client(socket, "tenant");
    client.connect();
    const serve::JobResult cold = client.wait(client.submit(plan));
    ASSERT_TRUE(cold.ok()) << cold.error;
    cold_csv = cold.report.csv();
    EXPECT_EQ(cold.report.cache.layout_spill_hits, 0u);
    EXPECT_GT(cold.report.cache.compile_misses, 0u);
    server.stop();  // the "kill": in-memory caches die with the process
  }
  {
    serve::ExperimentServer server([&] {
      serve::ServerOptions options;
      options.socket_path = socket;
      options.artifact_dir = artifacts;
      return options;
    }());
    server.start();
    EXPECT_GT(server.warmed_programs(), 0u);
    serve::ServeClient client(socket, "tenant");
    client.connect();
    const serve::JobResult warm = client.wait(client.submit(plan));
    ASSERT_TRUE(warm.ok()) << warm.error;
    // byte-identical report, served from warm artifacts: every layout
    // miss answered by the spill, every compile a hit on a warmed recipe
    EXPECT_EQ(warm.report.csv(), cold_csv);
    EXPECT_GT(warm.report.cache.layout_spill_hits, 0u);
    EXPECT_EQ(warm.report.cache.compile_misses, 0u);
    server.stop();
  }
  fs::remove_all(artifacts);
}

TEST(ExperimentServer, ConcurrentClientStress) {
  serve::ServerOptions base;
  base.executors = 4;
  base.tenant_inflight = 2;
  ServerFixture fixture("", base);
  api::Session local;
  const std::string expected = local.run(small_plan("stress")).csv();

  constexpr int kClients = 4;
  constexpr int kJobsEach = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      serve::ServeClient client(fixture.options.socket_path,
                                "tenant-" + std::to_string(c));
      client.connect();
      std::vector<std::uint64_t> ids;
      ids.reserve(kJobsEach);
      for (int j = 0; j < kJobsEach; ++j) {
        ids.push_back(client.submit(small_plan("stress")));
      }
      for (const std::uint64_t id : ids) {
        const serve::JobResult r = client.wait(id);
        if (!r.ok() || r.report.csv() != expected) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const serve::ServerStats stats = fixture.server->stats();
  EXPECT_EQ(stats.jobs_done, static_cast<std::size_t>(kClients * kJobsEach));
}

TEST(ExperimentServer, BatchTelemetrySurfacesThroughTheStatsEndpoint) {
  ServerFixture fixture;
  serve::ServeClient client(fixture.options.socket_path, "tenant");
  client.connect();
  api::ExperimentPlan plan = small_plan("telemetry");
  plan.nprocs({1, 2, 4, 8});
  const serve::JobResult r = client.wait(client.submit(plan));
  ASSERT_TRUE(r.ok()) << r.error;

  // the daemon runs sweeps batched by default; its lockstep effectiveness
  // is visible over the wire, and all points are accounted for
  const serve::ServerStats stats = client.stats();
  EXPECT_GT(stats.points_batched, 0u);
  EXPECT_EQ(stats.points_batched + stats.points_scalar + stats.points_replayed, 4u);
  EXPECT_GT(stats.batch_ir_visits, 0u);
  EXPECT_GT(stats.mean_lanes_per_visit(), 1.0);
  // the vectorized cost evaluator ran (8-lane stripes), and every evicted
  // lane finished alone
  EXPECT_GT(stats.simd_stripes, 0u);
  EXPECT_EQ(stats.lanes_evicted, stats.points_replayed);
}

TEST(ExperimentServer, StatsStreamOnChangePushesOnlyWhenCountersMove) {
  ServerFixture fixture;
  serve::ServeClient client(fixture.options.socket_path, "tenant");
  client.connect();

  // idle daemon: a plain stream delivers every sample, a changed-mode
  // stream collapses the burst to the first snapshot
  const auto plain = client.stats_stream(4, 1);
  EXPECT_EQ(plain.size(), 4u);
  const auto quiet = client.stats_stream(4, 1, /*on_change=*/true);
  ASSERT_EQ(quiet.size(), 1u);
  EXPECT_EQ(quiet[0].jobs_done, 0u);

  // activity between samples surfaces: running a job moves the watched
  // counters, so a later changed-mode burst starts from the new state
  api::ExperimentPlan plan = small_plan("stream-change");
  plan.nprocs({1, 2});
  const serve::JobResult r = client.wait(client.submit(plan));
  ASSERT_TRUE(r.ok()) << r.error;
  const auto after = client.stats_stream(3, 1, /*on_change=*/true);
  ASSERT_GE(after.size(), 1u);
  EXPECT_EQ(after[0].jobs_done, 1u);
  EXPECT_GT(after[0].points_batched + after[0].points_scalar, 0u);

  // bounds are still enforced in changed mode, and the connection
  // survives a rejected request
  {
    serve::ServeClient raw(fixture.options.socket_path, "tenant");
    raw.connect();
    EXPECT_THROW((void)raw.stats_stream(2, 70000, true), std::runtime_error);
    EXPECT_EQ(raw.stats_stream(1, 0, true).size(), 1u);
  }
}

TEST(ExperimentServer, IdenticalInflightJobsCoalesceToOneExecution) {
  serve::ServerOptions base;
  base.executors = 2;  // a follower can pop while the leader executes
  ServerFixture fixture("", base);
  serve::ServeClient client(fixture.options.socket_path, "tenant-a");
  client.connect();
  serve::ServeClient other(fixture.options.socket_path, "tenant-b");
  other.connect();

  // a heavy plan keeps the leader busy long enough that the back-to-back
  // identical submissions (same payload bytes = same content address) are
  // all in flight together
  api::ExperimentPlan heavy = small_plan("coalesce");
  heavy.nprocs({1, 2, 4, 8}).problems_from({32, 48, 64, 96, 128}, [](long long n) {
    front::Bindings b;
    b.set_int("n", n);
    return b;
  });
  heavy.runs(3);
  const std::uint64_t a = client.submit(heavy);
  const std::uint64_t b = other.submit(heavy);
  const serve::JobResult ra = client.wait(a);
  const serve::JobResult rb = other.wait(b);
  ASSERT_TRUE(ra.ok()) << ra.error;
  ASSERT_TRUE(rb.ok()) << rb.error;
  EXPECT_EQ(ra.report.csv(), rb.report.csv());

  const serve::ServerStats stats = fixture.server->stats();
  EXPECT_EQ(stats.jobs_done, 2u);
  // both tenants got an answer, but the sweep priced one tenant's points:
  // the follower shared the leader's execution
  if (stats.jobs_coalesced == 1u) {
    EXPECT_EQ(stats.points_batched + stats.points_scalar + stats.points_replayed,
              4u * 5u);
  } else {
    // the leader finished before the follower was popped (slow machine):
    // both executed, independently and identically
    EXPECT_EQ(stats.jobs_coalesced, 0u);
    EXPECT_EQ(stats.points_batched + stats.points_scalar + stats.points_replayed,
              2u * 4u * 5u);
  }
}

}  // namespace
}  // namespace hpf90d
