// obs.hpp — tracing spans for the framework's own runtime.
//
// The paper's tool explains where an HPF program spends its time; this
// module explains where *we* spend ours. Every interesting unit of work —
// a compilation, a layout build, a lockstep window, a measurement, a
// daemon job — can open an RAII Span against a nullable Sink. With no sink
// attached (the default everywhere) a Span is two pointer-sized stores and
// one well-predicted branch: no clock is read, no allocation happens, and
// every report stays byte-identical to the untraced run. With a sink the
// span is clocked on construction and recorded on destruction.
//
// The stock sink is Tracer: a bounded in-memory ring of SpanRecords
// (oldest spans overwritten, never unbounded growth) that snapshots into a
// Chrome trace_event JSON export — load it in chrome://tracing or Perfetto
// to see a sweep's compile/layout/lockstep/replay timeline per thread.
//
// Thread safety: Sink::record must be callable from any thread. Tracer
// serializes on one mutex; a span is recorded once at end-of-scope, never
// per IR node, so the lock is far off every hot path.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace hpf90d::obs {

/// The traced units of work, one per subsystem that owns a measurable
/// phase. Kept intentionally coarse: spans mark work a human would look
/// for in a timeline, not individual IR visits.
enum class Phase : std::uint8_t {
  Compile,         // compiler pipeline, source -> CompiledProgram
  LayoutBuild,     // make_layout on a layout-store miss
  SpillLoad,       // artifact-spill probe answering a layout miss
  SpillStore,      // write-through of a freshly built layout
  ChunkSchedule,   // Session::run flattening + chunk partition
  LockstepWindow,  // one BatchEngine lockstep walk (arg = lanes)
  MeasureBatch,    // batched simulated measurement (arg = lanes)
  QueueWait,       // daemon job waiting in the tenant queue (arg = job id)
  JobExecute,      // daemon job running through Session::run (arg = job id)
  SimValuePass,    // simulator functional pass on a value-tape miss (arg = tape bytes)
  SimRetime,       // timing walks of one measured point (arg = runs)
};

/// Number of Phase values (for per-phase tables).
constexpr std::size_t kPhaseCount = static_cast<std::size_t>(Phase::SimRetime) + 1;

/// Stable lower-case name ("compile", "lockstep_window", ...), used by the
/// trace export and the daemon's per-phase metrics.
[[nodiscard]] const char* phase_name(Phase phase) noexcept;

/// One completed span. Timestamps are steady-clock nanoseconds (relative
/// times are meaningful; the absolute origin is the process clock).
struct SpanRecord {
  Phase phase = Phase::Compile;
  std::uint32_t thread = 0;   // stable per-thread tag (hashed thread id)
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t arg = 0;      // phase-specific payload (lanes, points, job id)
};

/// Destination for completed spans. Implementations must tolerate
/// concurrent record() calls from many threads.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void record(const SpanRecord& span) noexcept = 0;
};

/// Steady-clock nanoseconds (the span timebase).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// RAII span: clocks itself on construction and records into the sink on
/// destruction. A null sink disables everything — the constructor is then
/// a branch and two stores, so spans can sit permanently on warm paths.
class Span {
 public:
  explicit Span(Sink* sink, Phase phase, std::uint64_t arg = 0) noexcept
      : sink_(sink), phase_(phase), arg_(arg) {
    if (sink_ != nullptr) start_ns_ = now_ns();
  }
  ~Span() {
    if (sink_ != nullptr) finish();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Updates the payload before the span closes (e.g. a lane count known
  /// only after the walk).
  void set_arg(std::uint64_t arg) noexcept { arg_ = arg; }

 private:
  void finish() noexcept;

  Sink* sink_;
  Phase phase_;
  std::uint64_t arg_;
  std::uint64_t start_ns_ = 0;
};

/// Bounded in-memory span ring. Capacity is fixed at construction; once
/// full, new spans overwrite the oldest (`dropped()` counts the
/// casualties), so a long-lived daemon can leave tracing on forever at a
/// fixed memory cost.
class Tracer : public Sink {
 public:
  explicit Tracer(std::size_t capacity = 1 << 14);

  void record(const SpanRecord& span) noexcept override;

  /// The retained spans, oldest first.
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;

  /// Lifetime spans seen / spans overwritten by ring wrap-around.
  [[nodiscard]] std::uint64_t recorded() const;
  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Chrome trace_event JSON ("X" complete events, microsecond timebase):
  /// load in chrome://tracing / Perfetto. Deterministic given the ring
  /// contents (spans render oldest first).
  [[nodiscard]] std::string chrome_trace_json() const;

  void clear();

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> ring_;  // circular once size() == capacity_
  std::size_t next_ = 0;          // overwrite cursor
  std::uint64_t recorded_ = 0;
};

}  // namespace hpf90d::obs
