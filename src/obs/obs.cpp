#include "obs/obs.hpp"

#include <chrono>
#include <functional>
#include <thread>

#include "support/text.hpp"

namespace hpf90d::obs {

const char* phase_name(Phase phase) noexcept {
  switch (phase) {
    case Phase::Compile: return "compile";
    case Phase::LayoutBuild: return "layout_build";
    case Phase::SpillLoad: return "spill_load";
    case Phase::SpillStore: return "spill_store";
    case Phase::ChunkSchedule: return "chunk_schedule";
    case Phase::LockstepWindow: return "lockstep_window";
    case Phase::MeasureBatch: return "measure_batch";
    case Phase::QueueWait: return "queue_wait";
    case Phase::JobExecute: return "job_execute";
    case Phase::SimValuePass: return "sim_value_pass";
    case Phase::SimRetime: return "sim_retime";
  }
  return "unknown";
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

/// Stable small tag for the calling thread (trace rows are grouped by it).
std::uint32_t thread_tag() noexcept {
  const std::size_t h = std::hash<std::thread::id>{}(std::this_thread::get_id());
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

}  // namespace

void Span::finish() noexcept {
  SpanRecord rec;
  rec.phase = phase_;
  rec.thread = thread_tag();
  rec.start_ns = start_ns_;
  const std::uint64_t end = now_ns();
  rec.dur_ns = end > start_ns_ ? end - start_ns_ : 0;
  rec.arg = arg_;
  sink_->record(rec);
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

void Tracer::record(const SpanRecord& span) noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(span);
  } else {
    ring_[next_] = span;
    next_ = (next_ + 1) % capacity_;
  }
  ++recorded_;
}

std::vector<SpanRecord> Tracer::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  // ring_[next_..) holds the oldest retained spans once the ring wrapped
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t Tracer::recorded() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

std::uint64_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return recorded_ - ring_.size();
}

std::string Tracer::chrome_trace_json() const {
  const std::vector<SpanRecord> spans = snapshot();
  // Chrome's trace_event format: an array of complete ("X") events with
  // microsecond timestamps. pid is fixed (one process), tid groups rows.
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : spans) {
    if (!first) out += ',';
    first = false;
    out += support::strfmt(
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"arg\":%llu}}",
        phase_name(s.phase), s.thread, static_cast<double>(s.start_ns) / 1e3,
        static_cast<double>(s.dur_ns) / 1e3,
        static_cast<unsigned long long>(s.arg));
  }
  out += "]}";
  return out;
}

}  // namespace hpf90d::obs
