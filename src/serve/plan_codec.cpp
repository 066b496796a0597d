#include "serve/plan_codec.hpp"

#include <string>
#include <vector>

#include "support/codec.hpp"
#include "support/text.hpp"

namespace hpf90d::serve {

namespace {

// --- writer helpers -----------------------------------------------------------

/// Length-prefixed string: "<tag> <len>\n<bytes>\n" — arbitrary bytes
/// round-trip, including newlines and tabs.
void emit_str(std::string& out, const char* tag, std::string_view value) {
  out += tag;
  out += ' ';
  out += std::to_string(value.size());
  out += '\n';
  out += value;
  out += '\n';
}

void emit_bindings(std::string& out, const front::Bindings& bindings) {
  for (const auto& [name, value] : bindings.values()) {
    out += "bind " + support::format_g17(value) + " " + std::to_string(name.size()) + '\n';
    out += name;
    out += '\n';
  }
}

// --- reader -------------------------------------------------------------------

using support::LineReader;

LineReader reader_of(std::string_view text) {
  return LineReader(text, "plan codec", support::raise<CodecError>);
}

std::vector<std::string> fields_of(std::string_view line) {
  std::vector<std::string> out;
  for (const auto& f : support::split(line, ' ')) {
    if (!f.empty()) out.push_back(f);
  }
  return out;
}

/// Parses a "<tag> <len>" line already read and returns the payload.
std::string read_str_payload(LineReader& in, const std::vector<std::string>& f,
                             const char* tag) {
  if (f.size() != 2 || f[0] != tag) in.fail(std::string("expected ") + tag + " line");
  return std::string(in.take_bytes(static_cast<std::size_t>(in.int_field(f[1]))));
}

std::string expect_str(LineReader& in, const char* tag) {
  return read_str_payload(in, fields_of(in.next_line()), tag);
}

front::Bindings read_bindings(LineReader& in, std::size_t count) {
  front::Bindings b;
  for (std::size_t i = 0; i < count; ++i) {
    const auto f = fields_of(in.next_line());
    if (f.size() != 3 || f[0] != "bind") in.fail("expected bind line");
    const double value = in.double_field(f[1]);
    b.set(std::string(in.take_bytes(static_cast<std::size_t>(in.int_field(f[2])))), value);
  }
  return b;
}

machine::CollectiveAlgo to_collective(LineReader& in, const std::string& cell) {
  const long long v = in.int_field(cell);
  switch (v) {
    case 0: return machine::CollectiveAlgo::RecursiveTree;
    case 1: return machine::CollectiveAlgo::Linear;
    default: in.fail("unknown collective algorithm " + cell);
  }
}

void encode_plan_body(std::string& out, const api::ExperimentPlan& plan) {
  out += "hpf90d-plan 1\n";
  emit_str(out, "title", plan.title());
  emit_str(out, "source", plan.program_source());
  for (const auto& m : plan.machine_names()) emit_str(out, "machine", m);
  out += "nprocs";
  for (const int np : plan.nprocs_list()) out += support::strfmt(" %d", np);
  out += '\n';
  out += "runs " + std::to_string(plan.measure_runs()) + '\n';
  const auto& co = plan.compiler_opts();
  out += support::strfmt("copts %d %s\n", co.message_vectorization ? 1 : 0,
                         support::format_g17(co.default_mask_probability).c_str());
  const auto& po = plan.predict_opts();
  out += support::strfmt("popts %s %d %d %zu\n", support::format_g17(po.mask_probability).c_str(),
                         static_cast<int>(po.collective), po.trace ? 1 : 0,
                         po.max_trace_events);
  const auto& so = plan.sim_opts();
  out += support::strfmt("sopts %llu %d %d %d %lld\n",
                         static_cast<unsigned long long>(so.seed), so.noise ? 1 : 0,
                         so.contention ? 1 : 0, static_cast<int>(so.collective),
                         so.max_while_trips);
  for (const auto& v : plan.variants()) {
    out += support::strfmt("variant %s %zu %zu\n",
                           v.grid_rank ? std::to_string(*v.grid_rank).c_str() : "-",
                           v.overrides.size(), v.name.size());
    out += v.name;
    out += '\n';
    for (const auto& o : v.overrides) emit_str(out, "override", o);
  }
  if (plan.scaled_by_nprocs()) {
    for (const auto& sc : plan.scaled_cases_list()) {
      out += support::strfmt("scaled %d %zu %zu\n", sc.nprocs,
                             sc.problem.bindings.values().size(),
                             sc.problem.name.size());
      out += sc.problem.name;
      out += '\n';
      emit_bindings(out, sc.problem.bindings);
    }
  } else {
    for (const auto& p : plan.problems()) {
      out += support::strfmt("problem %zu %zu\n", p.bindings.values().size(),
                             p.name.size());
      out += p.name;
      out += '\n';
      emit_bindings(out, p.bindings);
    }
  }
  out += "end\n";
}

api::ExperimentPlan decode_plan_body(LineReader& in) {
  {
    const auto header = fields_of(in.next_line());
    if (header.size() != 2 || header[0] != "hpf90d-plan") {
      in.fail("not an hpf90d-plan payload");
    }
    if (header[1] != "1") in.fail("unsupported plan version " + header[1]);
  }
  api::ExperimentPlan plan(expect_str(in, "title"));
  plan.source(expect_str(in, "source"));

  std::vector<std::string> machines;
  std::vector<api::ScaledCase> scaled;
  bool saw_end = false;
  while (!saw_end) {
    const auto f = fields_of(in.next_line());
    if (f.empty()) in.fail("empty directive line");
    if (f[0] == "machine") {
      machines.push_back(read_str_payload(in, f, "machine"));
    } else if (f[0] == "nprocs") {
      std::vector<int> counts;
      for (std::size_t i = 1; i < f.size(); ++i) {
        counts.push_back(static_cast<int>(in.int_field(f[i])));
      }
      plan.nprocs(std::move(counts));
    } else if (f[0] == "runs") {
      if (f.size() != 2) in.fail("malformed runs line");
      plan.runs(static_cast<int>(in.int_field(f[1])));
    } else if (f[0] == "copts") {
      if (f.size() != 3) in.fail("malformed copts line");
      compiler::CompilerOptions co;
      co.message_vectorization = in.int_field(f[1]) != 0;
      co.default_mask_probability = in.double_field(f[2]);
      plan.compiler_options(co);
    } else if (f[0] == "popts") {
      if (f.size() != 5) in.fail("malformed popts line");
      core::PredictOptions po;
      po.mask_probability = in.double_field(f[1]);
      po.collective = to_collective(in, f[2]);
      po.trace = in.int_field(f[3]) != 0;
      po.max_trace_events = static_cast<std::size_t>(in.int_field(f[4]));
      plan.predict_options(po);
    } else if (f[0] == "sopts") {
      if (f.size() != 6) in.fail("malformed sopts line");
      sim::SimOptions so;
      so.seed = in.uint_field(f[1]);
      so.noise = in.int_field(f[2]) != 0;
      so.contention = in.int_field(f[3]) != 0;
      so.collective = to_collective(in, f[4]);
      so.max_while_trips = in.int_field(f[5]);
      plan.sim_options(so);
    } else if (f[0] == "variant") {
      if (f.size() != 4) in.fail("malformed variant line");
      api::DirectiveVariant v;
      if (f[1] != "-") v.grid_rank = static_cast<int>(in.int_field(f[1]));
      const auto noverrides = static_cast<std::size_t>(in.int_field(f[2]));
      v.name = in.take_bytes(static_cast<std::size_t>(in.int_field(f[3])));
      for (std::size_t i = 0; i < noverrides; ++i) {
        v.overrides.push_back(expect_str(in, "override"));
      }
      plan.add_variant(std::move(v));
    } else if (f[0] == "problem") {
      if (f.size() != 3) in.fail("malformed problem line");
      const auto nbind = static_cast<std::size_t>(in.int_field(f[1]));
      std::string name(in.take_bytes(static_cast<std::size_t>(in.int_field(f[2]))));
      plan.add_problem(std::move(name), read_bindings(in, nbind));
    } else if (f[0] == "scaled") {
      if (f.size() != 4) in.fail("malformed scaled line");
      api::ScaledCase sc;
      sc.nprocs = static_cast<int>(in.int_field(f[1]));
      const auto nbind = static_cast<std::size_t>(in.int_field(f[2]));
      sc.problem.name = in.take_bytes(static_cast<std::size_t>(in.int_field(f[3])));
      sc.problem.bindings = read_bindings(in, nbind);
      scaled.push_back(std::move(sc));
    } else if (f[0] == "end") {
      saw_end = true;
    } else {
      in.fail("unknown directive \"" + f[0] + "\"");
    }
  }
  if (!machines.empty()) plan.machines(std::move(machines));
  if (!scaled.empty()) plan.scaled_cases(std::move(scaled));
  return plan;
}

}  // namespace

std::string encode_plan(const api::ExperimentPlan& plan) {
  std::string out;
  encode_plan_body(out, plan);
  return out;
}

api::ExperimentPlan decode_plan(std::string_view text) {
  LineReader in = reader_of(text);
  api::ExperimentPlan plan = decode_plan_body(in);
  return plan;
}

std::string encode_study(const study::StudyPlan& plan) {
  std::string out = "hpf90d-study 1\n";
  emit_str(out, "title", plan.title());
  emit_str(out, "base", plan.base());
  for (const auto& axis : plan.family().axes()) {
    out += "axis " + std::to_string(static_cast<int>(axis.knob));
    for (const double v : axis.values) out += support::strfmt(" %.17g", v);
    out += '\n';
  }
  for (const auto& r : plan.reference_machines()) emit_str(out, "reference", r);
  emit_str(out, "plan", encode_plan(plan.inner()));
  out += "end\n";
  return out;
}

study::StudyPlan decode_study(std::string_view text) {
  LineReader in = reader_of(text);
  {
    const auto header = fields_of(in.next_line());
    if (header.size() != 2 || header[0] != "hpf90d-study") {
      in.fail("not an hpf90d-study payload");
    }
    if (header[1] != "1") in.fail("unsupported study version " + header[1]);
  }
  study::StudyPlan plan(expect_str(in, "title"));
  plan.base_machine(expect_str(in, "base"));
  for (;;) {
    const auto f = fields_of(in.next_line());
    if (f.empty()) in.fail("empty directive line");
    if (f[0] == "axis") {
      if (f.size() < 2) in.fail("malformed axis line");
      const long long knob = in.int_field(f[1]);
      if (knob < 0 || knob > 2) in.fail("unknown knob " + f[1]);
      std::vector<double> values;
      for (std::size_t i = 2; i < f.size(); ++i) values.push_back(in.double_field(f[i]));
      plan.knob_axis(static_cast<study::Knob>(knob), std::move(values));
    } else if (f[0] == "reference") {
      plan.add_reference_machine(read_str_payload(in, f, "reference"));
    } else if (f[0] == "plan") {
      plan.replace_inner(decode_plan(read_str_payload(in, f, "plan")));
    } else if (f[0] == "end") {
      break;
    } else {
      in.fail("unknown directive \"" + f[0] + "\"");
    }
  }
  return plan;
}

namespace {

/// The value-tape store's counters: one "tapes" line after "cache" in the
/// outcome (v2) and stats (v8) payloads.
void emit_tapes(std::string& out, const api::CacheStats& c) {
  out += support::strfmt("tapes %zu %zu %zu %zu\n", c.value_tape_hits,
                         c.value_tape_misses, c.value_tape_evictions, c.value_tape_bytes);
}

void read_tapes(LineReader& in, api::CacheStats& c) {
  const auto f = fields_of(in.next_line());
  if (f.size() != 5 || f[0] != "tapes") in.fail("expected tapes line");
  c.value_tape_hits = static_cast<std::size_t>(in.int_field(f[1]));
  c.value_tape_misses = static_cast<std::size_t>(in.int_field(f[2]));
  c.value_tape_evictions = static_cast<std::size_t>(in.int_field(f[3]));
  c.value_tape_bytes = static_cast<std::size_t>(in.int_field(f[4]));
}

}  // namespace

std::string encode_outcome(const JobOutcome& outcome) {
  // version 2 added the tapes line
  std::string out = "hpf90d-result 2\n";
  out += "state " + outcome.state + '\n';
  out += std::string("kind ") + (outcome.is_study ? "study" : "plan") + '\n';
  emit_str(out, "title", outcome.title);
  emit_str(out, "error", outcome.error);
  out += "wall " + support::format_g17(outcome.wall_seconds) + '\n';
  const api::CacheStats& c = outcome.cache;
  out += support::strfmt("cache %zu %zu %zu %zu %zu %zu %zu\n", c.compile_hits,
                         c.compile_misses, c.layout_hits, c.layout_misses,
                         c.layout_evictions, c.layout_spill_hits, c.layout_capacity);
  emit_tapes(out, c);
  emit_str(out, "body", outcome.body_csv);
  return out;
}

JobOutcome decode_outcome(std::string_view text) {
  LineReader in = reader_of(text);
  {
    const auto header = fields_of(in.next_line());
    if (header.size() != 2 || header[0] != "hpf90d-result" || header[1] != "2") {
      in.fail("not an hpf90d-result payload");
    }
  }
  JobOutcome out;
  {
    const auto f = fields_of(in.next_line());
    if (f.size() != 2 || f[0] != "state") in.fail("expected state line");
    out.state = f[1];
  }
  {
    const auto f = fields_of(in.next_line());
    if (f.size() != 2 || f[0] != "kind") in.fail("expected kind line");
    out.is_study = f[1] == "study";
  }
  out.title = expect_str(in, "title");
  out.error = expect_str(in, "error");
  {
    const auto f = fields_of(in.next_line());
    if (f.size() != 2 || f[0] != "wall") in.fail("expected wall line");
    out.wall_seconds = in.double_field(f[1]);
  }
  {
    const auto f = fields_of(in.next_line());
    if (f.size() != 8 || f[0] != "cache") in.fail("expected cache line");
    out.cache.compile_hits = static_cast<std::size_t>(in.int_field(f[1]));
    out.cache.compile_misses = static_cast<std::size_t>(in.int_field(f[2]));
    out.cache.layout_hits = static_cast<std::size_t>(in.int_field(f[3]));
    out.cache.layout_misses = static_cast<std::size_t>(in.int_field(f[4]));
    out.cache.layout_evictions = static_cast<std::size_t>(in.int_field(f[5]));
    out.cache.layout_spill_hits = static_cast<std::size_t>(in.int_field(f[6]));
    out.cache.layout_capacity = static_cast<std::size_t>(in.int_field(f[7]));
  }
  read_tapes(in, out.cache);
  out.body_csv = expect_str(in, "body");
  return out;
}

std::string encode_stats(const ServerStats& s) {
  const api::CacheStats& c = s.cache;
  // version 8 drops the refilled-lanes counter from the batch line (evicted
  // lanes are no longer re-batched). v7 added the tapes line (value-tape
  // store counters). v6 dropped v5's cross-chunk pool + speculation
  // counters from the batch line (the features are gone). v4 added the
  // spilldir and queue lines (disk usage, live queue occupancy, slow-job
  // count); v3 widened the batch line with re-compaction + SIMD telemetry;
  // v2 added the batch line itself.
  std::string out = "hpf90d-stats 8\n";
  out += support::strfmt("cache %zu %zu %zu %zu %zu %zu %zu\n", c.compile_hits,
                         c.compile_misses, c.layout_hits, c.layout_misses,
                         c.layout_evictions, c.layout_spill_hits, c.layout_capacity);
  emit_tapes(out, c);
  out += support::strfmt("session %zu %zu %zu\n", s.cached_programs, s.cached_layouts,
                         s.warmed_programs);
  out += support::strfmt("jobs %zu %zu %zu %zu\n", s.jobs_submitted, s.jobs_done,
                         s.jobs_failed, s.jobs_cancelled);
  out += support::strfmt("spill %zu %zu %zu\n", s.spill_layouts_stored,
                         s.spill_layouts_loaded, s.spill_programs_stored);
  out += support::strfmt("spilldir %llu %llu\n",
                         static_cast<unsigned long long>(s.spill_dir_bytes),
                         static_cast<unsigned long long>(s.spill_dir_files));
  out += support::strfmt("queue %zu %zu %zu\n", s.queue_depth, s.jobs_running,
                         s.slow_jobs);
  out += support::strfmt("batch %zu %zu %zu %zu %llu %llu %llu %llu\n",
                         s.jobs_coalesced, s.points_batched, s.points_scalar,
                         s.points_replayed,
                         static_cast<unsigned long long>(s.batch_ir_visits),
                         static_cast<unsigned long long>(s.batch_lane_visits),
                         static_cast<unsigned long long>(s.lanes_evicted),
                         static_cast<unsigned long long>(s.simd_stripes));
  return out;
}

ServerStats decode_stats(std::string_view text) {
  LineReader in = reader_of(text);
  {
    const auto header = fields_of(in.next_line());
    if (header.size() != 2 || header[0] != "hpf90d-stats") {
      in.fail("not an hpf90d-stats payload");
    }
    // Version-strict: a v7 daemon's payload is a hard error, not a partial
    // decode — mixed-version deployments must fail loudly.
    if (header[1] != "8") in.fail("unsupported stats version " + header[1]);
  }
  ServerStats s;
  const auto cache = fields_of(in.next_line());
  if (cache.size() != 8 || cache[0] != "cache") in.fail("expected cache line");
  s.cache.compile_hits = static_cast<std::size_t>(in.int_field(cache[1]));
  s.cache.compile_misses = static_cast<std::size_t>(in.int_field(cache[2]));
  s.cache.layout_hits = static_cast<std::size_t>(in.int_field(cache[3]));
  s.cache.layout_misses = static_cast<std::size_t>(in.int_field(cache[4]));
  s.cache.layout_evictions = static_cast<std::size_t>(in.int_field(cache[5]));
  s.cache.layout_spill_hits = static_cast<std::size_t>(in.int_field(cache[6]));
  s.cache.layout_capacity = static_cast<std::size_t>(in.int_field(cache[7]));
  read_tapes(in, s.cache);
  const auto session = fields_of(in.next_line());
  if (session.size() != 4 || session[0] != "session") in.fail("expected session line");
  s.cached_programs = static_cast<std::size_t>(in.int_field(session[1]));
  s.cached_layouts = static_cast<std::size_t>(in.int_field(session[2]));
  s.warmed_programs = static_cast<std::size_t>(in.int_field(session[3]));
  const auto jobs = fields_of(in.next_line());
  if (jobs.size() != 5 || jobs[0] != "jobs") in.fail("expected jobs line");
  s.jobs_submitted = static_cast<std::size_t>(in.int_field(jobs[1]));
  s.jobs_done = static_cast<std::size_t>(in.int_field(jobs[2]));
  s.jobs_failed = static_cast<std::size_t>(in.int_field(jobs[3]));
  s.jobs_cancelled = static_cast<std::size_t>(in.int_field(jobs[4]));
  const auto spill = fields_of(in.next_line());
  if (spill.size() != 4 || spill[0] != "spill") in.fail("expected spill line");
  s.spill_layouts_stored = static_cast<std::size_t>(in.int_field(spill[1]));
  s.spill_layouts_loaded = static_cast<std::size_t>(in.int_field(spill[2]));
  s.spill_programs_stored = static_cast<std::size_t>(in.int_field(spill[3]));
  const auto spilldir = fields_of(in.next_line());
  if (spilldir.size() != 3 || spilldir[0] != "spilldir") in.fail("expected spilldir line");
  s.spill_dir_bytes = static_cast<std::uint64_t>(in.uint_field(spilldir[1]));
  s.spill_dir_files = static_cast<std::uint64_t>(in.uint_field(spilldir[2]));
  const auto queue = fields_of(in.next_line());
  if (queue.size() != 4 || queue[0] != "queue") in.fail("expected queue line");
  s.queue_depth = static_cast<std::size_t>(in.int_field(queue[1]));
  s.jobs_running = static_cast<std::size_t>(in.int_field(queue[2]));
  s.slow_jobs = static_cast<std::size_t>(in.int_field(queue[3]));
  const auto batch = fields_of(in.next_line());
  if (batch.size() != 9 || batch[0] != "batch") in.fail("expected batch line");
  s.jobs_coalesced = static_cast<std::size_t>(in.int_field(batch[1]));
  s.points_batched = static_cast<std::size_t>(in.int_field(batch[2]));
  s.points_scalar = static_cast<std::size_t>(in.int_field(batch[3]));
  s.points_replayed = static_cast<std::size_t>(in.int_field(batch[4]));
  s.batch_ir_visits = static_cast<std::uint64_t>(in.int_field(batch[5]));
  s.batch_lane_visits = static_cast<std::uint64_t>(in.int_field(batch[6]));
  s.lanes_evicted = static_cast<std::uint64_t>(in.int_field(batch[7]));
  s.simd_stripes = static_cast<std::uint64_t>(in.int_field(batch[8]));
  return s;
}

}  // namespace hpf90d::serve
