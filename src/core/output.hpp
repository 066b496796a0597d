// output.hpp — the output module (paper §3.4, §4.2 "output parse").
//
// Three forms of output:
//  1. a generic performance profile of the entire application broken into
//     communication / computation / overhead components, with the same
//     measures available for individual AAUs and sub-graphs of the AAG;
//  2. per-source-line metric queries;
//  3. an interpretation trace usable as input to the ParaGraph
//     visualization package.
#pragma once

#include <string>

#include "core/aag.hpp"
#include "core/engine.hpp"

namespace hpf90d::core {

class OutputModule {
 public:
  OutputModule(const SynchronizedAAG& saag, const PredictionResult& result)
      : saag_(saag), result_(result) {}

  /// Cumulative metrics for the whole application.
  [[nodiscard]] AAUMetric whole_program() const;

  /// Cumulative metrics of the sub-AAG rooted at `id`.
  [[nodiscard]] AAUMetric sub_aag(int id) const;

  /// Metrics attached to a source line.
  [[nodiscard]] AAUMetric line(std::uint32_t line_no) const;

  /// Human-readable profile: whole program plus the top AAUs by time.
  [[nodiscard]] std::string profile(int top = 12) const;

  /// ParaGraph-compatible event trace. The format follows ParaGraph's
  /// tracefile records: one event per line,
  ///   <type> <proc> <time-us> <aau> <category>
  /// with type -3/-4 marking compute begin/end and -21/-22 send/recv-like
  /// communication phases.
  [[nodiscard]] std::string paragraph_trace() const;

 private:
  const SynchronizedAAG& saag_;
  const PredictionResult& result_;
};

}  // namespace hpf90d::core
