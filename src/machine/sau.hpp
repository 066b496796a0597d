// sau.hpp — System Abstraction Units (paper §3.1).
//
// The systems module abstracts an HPC system by hierarchical decomposition
// into SAUs; each SAU parameterizes the performance of one system unit
// through four components: Processing (P), Memory (M), Communication /
// Synchronization (C/S) and Input/Output (I/O). The interpretation engine
// consumes exactly these parameters — nothing else about the machine is
// visible to it.
#pragma once

#include <array>
#include <initializer_list>
#include <string>
#include <utility>

#include "hpf/intrinsics.hpp"

namespace hpf90d::machine {

/// Processing component: per-operation times (seconds) for compiled
/// Fortran 77 code on the node CPU, plus structural overheads obtained from
/// assembly instruction counts (paper §4.4).
struct ProcessingComponent {
  double t_fadd = 0;   // floating add/subtract/compare
  double t_fmul = 0;
  double t_fdiv = 0;
  double t_fpow = 0;   // x**y through the runtime library
  double t_iop = 0;    // integer/address operation
  double t_load = 0;   // cache-hit load
  double t_store = 0;  // cache-hit store
  double loop_overhead = 0;    // per-iteration branch + induction update
  double loop_setup = 0;       // loop prologue
  double branch_overhead = 0;  // per conditional evaluation
  // per-call price of each library intrinsic (exp, log, sqrt, ...),
  // indexed by front::IntrinsicId
  std::array<double, front::kIntrinsicCount> intrinsic_cost{};

  void price_intrinsics(std::initializer_list<std::pair<front::IntrinsicId, double>> prices) {
    for (const auto& [id, t] : prices) intrinsic_cost[static_cast<std::size_t>(id)] = t;
  }
};

/// Memory component: the node memory hierarchy (i860: 4 KB I-cache,
/// 8 KB D-cache, 32-byte lines, 8 MB main memory).
struct MemoryComponent {
  long long dcache_bytes = 0;
  long long icache_bytes = 0;
  long long main_memory_bytes = 0;
  int line_bytes = 32;
  double miss_penalty = 0;    // seconds per line fill
  double mem_bandwidth = 0;   // bytes/s streaming from main memory
};

/// Communication/synchronization component: point-to-point parameters and
/// the benchmarked collective-library constants (paper §4.4: low-level
/// primitives and the high-level collective communication library).
struct CommComponent {
  double latency_short = 0;       // message setup, <= short_threshold bytes
  double latency_long = 0;        // message setup above the threshold
  long long short_threshold = 100;
  double per_byte = 0;            // transfer time per byte (1/bandwidth)
  double per_hop = 0;             // additional time per extra hypercube hop
  double pack_per_byte = 0;       // contiguous buffer packing
  double pack_strided_factor = 1; // multiplier when packing strided data
  double coll_stage_setup = 0;    // per-stage overhead of the collective library
  double per_element_index = 0;   // per-element index translation (irregular comm)
};

/// I/O component: the SRM host link (cross-compiled executables are loaded
/// through it; print output travels back over it).
struct IOComponent {
  double host_latency = 0;
  double host_per_byte = 0;
};

/// One System Abstraction Unit.
struct SAU {
  std::string name;
  ProcessingComponent proc;
  MemoryComponent mem;
  CommComponent comm;
  IOComponent io;
};

}  // namespace hpf90d::machine
