#include "core/engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <span>

#include "support/diagnostics.hpp"

namespace hpf90d::core {

using compiler::SpmdNode;
using support::CompileError;

void InterpretationEngine::rebind(const compiler::CompiledProgram& prog,
                                  const compiler::DataLayout& layout,
                                  const machine::MachineModel& machine,
                                  const PredictOptions& options,
                                  const front::Bindings& bindings) {
  prog_ = &prog;
  layout_ = &layout;
  options_ = options;
  const auto mp = bindings.get("mask__prob");
  mask_prob_ = mp ? *mp : options.mask_probability;
  nprocs_ = layout.nprocs();
  // fn_ holds references into the machine's SAU; re-targeting is only
  // needed when the machine actually changes (lane engines are rebound per
  // window, almost always to the same machine).
  if (machine_ != &machine) {
    machine_ = &machine;
    fn_.emplace(machine.node());
  }
  clock_.assign(static_cast<std::size_t>(nprocs_), 0.0);
  metrics_.assign(static_cast<std::size_t>(prog.node_count), AAUMetric{});
  trace_.clear();
}

void InterpretationEngine::finalize_into(PredictionResult& out, bool detailed) {
  out.total = *std::max_element(clock_.begin(), clock_.end());
  out.comp = out.comm = out.overhead = out.wait = 0;
  if (!detailed) {
    // sweep hot path: same divide-then-accumulate order as below, so the
    // phase sums are bit-identical — only the table copies are skipped
    out.proc_clock.clear();
    out.per_aau.clear();
    out.trace.clear();
    for (const auto& m : metrics_) {
      out.comp += m.comp / nprocs_;
      out.comm += m.comm / nprocs_;
      out.overhead += m.overhead / nprocs_;
      out.wait += m.wait / nprocs_;
    }
    trace_.clear();
    return;
  }
  out.proc_clock = clock_;
  out.per_aau = metrics_;
  for (auto& m : out.per_aau) {
    m.comp /= nprocs_;
    m.comm /= nprocs_;
    m.overhead /= nprocs_;
    m.wait /= nprocs_;
  }
  for (const auto& m : out.per_aau) {
    out.comp += m.comp;
    out.comm += m.comm;
    out.overhead += m.overhead;
    out.wait += m.wait;
  }
  out.trace = std::move(trace_);
  trace_.clear();
}

void InterpretationEngine::charge(int aau, int proc, double t, char category) {
  if (t <= 0) return;
  const double begin = clock_[static_cast<std::size_t>(proc)];
  clock_[static_cast<std::size_t>(proc)] += t;
  AAUMetric& m = metric(aau);
  switch (category) {
    case 'C': m.comp += t; break;
    case 'M': m.comm += t; break;
    case 'O': m.overhead += t; break;
    case 'W': m.wait += t; break;
    case 'I': m.comm += t; break;
    default: m.comp += t; break;
  }
  if (options_.trace && trace_.size() < options_.max_trace_events) {
    trace_.push_back(TraceEvent{begin, begin + t, proc, aau, category});
  }
}

void InterpretationEngine::charge_all(int aau, double t, char category) {
  // Same charges as per-proc charge() calls, with the category switch and
  // trace test hoisted out of the loop: the clock update becomes a tight
  // vectorizable add and the metric accumulates through the identical
  // dependent-add chain (never t * nprocs, which would round differently).
  if (t <= 0) return;
  if (options_.trace) {
    for (int p = 0; p < nprocs_; ++p) charge(aau, p, t, category);
    return;
  }
  double* const clk = clock_.data();
  const int n = nprocs_;
  for (int p = 0; p < n; ++p) clk[p] += t;
  AAUMetric& m = metric(aau);
  double* acc;
  switch (category) {
    case 'C': acc = &m.comp; break;
    case 'M': acc = &m.comm; break;
    case 'O': acc = &m.overhead; break;
    case 'W': acc = &m.wait; break;
    case 'I': acc = &m.comm; break;
    default: acc = &m.comp; break;
  }
  double s = *acc;
  for (int p = 0; p < n; ++p) s += t;
  *acc = s;
}

void InterpretationEngine::price_hostio(const SpmdNode& n) {
  long long bytes = 16;
  for (const auto& arg : n.io_args) {
    bytes += arg->rank == 0 ? 16 : 64;  // arrays: abstraction charges a block
  }
  charge(n.id, 0, fn_->host_io(bytes), 'I');
}

// ---------------------------------------------------------------------------
// iteration machinery
// ---------------------------------------------------------------------------

long long InterpretationEngine::ResolvedSpace::dim_count(std::size_t d) const {
  if (step[d] > 0) return hi[d] >= lo[d] ? (hi[d] - lo[d]) / step[d] + 1 : 0;
  return lo[d] >= hi[d] ? (lo[d] - hi[d]) / (-step[d]) + 1 : 0;
}

long long InterpretationEngine::ResolvedSpace::points() const {
  long long total = 1;
  for (std::size_t d = 0; d < lo.size(); ++d) total *= dim_count(d);
  return total;
}

const std::vector<long long>& InterpretationEngine::local_iterations(
    const SpmdNode& n, const ResolvedSpace& space, long long space_points) {
  std::vector<long long>& iters = iters_scratch_;
  iters.resize(static_cast<std::size_t>(nprocs_));  // every slot written below
  if (nprocs_ == 1) {
    // a lone processor always owns the whole space, home array or not —
    // the general loop below reduces to space.points()
    iters[0] = space_points;
    return iters;
  }
  const compiler::ArrayMap* home =
      n.home_symbol >= 0 ? layout_->map_for(n.home_symbol) : nullptr;
  if (home == nullptr) {
    std::fill(iters.begin(), iters.end(), space_points);
    return iters;
  }
  // which home dim each space index drives is a property of the node, not
  // of the processor: resolve the driver map once, outside the proc loop
  // (first matching driver wins, as the former inner search did)
  std::vector<int>& hd = home_dim_scratch_;
  hd.assign(space.lo.size(), -1);
  for (std::size_t h = 0; h < n.home_driver.size(); ++h) {
    const int d = n.home_driver[h];
    if (d >= 0 && static_cast<std::size_t>(d) < hd.size() && hd[static_cast<std::size_t>(d)] < 0) {
      hd[static_cast<std::size_t>(d)] = static_cast<int>(h);
    }
  }
  // Dims-outer accumulation: the distribution (kind, block, offsets) is a
  // per-dim constant, so it is resolved once here and only the grid
  // coordinate varies in the per-processor inner loop. All-integer math, so
  // the per-proc product is exact in any accumulation order.
  std::fill(iters.begin(), iters.end(), 1LL);
  for (std::size_t d = 0; d < space.lo.size(); ++d) {
    const int home_dim = hd[d];
    const long long base = space.dim_count(d);
    const compiler::DimDist* dd = nullptr;
    if (home_dim >= 0) {
      const auto& cand = home->dims[static_cast<std::size_t>(home_dim)];
      if (cand.grid_dim >= 0 && cand.nprocs > 1) dd = &cand;
    }
    if (dd == nullptr) {
      for (int p = 0; p < nprocs_; ++p) iters[static_cast<std::size_t>(p)] *= base;
    } else if (dd->kind == front::DistKind::Block) {
      const long long off = n.home_driver_offset[static_cast<std::size_t>(home_dim)];
      const long long lo = space.lo[d];
      const long long hi = space.hi[d];
      const long long st = space.step[d];
      const auto gd = static_cast<std::size_t>(dd->grid_dim);
      for (int p = 0; p < nprocs_; ++p) {
        const auto range = dd->owned_range(layout_->proc_coords(p)[gd]);
        const long long a = std::max(lo, range.lo - off);
        const long long b = std::min(hi, range.hi - off);
        long long dim_iters;
        if (b < a) {
          dim_iters = 0;
        } else if (st == 1) {
          // unit stride — the dominant case — needs no division:
          // first = a-lo, last = b-lo, so the count is just b-a+1
          dim_iters = b - a + 1;
        } else {
          const long long first = (a - lo + st - 1) / st;
          const long long last = (b - lo) / st;
          dim_iters = last >= first ? last - first + 1 : 0;
        }
        iters[static_cast<std::size_t>(p)] *= dim_iters;
      }
    } else {
      // cyclic: proportional share of the iteration range
      const long long ext = std::max<long long>(dd->extent, 1);
      const auto gd = static_cast<std::size_t>(dd->grid_dim);
      for (int p = 0; p < nprocs_; ++p) {
        const long long owned = dd->local_count(layout_->proc_coords(p)[gd]);
        iters[static_cast<std::size_t>(p)] *= base * owned / ext;
      }
    }
  }
  return iters;
}

long long InterpretationEngine::slab_elements(const compiler::ArrayMap& map, int proc,
                                              int dim, long long width) const {
  const std::span<const int> coords = layout_->proc_coords(proc);
  long long perp = 1;
  for (std::size_t j = 0; j < map.dims.size(); ++j) {
    if (static_cast<int>(j) == dim) continue;
    const auto& od = map.dims[j];
    const int c = od.grid_dim >= 0 ? coords[static_cast<std::size_t>(od.grid_dim)] : 0;
    perp *= od.local_count(c);
  }
  return perp * width;
}

long long InterpretationEngine::working_set_estimate(const SpmdNode& n,
                                                     long long space_points) const {
  // the array-ref factor is precomputed per node (NodeOpCounts::ws_arrays)
  const long long arrays = prog_->node_ops.at(static_cast<std::size_t>(n.id)).ws_arrays;
  const int elem = n.lhs ? front::type_size_bytes(n.lhs->type) : 4;
  return std::max<long long>(1, space_points) * arrays * elem /
         std::max(1, nprocs_);
}

// ---------------------------------------------------------------------------
// computation AAUs
// ---------------------------------------------------------------------------

void InterpretationEngine::price_iters_on(const SpmdNode& n, const IterCost& cost,
                                          const std::vector<long long>& iters) {
  // one pricing per node; processors differ only in their iteration count —
  // and under an even decomposition most of them don't even do that, so the
  // estimate is recomputed only when the count changes (cost.at is a pure
  // function of the count, so reuse is bit-identical)
  long long prev_it = 0;
  ComputeEstimate est{};
  if (options_.trace) {
    for (int p = 0; p < nprocs_; ++p) {
      const long long it = iters[static_cast<std::size_t>(p)];
      if (it == 0) continue;
      if (it != prev_it) {
        est = cost.at(it);
        prev_it = it;
      }
      charge(n.id, p, est.comp, 'C');
      charge(n.id, p, est.overhead, 'O');
    }
    return;
  }
  // untraced: the same per-proc charge sequence with the charge() call
  // overhead (category dispatch, trace test) hoisted out of the loop
  AAUMetric& m = metric(n.id);
  double* const clk = clock_.data();
  double mc = m.comp, mo = m.overhead;
  for (int p = 0; p < nprocs_; ++p) {
    const long long it = iters[static_cast<std::size_t>(p)];
    if (it == 0) continue;
    if (it != prev_it) {
      est = cost.at(it);
      prev_it = it;
    }
    if (est.comp > 0) {
      clk[p] += est.comp;
      mc += est.comp;
    }
    if (est.overhead > 0) {
      clk[p] += est.overhead;
      mo += est.overhead;
    }
  }
  m.comp = mc;
  m.overhead = mo;
}

void InterpretationEngine::price_iters_batch(const SpmdNode& n,
                                             InterpretationEngine* engines,
                                             const int* lanes, std::size_t count,
                                             const ResolvedSpace* const* spaces,
                                             const long long* pts,
                                             const IterCost* costs) {
  // lanes are independent (distinct clocks and metrics), so charging them
  // inside one loop is charge-for-charge identical to one call per lane
  for (std::size_t i = 0; i < count; ++i) {
    InterpretationEngine& e = engines[lanes[i]];
    e.price_iters_on(n, costs[i], e.local_iterations(n, *spaces[i], pts[i]));
  }
}

void InterpretationEngine::sync_then_charge_comm_batch(const SpmdNode& n,
                                                       InterpretationEngine* engines,
                                                       const int* lanes,
                                                       std::size_t count,
                                                       const double* cost_per_lane) {
  for (std::size_t i = 0; i < count; ++i) {
    InterpretationEngine& e = engines[lanes[i]];
    const double c = cost_per_lane[i];
    const double tmax = *std::max_element(e.clock_.begin(), e.clock_.end());
    if (e.options_.trace) {
      for (int p = 0; p < e.nprocs_; ++p) {
        const double idle = tmax - e.clock_[static_cast<std::size_t>(p)];
        if (idle > 0) e.charge(n.id, p, idle, 'W');
        if (c > 0) e.charge(n.id, p, c, 'M');
      }
      continue;
    }
    // untraced: identical charge sequence with the per-charge dispatch
    // hoisted (the 'M' cost is proc-invariant, the 'W' idle is not)
    AAUMetric& m = e.metric(n.id);
    double* const clk = e.clock_.data();
    double mw = m.wait, mm = m.comm;
    const bool comm = c > 0;
    for (int p = 0; p < e.nprocs_; ++p) {
      const double idle = tmax - clk[p];
      if (idle > 0) {
        clk[p] += idle;
        mw += idle;
      }
      if (comm) {
        clk[p] += c;
        mm += c;
      }
    }
    m.wait = mw;
    m.comm = mm;
  }
}

void InterpretationEngine::price_reduce_comm_batch(const SpmdNode& n,
                                                   InterpretationEngine* engines,
                                                   const int* lanes,
                                                   std::size_t count) {
  // For a fixed node the reduce cost is a pure function of (machine, nprocs,
  // collective); a lockstep batch interleaves a handful of nprocs values over
  // one machine, so a tiny memo replaces the per-lane analytic tree walk.
  struct Memo {
    const machine::MachineModel* mach;
    int nprocs;
    machine::CollectiveAlgo collective;
    double cost;
  };
  Memo memo[8];
  std::size_t memo_n = 0;
  const long long bytes = n.reduce_op == compiler::ReduceOp::MaxLoc ? 12 : 8;
  for (std::size_t i = 0; i < count; ++i) {
    InterpretationEngine& e = engines[lanes[i]];
    const compiler::ArrayMap* home =
        n.home_symbol >= 0 ? e.layout_->map_for(n.home_symbol) : nullptr;
    if (home == nullptr || e.nprocs_ <= 1) continue;
    double comm_cost = -1.0;
    for (std::size_t m = 0; m < memo_n; ++m) {
      if (memo[m].nprocs == e.nprocs_ && memo[m].mach == e.machine_ &&
          memo[m].collective == e.options_.collective) {
        comm_cost = memo[m].cost;
        break;
      }
    }
    if (comm_cost < 0) {
      comm_cost = e.fn_->comm().reduce(e.nprocs_, bytes,
                                       e.machine_->node().proc.t_fadd,
                                       e.options_.collective);
      if (memo_n < sizeof memo / sizeof memo[0]) {
        memo[memo_n++] = Memo{e.machine_, e.nprocs_, e.options_.collective, comm_cost};
      }
    }
    sync_then_charge_comm_batch(n, engines, lanes + i, 1, &comm_cost);
  }
}

// ---------------------------------------------------------------------------
// communication AAUs
// ---------------------------------------------------------------------------

void InterpretationEngine::sync_then_charge_comm(const SpmdNode& n,
                                                 const std::vector<double>& cost) {
  // loosely synchronous model: a global communication phase synchronizes
  // its participants — idle time becomes wait, then the analytic cost is
  // charged
  const double tmax = *std::max_element(clock_.begin(), clock_.end());
  for (int p = 0; p < nprocs_; ++p) {
    const double idle = tmax - clock_[static_cast<std::size_t>(p)];
    if (idle > 0) charge(n.id, p, idle, 'W');
    if (cost[static_cast<std::size_t>(p)] > 0) {
      charge(n.id, p, cost[static_cast<std::size_t>(p)], 'M');
    }
  }
}

void InterpretationEngine::price_overlap(const SpmdNode& n) {
  const compiler::ArrayMap* map = layout_->map_for(n.comm_array);
  if (map == nullptr) return;
  const auto& dd = map->dims[static_cast<std::size_t>(n.comm_dim)];
  if (dd.grid_dim < 0 || dd.nprocs <= 1) return;
  const int elem = front::type_size_bytes(prog_->symbols.at(n.comm_array).type);
  const bool strided = n.comm_dim != 0;
  std::vector<double>& cost = cost_scratch_;
  cost.assign(static_cast<std::size_t>(nprocs_), 0.0);
  for (int p = 0; p < nprocs_; ++p) {
    const int c = layout_->proc_coords(p)[static_cast<std::size_t>(dd.grid_dim)];
    const bool has_partner = n.comm_offset > 0 ? c + 1 < dd.nprocs : c > 0;
    if (!has_partner) continue;
    // BLOCK: only the ghost strip crosses; CYCLIC: every owned element's
    // neighbour lives on another processor
    const long long width =
        dd.kind == front::DistKind::Cyclic
            ? dd.local_count(c)
            : std::min<long long>(std::llabs(n.comm_offset),
                                  std::max<long long>(dd.block, 1));
    const long long bytes = slab_elements(*map, p, n.comm_dim, width) * elem;
    double t = fn_->comm().overlap_exchange(bytes, strided);
    if (n.per_element) {
      // message vectorization disabled: one message per boundary element
      const long long elems = std::max<long long>(1, bytes / elem);
      t = static_cast<double>(elems) * fn_->comm().ptp(elem);
    }
    if (n.comm_src_invariant && metric(n.id).visits > 1) {
      // overlap heuristic: a re-issued exchange of unchanged data hides its
      // setup latency behind the surrounding computation; only packing and
      // wire occupancy remain on the critical path
      t = 2.0 * fn_->comm().pack(bytes, strided) +
          fn_->comm().component().per_byte * static_cast<double>(bytes);
    }
    cost[static_cast<std::size_t>(p)] = t;
  }
  sync_then_charge_comm(n, cost);
}

void InterpretationEngine::price_cshift(const SpmdNode& n, long long shift) {
  const compiler::ArrayMap* map = layout_->map_for(n.comm_array);
  const int elem = front::type_size_bytes(prog_->symbols.at(n.comm_array).type);
  std::vector<double>& cost = cost_scratch_;
  cost.assign(static_cast<std::size_t>(nprocs_), 0.0);
  if (map == nullptr ||
      map->dims[static_cast<std::size_t>(n.comm_dim)].grid_dim < 0 ||
      map->dims[static_cast<std::size_t>(n.comm_dim)].nprocs <= 1) {
    // serial dimension: local circular copy
    long long total_local = 0;
    if (map != nullptr) {
      total_local = map->local_elements(layout_->grid(), 0);
    } else {
      total_local = 1;
      for (long long e : layout_->array_extents(n.comm_array)) total_local *= e;
    }
    const double t =
        static_cast<double>(total_local * elem) / machine_->node().mem.mem_bandwidth;
    std::fill(cost.begin(), cost.end(), t);
    sync_then_charge_comm(n, cost);
    return;
  }
  const auto& dd = map->dims[static_cast<std::size_t>(n.comm_dim)];
  const bool strided = n.comm_dim != 0;
  const long long w = std::min<long long>(std::llabs(shift), dd.block);
  for (int p = 0; p < nprocs_; ++p) {
    const int c = layout_->proc_coords(p)[static_cast<std::size_t>(dd.grid_dim)];
    const long long own = dd.local_count(c);
    const long long msg = slab_elements(*map, p, n.comm_dim, w) * elem;
    const long long local = slab_elements(*map, p, n.comm_dim,
                                          std::max<long long>(own - w, 0)) * elem;
    cost[static_cast<std::size_t>(p)] = fn_->comm().cshift(msg, local, strided);
  }
  sync_then_charge_comm(n, cost);
}

void InterpretationEngine::price_irregular(const SpmdNode& n, const ResolvedSpace& space) {
  const long long total = std::max<long long>(space.points(), 0);
  if (total == 0) return;
  const int elem = front::type_size_bytes(prog_->symbols.at(n.comm_array).type);
  const long long share = (total + nprocs_ - 1) / nprocs_;
  double cost = n.gather_pattern == compiler::GatherPattern::Irregular
                    ? fn_->comm().irregular(nprocs_, share, elem)
                    : fn_->comm().remap(nprocs_, share, elem);
  if (n.comm_src_invariant && metric(n.id).visits > 1) {
    cost = fn_->comm().pack(share * elem, true) +
           fn_->comm().component().per_byte * static_cast<double>(share * elem);
  }
  cost_scratch_.assign(static_cast<std::size_t>(nprocs_), cost);
  sync_then_charge_comm(n, cost_scratch_);
}

void InterpretationEngine::price_slice_bcast(const SpmdNode& n) {
  const compiler::ArrayMap* map = layout_->map_for(n.comm_array);
  if (map == nullptr || nprocs_ <= 1) return;
  const int elem = front::type_size_bytes(prog_->symbols.at(n.comm_array).type);
  const long long total = map->total_elements();
  const long long dim_extent = map->dims[static_cast<std::size_t>(n.comm_dim)].extent;
  const long long slice = total / std::max<long long>(dim_extent, 1);
  const double cost = fn_->comm().bcast(nprocs_, slice * elem, options_.collective);
  cost_scratch_.assign(static_cast<std::size_t>(nprocs_), cost);
  sync_then_charge_comm(n, cost_scratch_);
}

// ---------------------------------------------------------------------------

void require_critical_complete(const compiler::CompiledProgram& prog,
                               const front::Bindings& bindings) {
  const CriticalVariableReport report = analyze_critical(prog, bindings);
  if (!report.complete()) {
    std::string names;
    for (const auto& n : report.unresolved) names += (names.empty() ? "" : ", ") + n;
    throw CompileError({}, "unresolved critical variables: " + names +
                               " (supply bindings for them)");
  }
}

}  // namespace hpf90d::core
