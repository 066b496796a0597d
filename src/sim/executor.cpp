#include "sim/executor.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

#include "compiler/opcount.hpp"
#include "support/diagnostics.hpp"

namespace hpf90d::sim {

using compiler::SpmdKind;
using compiler::SpmdNode;
using front::Expr;
using front::ExprKind;
using support::CompileError;

namespace {

/// Trips of the Fortran triplet lo:hi:step (step != 0).
long long trip_count(long long lo, long long hi, long long step) {
  return step > 0 ? (hi >= lo ? (hi - lo) / step + 1 : 0)
                  : (lo >= hi ? (lo - hi) / -step + 1 : 0);
}

constexpr const char* kWhileLimitError = "do while exceeded the simulation trip limit";

/// Tape words holding one mask bit per point.
std::size_t mask_words(long long points) {
  return static_cast<std::size_t>((points + 63) / 64);
}

}  // namespace

std::size_t ValueTape::bytes() const noexcept {
  std::size_t total = words.size() * sizeof(long long);
  for (const auto* m : {&printed, &scalars}) {
    for (const auto& [name, value] : *m) total += name.size() + sizeof(value);
  }
  return total;
}

Executor::Executor(const compiler::CompiledProgram& prog,
                   const compiler::DataLayout& layout,
                   const machine::MachineModel& machine, const SimOptions& options,
                   const front::Bindings& bindings) {
  rebind(prog, layout, machine, options, bindings);
}

void Executor::rebind(const compiler::CompiledProgram& prog,
                      const compiler::DataLayout& layout,
                      const machine::MachineModel& machine, const SimOptions& options,
                      const front::Bindings& bindings) {
  prog_ = &prog;
  cost_program_ = prog.cost_program.get();
  layout_ = &layout;
  machine_ = &machine;
  options_ = options;
  nprocs_ = layout.nprocs();
  const compiler::CostProgram& cp = *cost_program_;
  env_.reset(cp.slots, kLanes);
  for (const auto& [id, v] : compiler::seed_values(prog.symbols, bindings).defined) {
    env_.broadcast(id, v);
  }
  for (std::size_t l = 0; l < kLanes; ++l) env_.define_extents(cp, layout, l);
  storage_.rebind(prog.symbols, layout);
  views_.assign(cp.arrays.size(), compiler::ArrayView{});
  // one register column per lane, cache-line aligned like the env columns
  regs_.resize(static_cast<std::size_t>(cp.max_regs) * kLanes + 8);
  const auto raw = reinterpret_cast<std::uintptr_t>(regs_.data());
  regs_aligned_ = reinterpret_cast<double*>((raw + 63) & ~std::uintptr_t{63});
  cost_.emplace(machine.node());
  comm_model_ = machine::CommModel(machine.node().comm);
  network_.emplace(nprocs_, layout.grid().shape, machine.node().comm,
                   SimNetworkOptions{options.contention});
  clock_.assign(static_cast<std::size_t>(nprocs_), 0.0);
  planned_ = nullptr;
  node_plans_.assign(static_cast<std::size_t>(prog.node_count), NodePlan{});
  accesses_.clear();
  exchanges_.clear();
  shift_blocks_.clear();
}

void Executor::run_into(SimResult& out, const NoiseStream* stream) {
  record(tape_);
  retime_into(tape_, options_.seed, out, stream);
}

void Executor::record(ValueTape& tape) {
  tape.words.clear();
  tape.printed.clear();
  tape.scalars.clear();
  if (planned_ == &tape) planned_ = nullptr;  // re-recorded in place
  rec_ = &tape;
  record_seq(prog_->root->children);
  // a symbol's id is its index in the table (SymbolTable::add)
  const auto& syms = prog_->symbols.symbols();
  for (std::size_t id = 0; id < syms.size(); ++id) {
    const auto& sym = syms[id];
    if (sym.kind == front::SymbolKind::Scalar || sym.kind == front::SymbolKind::Param) {
      const int i = static_cast<int>(id);
      if (env_.defined(i)[0] != 0) tape.scalars[sym.name] = env_.values(i)[0];
    }
  }
}

double Executor::retime(const ValueTape& tape, std::uint64_t seed,
                        const NoiseStream* stream) {
  options_.seed = seed;
  network_->reset();
  noise_.reset(seed, options_.noise, stream);
  metrics_.assign(static_cast<std::size_t>(prog_->node_count), NodeMetric{});
  for (int p = 0; p < nprocs_; ++p) {
    clock_[static_cast<std::size_t>(p)] = noise_.startup_skew();
  }
  deriving_ = planned_ != &tape;
  if (deriving_) {
    planned_ = nullptr;
    charges_.clear();
    visit_block_.clear();
    for (NodePlan& np : node_plans_) np.last_len = 0;
  }
  visit_pos_ = 0;
  walk_ = &tape;
  walk_pos_ = 0;
  time_seq(prog_->root->children);
  walk_ = nullptr;
  if (walk_pos_ != tape.words.size()) {
    throw std::logic_error("timing walk did not consume the whole value tape");
  }
  planned_ = &tape;
  return *std::max_element(clock_.begin(), clock_.end());
}

void Executor::retime_into(const ValueTape& tape, std::uint64_t seed, SimResult& out,
                           const NoiseStream* stream) {
  out.total = retime(tape, seed, stream);
  out.proc_clock = clock_;
  out.per_node = metrics_;
  out.comp = out.comm = out.overhead = 0;
  for (auto& m : out.per_node) {
    m.comp /= nprocs_;
    m.comm /= nprocs_;
    m.overhead /= nprocs_;
    out.comp += m.comp;
    out.comm += m.comm;
    out.overhead += m.overhead;
  }
  out.printed = tape.printed;
  out.scalars = tape.scalars;
}

std::span<const long long> Executor::tape_at(std::size_t count) {
  if (walk_pos_ + count > walk_->words.size()) {
    throw std::logic_error("timing walk ran past the end of the value tape");
  }
  const std::span<const long long> out(walk_->words.data() + walk_pos_, count);
  walk_pos_ += count;
  return out;
}

// ---------------------------------------------------------------------------
// attribution helpers
// ---------------------------------------------------------------------------

void Executor::charge_comp(int node_id, int proc, double t) {
  clock_[static_cast<std::size_t>(proc)] += t;
  metric(node_id).comp += t;
}
void Executor::charge_comm(int node_id, int proc, double t) {
  clock_[static_cast<std::size_t>(proc)] += t;
  metric(node_id).comm += t;
}
void Executor::charge_overhead(int node_id, int proc, double t) {
  clock_[static_cast<std::size_t>(proc)] += t;
  metric(node_id).overhead += t;
}
void Executor::charge_all_overhead(int node_id, double t) {
  for (int p = 0; p < nprocs_; ++p) charge_overhead(node_id, p, t);
}

// ---------------------------------------------------------------------------
// functional pass
// ---------------------------------------------------------------------------

void Executor::eval(std::int32_t id, std::size_t width, double* out, unsigned char* ok) {
  const compiler::CostProgram& cp = *cost_program_;
  const compiler::ExprCode& c = cp.exprs[static_cast<std::size_t>(id)];
  // bind the arrays it touches on first use; one whose extents do not
  // resolve stays unbound, so an element access fails where it is reached
  for (std::uint32_t k = 0; k < c.arrays_count; ++k) {
    const std::size_t a = cp.expr_arrays[c.arrays_first + k];
    if (views_[a].extents == nullptr) views_[a] = storage_.view(cp.arrays[a].symbol);
  }
  (void)compiler::eval_code_batch(cp, c, env_, views_, regs_aligned_, out, ok, width);
}

double Executor::scalar(std::int32_t id) {
  eval(id, compiler::kBatchStripe, vals_.data(), ok_.data());
  if (ok_[0] == 0) fail_lane(id, compiler::kBatchStripe, 0);
  return vals_[0];
}

void Executor::fail_lane(std::int32_t id, std::size_t width, std::size_t lane) {
  throw compiler::lane_error(*cost_program_,
                             cost_program_->exprs[static_cast<std::size_t>(id)], env_,
                             views_, regs_aligned_, width, lane);
}

void Executor::record_seq(const std::vector<compiler::SpmdNodePtr>& nodes) {
  for (const auto& n : nodes) record_node(*n);
}

void Executor::record_node(const SpmdNode& n) {
  std::vector<long long>& words = rec_->words;
  switch (n.kind) {
    case SpmdKind::Seq: record_seq(n.children); break;
    case SpmdKind::ScalarAssign: {
      const double v = scalar(node_cost(n).rhs);
      env_.broadcast(n.lhs->symbol,
                     n.lhs->type == front::TypeBase::Integer ? std::trunc(v) : v);
      break;
    }
    case SpmdKind::LocalLoop: record_local_loop(n); break;
    case SpmdKind::Reduce: record_reduce(n); break;
    case SpmdKind::CShiftComm: {
      const long long shift = scalar_int(node_cost(n).comm_amount);
      storage_.cshift_into(n.comm_temp, n.comm_array, n.comm_dim, shift);
      words.push_back(shift);
      break;
    }
    case SpmdKind::GatherComm:
    case SpmdKind::ScatterComm: words.push_back(resolve_space(n)); break;
    case SpmdKind::DoLoop: record_do(n); break;
    case SpmdKind::WhileLoop: record_while(n); break;
    case SpmdKind::IfBlock: {
      const bool taken = scalar(node_cost(n).cond) != 0.0;
      words.push_back(taken ? 1 : 0);
      record_seq(taken ? n.children : n.else_children);
      break;
    }
    case SpmdKind::HostIO: record_hostio(n); break;
    case SpmdKind::OverlapComm:
    case SpmdKind::SliceBroadcast: break;  // priced from configuration alone
  }
}

void Executor::record_do(const SpmdNode& n) {
  const compiler::NodeCost& nc = node_cost(n);
  const long long lo = scalar_int(nc.do_lo);
  const long long hi = scalar_int(nc.do_hi);
  const long long step = n.do_step ? scalar_int(nc.do_step) : 1;
  if (step == 0) throw CompileError(n.loc, "do loop step is zero");
  const long long trips = trip_count(lo, hi, step);
  rec_->words.push_back(trips);
  for (long long t = 0; t < trips; ++t) {
    env_.broadcast(n.do_symbol, static_cast<double>(lo + t * step));
    record_seq(n.children);
  }
}

void Executor::record_while(const SpmdNode& n) {
  // The trip count is known only once the loop exits, after the body's own
  // entries: reserve its slot up front.
  const std::size_t slot = rec_->words.size();
  rec_->words.push_back(0);
  long long trips = 0;
  while (scalar(node_cost(n).cond) != 0.0) {
    if (++trips > options_.max_while_trips) throw CompileError(n.loc, kWhileLimitError);
    record_seq(n.children);
  }
  rec_->words[slot] = trips;
}

void Executor::record_hostio(const SpmdNode& n) {
  const compiler::NodeCost& nc = node_cost(n);
  for (std::size_t i = 0; i < n.io_args.size(); ++i) {
    if (n.io_args[i]->rank == 0) {
      rec_->printed[n.io_args[i]->str()] = scalar(nc.io_first + static_cast<std::int32_t>(i));
    }
  }
}

// ---------------------------------------------------------------------------
// timing walk
// ---------------------------------------------------------------------------

void Executor::time_seq(const std::vector<compiler::SpmdNodePtr>& nodes) {
  for (const auto& n : nodes) time_node(*n);
}

void Executor::time_node(const SpmdNode& n) {
  metric(n.id).visits++;
  switch (n.kind) {
    case SpmdKind::Seq: time_seq(n.children); break;
    case SpmdKind::ScalarAssign: time_scalar_assign(n); break;
    case SpmdKind::LocalLoop: time_local_loop(n); break;
    case SpmdKind::OverlapComm: time_overlap(n); break;
    case SpmdKind::CShiftComm: time_cshift(n); break;
    case SpmdKind::GatherComm:
    case SpmdKind::ScatterComm: time_irregular(n); break;
    case SpmdKind::SliceBroadcast: time_slice_bcast(n); break;
    case SpmdKind::Reduce: time_reduce(n); break;
    case SpmdKind::DoLoop: time_do(n); break;
    case SpmdKind::WhileLoop: time_while(n); break;
    case SpmdKind::IfBlock: time_if(n); break;
    case SpmdKind::HostIO: time_hostio(n); break;
  }
}

void Executor::time_scalar_assign(const SpmdNode& n) {
  const double t = node_plan(n).stmt_t;
  // replicated computation: every node executes the same statement
  for (int p = 0; p < nprocs_; ++p) {
    charge_comp(n.id, p, t * noise_.compute_factor());
  }
}

void Executor::time_do(const SpmdNode& n) {
  const long long trips = tape_next();
  charge_all_overhead(n.id, machine_->node().proc.loop_setup);
  for (long long t = 0; t < trips; ++t) {
    charge_all_overhead(n.id, machine_->node().proc.loop_overhead);
    time_seq(n.children);
  }
}

void Executor::time_while(const SpmdNode& n) {
  const long long trips = tape_next();
  // A tape recorded under a larger limit still fails this one, at the same
  // loop a fresh functional pass would.
  if (trips > options_.max_while_trips) throw CompileError(n.loc, kWhileLimitError);
  const double cond_t = node_plan(n).cond_t;
  for (long long t = 0;; ++t) {
    charge_all_overhead(n.id, cond_t);
    if (t == trips) break;
    time_seq(n.children);
  }
}

void Executor::time_if(const SpmdNode& n) {
  const bool taken = tape_next() != 0;
  charge_all_overhead(n.id, machine_->node().proc.branch_overhead);
  time_seq(taken ? n.children : n.else_children);
}

void Executor::time_hostio(const SpmdNode& n) {
  long long bytes = 16;  // service request framing
  for (const auto& arg : n.io_args) {
    if (arg->rank == 0) {
      bytes += 16;
    } else {
      bytes += storage_.total_elements(arg->symbol) * front::type_size_bytes(arg->type);
    }
  }
  const auto& io = machine_->node().io;
  charge_comm(n.id, 0, io.host_latency + io.host_per_byte * static_cast<double>(bytes));
}

// ---------------------------------------------------------------------------
// iteration helpers
// ---------------------------------------------------------------------------

long long Executor::resolve_space(const SpmdNode& n) {
  const compiler::NodeCost& nc = node_cost(n);
  const std::int32_t* codes = cost_program_->space_codes.data() + nc.space_first;
  lo_.clear();
  hi_.clear();
  step_.clear();
  long long total = 1;
  for (std::size_t d = 0; d < n.space.size(); ++d) {
    const long long lo = scalar_int(codes[3 * d]);
    const long long hi = scalar_int(codes[3 * d + 1]);
    const long long step = codes[3 * d + 2] >= 0 ? scalar_int(codes[3 * d + 2]) : 1;
    lo_.push_back(lo);
    hi_.push_back(hi);
    step_.push_back(step);
    total *= trip_count(lo, hi, step);
  }
  return total;
}

std::size_t Executor::load_points(const SpmdNode& n, bool& more) {
  const std::size_t rank = point_.size();
  if (rank == 0) {
    more = false;
    return 1;
  }
  // a run of the innermost dimension at a time: its index counts through
  // the run while the outer ones hold still
  const std::size_t d = rank - 1;
  std::size_t m = 0;
  do {
    const auto left = static_cast<std::size_t>(trip_count(point_[d], hi_[d], step_[d]));
    const std::size_t run = std::min(left, kLanes - m);
    env_.define_run(n.space[d].symbol, m, run, point_[d], step_[d]);
    for (std::size_t o = 0; o < d; ++o) env_.define_run(n.space[o].symbol, m, run, point_[o], 0);
    m += run;
    point_[d] += static_cast<long long>(run - 1) * step_[d];
    more = next_point();
  } while (more && m < kLanes);
  return m;
}

void Executor::keep_last_point(const SpmdNode& n, std::size_t last) {
  for (const auto& ix : n.space) env_.broadcast(ix.symbol, env_.values(ix.symbol)[last]);
}

bool Executor::next_point() {
  for (std::size_t d = lo_.size(); d-- > 0;) {
    point_[d] += step_[d];
    if (step_[d] > 0 ? point_[d] <= hi_[d] : point_[d] >= hi_[d]) return true;
    point_[d] = lo_[d];
  }
  return false;
}

void Executor::record_space() {
  for (std::size_t d = 0; d < lo_.size(); ++d) {
    rec_->words.insert(rec_->words.end(), {lo_[d], hi_[d], step_[d]});
  }
}

int Executor::owner_of_point(const SpmdNode& n, const compiler::ArrayMap& home,
                             std::span<const long long> point) {
  std::vector<int>& coords = owner_coords_scratch_;
  coords.assign(static_cast<std::size_t>(layout_->grid().rank()), 0);
  for (std::size_t h = 0; h < n.home_driver.size(); ++h) {
    const int drv = n.home_driver[h];
    if (drv < 0) continue;
    const auto& dd = home.dims[h];
    if (dd.grid_dim < 0) continue;
    const long long g = point[static_cast<std::size_t>(drv)] + n.home_driver_offset[h];
    coords[static_cast<std::size_t>(dd.grid_dim)] = dd.owner_coord(g);
  }
  return layout_->grid().linear(coords);
}

bool Executor::count_owned_iterations(const SpmdNode& n, const compiler::ArrayMap& home,
                                      std::span<long long> iters) {
  // The owner of a point is linear(coords) with coords[g] a function of the
  // one space dimension driving grid axis g (0 when no dimension does). When
  // every axis has at most one driver and every space dimension drives at
  // most one axis, the count factorizes: per-axis ownership histograms times
  // the trip counts of the non-driving dimensions.
  const compiler::ProcGrid& grid = layout_->grid();
  const std::size_t grank = static_cast<std::size_t>(grid.rank());
  const std::size_t rank = lo_.size();
  grid_driver_.assign(grank, -1);
  grid_home_dim_.assign(grank, -1);
  for (std::size_t h = 0; h < n.home_driver.size(); ++h) {
    const int drv = n.home_driver[h];
    if (drv < 0) continue;
    const auto& dd = home.dims[h];
    if (dd.grid_dim < 0) continue;
    const std::size_t g = static_cast<std::size_t>(dd.grid_dim);
    if (g >= grank || grid_driver_[g] >= 0 || dd.nprocs != grid.shape[g]) return false;
    for (int other : grid_driver_) {
      if (other == drv) return false;
    }
    grid_driver_[g] = drv;
    grid_home_dim_[g] = static_cast<int>(h);
  }
  long long free_points = 1;  // product of the non-driving dimensions' trips
  for (std::size_t d = 0; d < rank; ++d) {
    bool drives = false;
    for (int drv : grid_driver_) drives = drives || drv == static_cast<int>(d);
    if (drives) continue;
    free_points *= trip_count(lo_[d], hi_[d], step_[d]);
  }
  // histogram of axis g at owner_hist_[base_g + coord], base_g = sum of the
  // preceding axes' extents
  std::size_t hist_size = 0;
  for (int extent : grid.shape) hist_size += static_cast<std::size_t>(extent);
  owner_hist_.assign(hist_size, 0);
  std::size_t base = 0;
  for (std::size_t g = 0; g < grank; ++g) {
    if (grid_driver_[g] >= 0) {
      const std::size_t d = static_cast<std::size_t>(grid_driver_[g]);
      const std::size_t h = static_cast<std::size_t>(grid_home_dim_[g]);
      const auto& dd = home.dims[h];
      const long long off = n.home_driver_offset[h];
      for (long long v = lo_[d]; step_[d] > 0 ? v <= hi_[d] : v >= hi_[d]; v += step_[d]) {
        ++owner_hist_[base + static_cast<std::size_t>(dd.owner_coord(v + off))];
      }
    }
    base += static_cast<std::size_t>(grid.shape[g]);
  }
  for (int p = 0; p < nprocs_; ++p) {
    const std::span<const int> coords = layout_->proc_coords(p);
    long long count = free_points;
    base = 0;
    for (std::size_t g = 0; g < grank; ++g) {
      const int c = coords[g];
      count *= grid_driver_[g] >= 0 ? owner_hist_[base + static_cast<std::size_t>(c)]
                                    : (c == 0 ? 1 : 0);
      base += static_cast<std::size_t>(grid.shape[g]);
    }
    iters[static_cast<std::size_t>(p)] = count;
  }
  return true;
}

namespace {

void scan_subscript(const Expr& x, int inner_symbol, bool& uses_inner, bool& has_ref) {
  if (x.kind == ExprKind::Var && x.symbol == inner_symbol) uses_inner = true;
  if (x.kind == ExprKind::ArrayRef) has_ref = true;
  for (const auto& a : x.args) scan_subscript(*a, inner_symbol, uses_inner, has_ref);
  for (const auto& ss : x.subs) {
    if (ss.scalar) scan_subscript(*ss.scalar, inner_symbol, uses_inner, has_ref);
  }
}

/// Collects the memory-access patterns of every array reference in `e`.
/// `inner_symbol` is the innermost loop index; the stride is the distance
/// (in elements, row-major) between consecutive accesses.
void collect_accesses(const Expr& e, int inner_symbol, Storage& storage,
                      const front::SymbolTable& symbols,
                      std::vector<AccessPattern>& out, bool store_ctx) {
  if (e.kind == ExprKind::ArrayRef) {
    AccessPattern ap;
    ap.symbol = e.symbol;
    ap.elem_bytes = front::type_size_bytes(e.type);
    ap.is_store = store_ctx;
    const auto& extents = storage.extents(e.symbol);
    ap.array_bytes = ap.elem_bytes;
    for (long long ext : extents) ap.array_bytes *= ext;
    long long stride = 0;
    bool irregular = false;
    long long dim_stride = 1;
    for (std::size_t d = e.subs.size(); d-- > 0;) {
      const auto& sub = e.subs[d];
      if (sub.kind == front::Subscript::Kind::Scalar) {
        const Expr& s = *sub.scalar;
        bool uses_inner = false;
        bool has_ref = false;
        scan_subscript(s, inner_symbol, uses_inner, has_ref);
        if (has_ref && uses_inner) irregular = true;
        else if (uses_inner) stride += dim_stride;  // coefficient ~1 dominant case
      }
      if (d < extents.size()) dim_stride *= extents[d];
    }
    ap.stride_elements = irregular ? -1 : std::max<long long>(stride, 0);
    out.push_back(ap);
  }
  for (const auto& a : e.args) collect_accesses(*a, inner_symbol, storage, symbols, out, false);
  for (const auto& s : e.subs) {
    if (s.scalar) collect_accesses(*s.scalar, inner_symbol, storage, symbols, out, false);
  }
}

}  // namespace

void Executor::collect_access_patterns(const SpmdNode& n) {
  const std::size_t first = accesses_.size();
  const int inner = n.inner          ? n.inner->index.symbol
                    : !n.space.empty() ? n.space.back().symbol
                                       : -1;
  if (n.inner) {
    collect_accesses(*n.inner->arg, inner, storage_, prog_->symbols, accesses_, false);
  } else if (n.rhs) {
    collect_accesses(*n.rhs, inner, storage_, prog_->symbols, accesses_, false);
  }
  if (n.mask) collect_accesses(*n.mask, inner, storage_, prog_->symbols, accesses_, false);
  if (n.lhs && n.lhs->kind == ExprKind::ArrayRef) {
    collect_accesses(*n.lhs, inner, storage_, prog_->symbols, accesses_, true);
  }
  if (n.reduce_arg) {
    collect_accesses(*n.reduce_arg, inner, storage_, prog_->symbols, accesses_, false);
  }
  for (std::size_t i = first; i < accesses_.size(); ++i) {
    accesses_[i].array_bytes /= std::max(1, nprocs_);
  }
}

// ---------------------------------------------------------------------------
// the timing plan
// ---------------------------------------------------------------------------

Executor::NodePlan& Executor::node_plan(const SpmdNode& n) {
  NodePlan& np = node_plans_.at(static_cast<std::size_t>(n.id));
  if (np.ready) return np;
  np.ready = true;
  const auto& proc = machine_->node().proc;
  switch (n.kind) {
    case SpmdKind::ScalarAssign:
      np.stmt_t = cost_->scalar_cost(body_ops(n)) + proc.t_store;
      break;
    case SpmdKind::WhileLoop:
      np.cond_t = proc.branch_overhead + cost_->scalar_cost(cond_ops(n));
      break;
    case SpmdKind::LocalLoop:
    case SpmdKind::Reduce: {
      np.access_first = accesses_.size();
      collect_access_patterns(n);
      np.access_count = accesses_.size() - np.access_first;
      break;
    }
    case SpmdKind::OverlapComm: plan_overlap(n, np); break;
    case SpmdKind::CShiftComm: {
      const compiler::ArrayMap* map = layout_->map_for(n.comm_array);
      if (map == nullptr || map->dims[static_cast<std::size_t>(n.comm_dim)].grid_dim < 0 ||
          map->dims[static_cast<std::size_t>(n.comm_dim)].nprocs <= 1) {
        // serial dimension: each processor copies its share in place
        const long long total = storage_.total_elements(n.comm_array) /
                                std::max(1LL, static_cast<long long>(nprocs_));
        const int elem = front::type_size_bytes(prog_->symbols.at(n.comm_array).type);
        np.serial_copy = static_cast<double>(total * elem) / machine_->node().mem.mem_bandwidth;
      }
      break;
    }
    default: break;
  }
  return np;
}

void Executor::plan_visit(const SpmdNode& n, std::size_t at) {
  NodePlan& np = node_plan(n);
  const std::span<const long long> words(walk_->words.data() + at, walk_pos_ - at);
  if (np.last_len == words.size() &&
      std::equal(words.begin(), words.end(), walk_->words.begin() + np.last_at)) {
    visit_block_.push_back(np.last_block);
    return;
  }
  np.last_at = at;
  np.last_len = words.size();
  np.last_block = charges_.size();
  visit_block_.push_back(np.last_block);
  const std::size_t nprocs = static_cast<std::size_t>(nprocs_);
  charges_.resize(charges_.size() + nprocs);

  // the words: points, inner trips (LocalLoop with a dim reduction), the
  // space (lo, hi, step per dimension), mask bits (masked LocalLoop)
  const bool local = n.kind == SpmdKind::LocalLoop;
  const bool masked = local && n.mask != nullptr;
  const long long points = words[0];
  const long long inner_trips = local && n.inner ? words[1] : 0;
  const std::size_t space_at = local && n.inner ? 2 : 1;
  lo_.clear();
  hi_.clear();
  step_.clear();
  for (std::size_t d = 0; d < n.space.size(); ++d) {
    lo_.push_back(words[space_at + 3 * d]);
    hi_.push_back(words[space_at + 3 * d + 1]);
    step_.push_back(words[space_at + 3 * d + 2]);
  }
  const compiler::ArrayMap* home = home_map(n);
  if (home != nullptr) {
    count_owned(n, *home, masked ? words.subspan(space_at + 3 * n.space.size())
                                 : std::span<const long long>{});
  }

  const compiler::OpCounts& ops = body_ops(n);
  const compiler::OpCounts* mask_ops = masked ? &cond_ops(n) : nullptr;
  const std::span<const AccessPattern> accesses(accesses_.data() + np.access_first,
                                                np.access_count);
  // working set ~ iteration count x (arrays touched) x element size
  const Expr& elem = local ? *n.lhs : *n.reduce_arg;
  const long long ws = points * prog_->node_ops.at(static_cast<std::size_t>(n.id)).ws_arrays *
                       front::type_size_bytes(elem.type) / std::max(1, nprocs_);
  const double t_store = machine_->node().proc.t_store;
  Charge* const out = charges_.data() + np.last_block;
  LoopBodyCost body;
  double body_frac = -1.0;  // the mask fraction `body` was priced at
  for (std::size_t p = 0; p < nprocs; ++p) {
    const long long it = home != nullptr ? iters_[p] : points;
    if (it == 0) continue;
    const long long tr = home != nullptr && masked ? trues_[p] : points;
    const double frac = masked ? static_cast<double>(tr) / static_cast<double>(it) : 1.0;
    if (frac != body_frac) {
      body = cost_->body_cost(ops, accesses, ws, frac, mask_ops);
      body_frac = frac;
    }
    double per_iter = body.per_iteration;
    if (local && n.inner) {
      per_iter = body.setup +
                 static_cast<double>(inner_trips) * (body.per_iteration + body.per_iter_overhead) +
                 t_store;
    }
    out[p] = Charge{it, static_cast<double>(it) * per_iter,
                    body.setup + static_cast<double>(it) * body.per_iter_overhead};
  }
}

void Executor::count_owned(const SpmdNode& n, const compiler::ArrayMap& home,
                           std::span<const long long> bits) {
  // An unmasked loop's counts follow from the ownership histograms; a masked
  // one (or an unseparable mapping) walks the recorded space.
  const std::size_t nprocs = static_cast<std::size_t>(nprocs_);
  iters_.assign(nprocs, 0);
  if (!bits.empty() || !count_owned_iterations(n, home, iters_)) {
    trues_.assign(nprocs, 0);
    point_.assign(lo_.begin(), lo_.end());
    std::size_t k = 0;
    do {
      const auto owner = static_cast<std::size_t>(owner_of_point(n, home, point_));
      ++iters_[owner];
      if (!bits.empty() && (static_cast<std::uint64_t>(bits[k / 64]) >> (k % 64) & 1) != 0) {
        ++trues_[owner];
      }
      ++k;
    } while (next_point());
  }
}

void Executor::charge_planned(const SpmdNode& n) {
  const Charge* const c = charges_.data() + visit_block_[visit_pos_++];
  for (int p = 0; p < nprocs_; ++p) {
    const Charge& ch = c[static_cast<std::size_t>(p)];
    if (ch.iters == 0) continue;
    charge_comp(n.id, p, ch.comp * noise_.compute_factor());
    charge_overhead(n.id, p, ch.overhead);
  }
}

// ---------------------------------------------------------------------------
// local computation
// ---------------------------------------------------------------------------

void Executor::record_local_loop(const SpmdNode& n) {
  const compiler::NodeCost& nc = node_cost(n);
  std::vector<long long>& words = rec_->words;
  const long long points = resolve_space(n);
  words.push_back(points);
  if (points <= 0) return;

  // inner-reduction resolved bounds (loop-invariant by construction)
  long long inner_lo = 0, inner_hi = -1;
  if (n.inner) {
    inner_lo = scalar_int(nc.inner_lo);
    inner_hi = scalar_int(nc.inner_hi);
    words.push_back(std::max<long long>(0, inner_hi - inner_lo + 1));
  }
  // The space, and the mask bits, let any layout count the owners'
  // iterations and trues without evaluating anything. Every loop records
  // them, replicated or not, so the tape does not depend on the mapping.
  record_space();
  const std::size_t mask_at = words.size();
  if (n.mask) words.resize(mask_at + mask_words(points), 0);

  // Forall semantics: every point's mask, value and target are evaluated
  // against the arrays as they stand, then the stores commit. Points run
  // kLanes at a time as lanes, in odometer order, so the first failing
  // point is the first failing lane of the first chunk that has one. A
  // forall that reads its own target holds its stores until the last
  // chunk; any other commits each chunk's as it goes, since no later
  // chunk can see them.
  pending_.clear();
  const bool direct = !reads_own_target(n);
  const std::span<double> target = storage_.raw(n.lhs->symbol);
  const bool integer = n.lhs->type == front::TypeBase::Integer;

  point_.assign(lo_.begin(), lo_.end());
  std::size_t k = 0;  // odometer ordinal of the chunk's first point
  std::size_t m = 0;
  for (bool more = true; more; k += m) {
    m = load_points(n, more);
    const std::size_t width = compiler::stripe_width(m);
    if (n.mask) eval(nc.cond, width, mask_.data(), mask_ok_.data());
    if (n.inner) {
      const compiler::ReduceOp op = n.inner->op;
      const double init = op == compiler::ReduceOp::Product  ? 1.0
                          : op == compiler::ReduceOp::MaxVal ? -1e300
                          : op == compiler::ReduceOp::MinVal ? 1e300
                                                             : 0.0;
      std::fill_n(value_.begin(), width, init);
      std::fill_n(value_ok_.begin(), width, static_cast<unsigned char>(1));
      for (long long j = inner_lo; j <= inner_hi; ++j) {
        env_.broadcast(n.inner->index.symbol, static_cast<double>(j));
        eval(nc.arg, width, vals_.data(), ok_.data());
        for (std::size_t l = 0; l < width; ++l) {
          const double x = vals_[l];
          double& acc = value_[l];
          switch (op) {
            case compiler::ReduceOp::Sum: acc += x; break;
            case compiler::ReduceOp::Product: acc *= x; break;
            case compiler::ReduceOp::MaxVal: acc = std::max(acc, x); break;
            default: acc = std::min(acc, x); break;
          }
          value_ok_[l] &= ok_[l];
        }
      }
    } else {
      eval(nc.rhs, width, value_.data(), value_ok_.data());
    }
    eval(nc.lhs, width, offset_.data(), offset_ok_.data());

    // one AND over the chunk's flags; only a chunk with a failed flag
    // walks its lanes for the first point that fails (a masked-off point
    // never does)
    unsigned char all_ok = 1;
    for (std::size_t l = 0; l < m; ++l) all_ok &= value_ok_[l] & offset_ok_[l];
    for (std::size_t l = 0; n.mask && l < m; ++l) all_ok &= mask_ok_[l];
    for (std::size_t l = 0; all_ok == 0 && l < m; ++l) {
      const bool on = !n.mask || (mask_ok_[l] != 0 && mask_[l] != 0.0);
      if ((n.mask && mask_ok_[l] == 0) || (on && (value_ok_[l] == 0 || offset_ok_[l] == 0))) {
        fail_point(n, width, l, inner_lo, inner_hi);
      }
    }
    if (!n.mask && direct) {  // every point stores, straight into storage
      double* const out = target.data();
      if (integer) {
        for (std::size_t l = 0; l < m; ++l) {
          out[static_cast<std::ptrdiff_t>(offset_[l])] = std::trunc(value_[l]);
        }
      } else {
        for (std::size_t l = 0; l < m; ++l) out[static_cast<std::ptrdiff_t>(offset_[l])] = value_[l];
      }
      continue;
    }
    for (std::size_t l = 0; l < m; ++l) {
      if (n.mask) {
        if (mask_[l] == 0.0) continue;
        words[mask_at + (k + l) / 64] |= static_cast<long long>(std::uint64_t{1} << ((k + l) % 64));
      }
      const double value = integer ? std::trunc(value_[l]) : value_[l];
      const auto offset = static_cast<std::size_t>(offset_[l]);
      if (direct) {
        target[offset] = value;
      } else {
        pending_.push_back(PendingStore{offset, value});
      }
    }
  }
  keep_last_point(n, m - 1);
  for (const auto& st : pending_) target[st.offset] = st.value;
}

bool Executor::reads_own_target(const SpmdNode& n) const {
  const compiler::CostProgram& cp = *cost_program_;
  const compiler::NodeCost& nc = node_cost(n);
  // the target's own ArrayOffset is the offset expression's last access,
  // and its array the last entry of that expression's arrays
  const compiler::ExprCode& lhs = cp.exprs[static_cast<std::size_t>(nc.lhs)];
  if (lhs.count == 0 || lhs.arrays_count == 0 ||
      cp.code[lhs.first + lhs.count - 1].op != compiler::CostOp::ArrayOffset) {
    return true;  // no well-formed target: keep the stores back
  }
  const std::uint16_t target = cp.expr_arrays[lhs.arrays_first + lhs.arrays_count - 1];
  const auto reads = [&](std::int32_t id, bool own_target) {
    if (id < 0) return false;
    const compiler::ExprCode& c = cp.exprs[static_cast<std::size_t>(id)];
    const auto first = cp.expr_arrays.begin() + c.arrays_first;
    const auto last = first + c.arrays_count - (own_target ? 1 : 0);
    return std::find(first, last, target) != last;
  };
  return reads(nc.cond, false) || reads(n.inner ? nc.arg : nc.rhs, false) ||
         reads(nc.lhs, true);
}

void Executor::fail_point(const SpmdNode& n, std::size_t width, std::size_t lane,
                          long long inner_lo, long long inner_hi) {
  const compiler::NodeCost& nc = node_cost(n);
  if (n.mask && mask_ok_[lane] == 0) fail_lane(nc.cond, width, lane);
  if (n.inner) {
    for (long long j = inner_lo; j <= inner_hi; ++j) {
      env_.broadcast(n.inner->index.symbol, static_cast<double>(j));
      eval(nc.arg, width, vals_.data(), ok_.data());
      if (ok_[lane] == 0) fail_lane(nc.arg, width, lane);
    }
  } else if (value_ok_[lane] == 0) {
    fail_lane(nc.rhs, width, lane);
  }
  fail_lane(nc.lhs, width, lane);
}

void Executor::time_local_loop(const SpmdNode& n) {
  const std::size_t at = walk_pos_;
  const long long points = tape_next();
  if (points <= 0) return;
  if (n.inner) (void)tape_next();  // inner trips
  (void)tape_at(3 * n.space.size() + (n.mask ? mask_words(points) : 0));
  if (deriving_) plan_visit(n, at);
  charge_planned(n);
}

// ---------------------------------------------------------------------------
// reductions
// ---------------------------------------------------------------------------

void Executor::record_reduce(const SpmdNode& n) {
  const compiler::NodeCost& nc = node_cost(n);
  const long long points = resolve_space(n);
  rec_->words.push_back(points);
  if (points > 0) record_space();

  const compiler::ReduceOp op = n.reduce_op;
  const bool is_max = op == compiler::ReduceOp::MaxVal || op == compiler::ReduceOp::MaxLoc;
  double acc = op == compiler::ReduceOp::Product ? 1.0
               : is_max                          ? -1e300
               : op == compiler::ReduceOp::MinVal ? 1e300
                                                  : 0.0;
  long long arg_at = 0;
  if (points > 0) {
    // points run as lanes; the accumulation stays sequential in odometer
    // order, so every partial result rounds as a point-by-point loop would
    point_.assign(lo_.begin(), lo_.end());
    std::size_t m = 0;
    for (bool more = true; more;) {
      m = load_points(n, more);
      const std::size_t width = compiler::stripe_width(m);
      eval(nc.arg, width, vals_.data(), ok_.data());
      unsigned char all_ok = 1;
      for (std::size_t l = 0; l < m; ++l) all_ok &= ok_[l];
      for (std::size_t l = 0; all_ok == 0 && l < m; ++l) {
        if (ok_[l] == 0) fail_lane(nc.arg, width, l);
      }
      for (std::size_t l = 0; l < m; ++l) {
        const double x = vals_[l];
        if (op == compiler::ReduceOp::Sum) {
          acc += x;
        } else if (op == compiler::ReduceOp::Product) {
          acc *= x;
        } else if (is_max) {
          if (x > acc) {
            acc = x;
            arg_at = n.space.empty()
                         ? 0
                         : static_cast<long long>(env_.values(n.space[0].symbol)[l]);
          }
        } else {
          acc = std::min(acc, x);
        }
      }
    }
    keep_last_point(n, m - 1);
  }
  env_.broadcast(n.reduce_result,
                 op == compiler::ReduceOp::MaxLoc ? static_cast<double>(arg_at) : acc);
}

void Executor::time_reduce(const SpmdNode& n) {
  // --- local partial reduction ----------------------------------------------
  const std::size_t at = walk_pos_;
  if (tape_next() > 0) {
    (void)tape_at(3 * n.space.size());
    if (deriving_) plan_visit(n, at);
    charge_planned(n);
  }

  // --- combine across the cube ------------------------------------------------
  if (home_map(n) != nullptr && nprocs_ > 1) {
    const int elem = n.reduce_op == compiler::ReduceOp::MaxLoc ? 12 : 8;  // value (+ index)
    const double op_t = machine_->node().proc.t_fadd +
                        machine_->node().comm.coll_stage_setup;
    collective_stages(n.id, elem, op_t);
  }
}

void Executor::collective_stages(int node_id, long long bytes, double per_stage_extra) {
  if (nprocs_ <= 1) return;
  int stages = 0;
  while ((1 << stages) < nprocs_) ++stages;
  if (options_.collective == machine::CollectiveAlgo::Linear) {
    // everyone sends to node 0, then node 0 broadcasts back
    for (int p = 1; p < nprocs_; ++p) {
      const double t0 = clock_[static_cast<std::size_t>(p)];
      const double arr = network_->send(p, 0, bytes, t0, noise_);
      const double before = clock_[0];
      clock_[0] = std::max(clock_[0], arr) + per_stage_extra;
      metric(node_id).comm += (clock_[0] - before) + (arr - t0);
      clock_[static_cast<std::size_t>(p)] = t0 + machine_->node().comm.latency_short;
    }
    for (int p = 1; p < nprocs_; ++p) {
      const double arr = network_->send(0, p, bytes, clock_[0], noise_);
      const double before = clock_[static_cast<std::size_t>(p)];
      clock_[static_cast<std::size_t>(p)] = std::max(before, arr);
      metric(node_id).comm += clock_[static_cast<std::size_t>(p)] - before;
    }
    return;
  }
  for (int s = 0; s < stages; ++s) {
    for (int p = 0; p < nprocs_; ++p) {
      const int q = p ^ (1 << s);
      if (q <= p || q >= nprocs_) continue;
      const double t = std::max(clock_[static_cast<std::size_t>(p)],
                                clock_[static_cast<std::size_t>(q)]);
      const double arr_q = network_->send(p, q, bytes, t, noise_);
      const double arr_p = network_->send(q, p, bytes, t, noise_);
      const double end = std::max(arr_p, arr_q) + per_stage_extra;
      metric(node_id).comm += (end - clock_[static_cast<std::size_t>(p)]) +
                              (end - clock_[static_cast<std::size_t>(q)]);
      clock_[static_cast<std::size_t>(p)] = end;
      clock_[static_cast<std::size_t>(q)] = end;
    }
  }
}

// ---------------------------------------------------------------------------
// communication nodes
// ---------------------------------------------------------------------------

void Executor::time_overlap(const SpmdNode& n) {
  const NodePlan& np = node_plan(n);
  if (!np.exchanges) return;  // no map, or the dimension is serial here
  const Exchange* const ex = exchanges_.data() + np.exchange_first;
  // A re-issued exchange of unchanged data finds last iteration's message
  // already buffered at the receiver: in steady state only packing and wire
  // occupancy remain (message queues absorb the latency).
  if (n.comm_src_invariant && metric(n.id).visits > 1) {
    for (int p = 0; p < nprocs_; ++p) {
      const Exchange& e = ex[static_cast<std::size_t>(p)];
      if (e.buffered) charge_comm(n.id, p, e.steady * noise_.comm_factor());
    }
    return;
  }
  exchange(n, ex, /*copy_while_waiting=*/false);
}

void Executor::time_cshift(const SpmdNode& n) {
  const long long shift = tape_next();
  if (shift == 0) return;
  const NodePlan& np = node_plan(n);
  if (np.serial_copy >= 0) {  // serial dimension: local circular copy only
    for (int p = 0; p < nprocs_; ++p) charge_comm(n.id, p, np.serial_copy);
    return;
  }
  if (deriving_) visit_block_.push_back(shift_block(n, shift));
  exchange(n, exchanges_.data() + visit_block_[visit_pos_++], /*copy_while_waiting=*/true);
}

void Executor::exchange(const SpmdNode& n, const Exchange* ex, bool copy_while_waiting) {
  const std::size_t nprocs = static_cast<std::size_t>(nprocs_);
  // snapshot departures, then apply arrivals
  depart_.resize(nprocs);
  for (std::size_t q = 0; q < nprocs; ++q) depart_[q] = clock_[q] + ex[q].pack;
  std::vector<double>& new_clock = clock_scratch_;
  new_clock.assign(clock_.begin(), clock_.end());
  for (std::size_t q = 0; q < nprocs; ++q) {
    const Exchange& e = ex[q];
    if (e.partner < 0) continue;
    const auto p = static_cast<std::size_t>(e.partner);
    const double arr = network_->send(static_cast<int>(q), e.partner, e.bytes, depart_[q], noise_);
    new_clock[p] = copy_while_waiting ? std::max(new_clock[p] + e.after, arr)
                                      : std::max(new_clock[p], arr + e.after);
    new_clock[q] = std::max(new_clock[q], depart_[q]);
  }
  for (std::size_t p = 0; p < nprocs; ++p) {
    const double dt = new_clock[p] - clock_[p];
    if (dt > 0) charge_comm(n.id, static_cast<int>(p), dt);
  }
}

long long Executor::slab_across(const compiler::ArrayMap& map, int dim, int proc) const {
  const std::span<const int> coords = layout_->proc_coords(proc);
  long long perp = 1;
  for (std::size_t j = 0; j < map.dims.size(); ++j) {
    if (static_cast<int>(j) == dim) continue;
    const auto& od = map.dims[j];
    const int c = od.grid_dim >= 0 ? coords[static_cast<std::size_t>(od.grid_dim)] : 0;
    perp *= od.local_count(c);
  }
  return perp;
}

int Executor::grid_neighbour(int proc, int grid_dim, int coord) {
  const std::span<const int> pc = layout_->proc_coords(proc);
  coords_scratch_.assign(pc.begin(), pc.end());
  coords_scratch_[static_cast<std::size_t>(grid_dim)] = coord;
  return layout_->grid().linear(coords_scratch_);
}

void Executor::plan_overlap(const SpmdNode& n, NodePlan& np) {
  const compiler::ArrayMap* map = layout_->map_for(n.comm_array);
  if (map == nullptr) return;
  const auto& dd = map->dims[static_cast<std::size_t>(n.comm_dim)];
  if (dd.grid_dim < 0 || dd.nprocs <= 1) return;
  np.exchanges = true;
  np.exchange_first = exchanges_.size();
  exchanges_.resize(exchanges_.size() + static_cast<std::size_t>(nprocs_));
  Exchange* const ex = exchanges_.data() + np.exchange_first;

  const int elem = front::type_size_bytes(prog_->symbols.at(n.comm_array).type);
  const bool strided = n.comm_dim != 0;  // row-major: outermost dim slabs are contiguous
  const int dir = n.comm_offset > 0 ? +1 : -1;
  const long long buffered_width =
      std::min<long long>(std::llabs(n.comm_offset), std::max<long long>(dd.block, 1));
  for (int q = 0; q < nprocs_; ++q) {
    Exchange& e = ex[static_cast<std::size_t>(q)];
    const long long perp = slab_across(*map, n.comm_dim, q);
    const int k = layout_->proc_coords(q)[static_cast<std::size_t>(dd.grid_dim)];
    // steady state: processor q re-sends its buffered slab
    e.buffered = dir > 0 ? k + 1 < dd.nprocs : k > 0;
    if (e.buffered) {
      const long long bytes = perp * buffered_width * elem;
      e.steady = 2.0 * comm_model_.pack(bytes, strided) +
                 machine_->node().comm.per_byte * static_cast<double>(bytes);
    }
    // sender q (coord k) sends to receiver p (coord k-dir): receiver needs
    // elements offset `dir` beyond its boundary
    const int kr = k - dir;
    if (kr < 0 || kr >= dd.nprocs) continue;
    const long long width = dd.kind == front::DistKind::Cyclic ? dd.local_count(k)
                                                               : buffered_width;
    const long long bytes = perp * width * elem;
    if (bytes == 0) continue;
    e.bytes = bytes;
    e.pack = comm_model_.pack(bytes, strided);
    e.after = e.pack;  // unpacking at the receiver
    e.partner = grid_neighbour(q, dd.grid_dim, kr);
  }
}

std::size_t Executor::shift_block(const SpmdNode& n, long long shift) {
  for (const ShiftBlock& b : shift_blocks_) {
    if (b.node == n.id && b.shift == shift) return b.first;
  }
  const std::size_t first = exchanges_.size();
  shift_blocks_.push_back(ShiftBlock{n.id, shift, first});
  exchanges_.resize(first + static_cast<std::size_t>(nprocs_));
  Exchange* const ex = exchanges_.data() + first;

  const compiler::ArrayMap& map = *layout_->map_for(n.comm_array);
  const auto& dd = map.dims[static_cast<std::size_t>(n.comm_dim)];
  const int elem = front::type_size_bytes(prog_->symbols.at(n.comm_array).type);
  const bool strided = n.comm_dim != 0;
  const long long w = std::min<long long>(std::llabs(shift), dd.block);
  const int dir = shift > 0 ? +1 : -1;
  std::vector<long long>& local_bytes = local_bytes_;
  local_bytes.assign(static_cast<std::size_t>(nprocs_), 0);
  for (int q = 0; q < nprocs_; ++q) {
    const long long perp = slab_across(map, n.comm_dim, q);
    const int k = layout_->proc_coords(q)[static_cast<std::size_t>(dd.grid_dim)];
    Exchange& e = ex[static_cast<std::size_t>(q)];
    e.bytes = perp * w * elem;
    e.pack = comm_model_.pack(e.bytes, strided);
    local_bytes[static_cast<std::size_t>(q)] =
        perp * std::max<long long>(dd.local_count(k) - w, 0) * elem;
    // circular: wrap at the grid edges
    if (e.bytes != 0) {
      e.partner = grid_neighbour(q, dd.grid_dim, (k - dir % dd.nprocs + dd.nprocs) % dd.nprocs);
    }
  }
  // the receiver copies its own kept part while the message is in flight
  const double bandwidth = machine_->node().mem.mem_bandwidth;
  for (int q = 0; q < nprocs_; ++q) {
    Exchange& e = ex[static_cast<std::size_t>(q)];
    if (e.partner >= 0) {
      e.after = static_cast<double>(local_bytes[static_cast<std::size_t>(e.partner)]) / bandwidth;
    }
  }
  return first;
}

void Executor::time_irregular(const SpmdNode& n) {
  const long long total = std::max<long long>(tape_next(), 0);
  if (nprocs_ <= 1 || total == 0) return;
  const int elem = front::type_size_bytes(prog_->symbols.at(n.comm_array).type);
  const auto& comm = machine_->node().comm;

  // per-processor share (block partition of the iteration space)
  const long long share = (total + nprocs_ - 1) / nprocs_;
  const long long remote = share * (nprocs_ - 1) / nprocs_;
  const long long per_partner = std::max<long long>(1, remote / (nprocs_ - 1));

  // index translation + pack
  for (int p = 0; p < nprocs_; ++p) {
    charge_comm(n.id, p,
                comm.per_element_index * static_cast<double>(share) +
                    comm_model_.pack(remote * elem, true));
  }
  // staged pairwise exchange rounds
  for (int r = 1; r < nprocs_; ++r) {
    std::vector<double>& snapshot = clock_scratch_;
    snapshot.assign(clock_.begin(), clock_.end());
    for (int p = 0; p < nprocs_; ++p) {
      const int q = (p + r) % nprocs_;
      const double arr = network_->send(p, q, per_partner * elem,
                                       snapshot[static_cast<std::size_t>(p)], noise_);
      const double before = clock_[static_cast<std::size_t>(q)];
      clock_[static_cast<std::size_t>(q)] = std::max(before, arr);
      metric(n.id).comm += clock_[static_cast<std::size_t>(q)] - before;
    }
  }
}

void Executor::time_slice_bcast(const SpmdNode& n) {
  const compiler::ArrayMap* map = layout_->map_for(n.comm_array);
  if (map == nullptr || nprocs_ <= 1) return;
  const int elem = front::type_size_bytes(prog_->symbols.at(n.comm_array).type);
  const long long total = storage_.total_elements(n.comm_array);
  const long long dim_extent = map->dims[static_cast<std::size_t>(n.comm_dim)].extent;
  const long long slice = total / std::max<long long>(dim_extent, 1);
  collective_stages(n.id, slice * elem, machine_->node().comm.coll_stage_setup);
}

}  // namespace hpf90d::sim
