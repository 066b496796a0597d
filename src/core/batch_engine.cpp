#include "core/batch_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>

#include "obs/obs.hpp"
#include "support/diagnostics.hpp"

namespace hpf90d::core {

using compiler::SpmdKind;
using support::CompileError;

template <class Pred>
void BatchEngine::evict_unless(Pred keep) {
  std::size_t w = 0;
  for (const int l : active_) {
    if (keep(l)) {
      active_[w++] = l;
    } else {
      evicted_.push_back(l);
    }
  }
  active_.resize(w);
}

void BatchEngine::interpret(const compiler::CompiledProgram& prog,
                            const machine::MachineModel& machine,
                            const PredictOptions& options,
                            std::span<const BatchLane> lanes, PredictionResult* results,
                            BatchRunStats& stats, std::vector<int>& evicted, bool detailed) {
  const obs::Span window_span(obs_sink_, obs::Phase::LockstepWindow, lanes.size());

  prog_ = &prog;
  cost_ = prog.cost_program.get();
  lanes_ = lanes;
  lone_ = lanes.size() == 1;
  stats_ = {};

  const std::size_t L = lanes.size();
  if (engines_.size() < L) engines_.resize(L);
  for (std::size_t l = 0; l < L; ++l) {
    engines_[l].rebind(prog, *lanes[l].layout, machine, options, *lanes[l].bindings);
  }

  // Seed the SoA environment: scatter each lane's precomputed parameter
  // fold into its column.
  env_.reset(cost_->slots, L);
  for (std::size_t l = 0; l < L; ++l) {
    for (const auto& [sym, v] : lanes[l].seed->defined) env_.define(sym, l, v);
    env_.define_extents(*cost_, *lanes[l].layout, l);  // size() reads the lane's layout
  }

  // Register columns are stride-padded; align the file to a cache line so
  // every column starts on an aligned 8-double boundary.
  regs_.resize(static_cast<std::size_t>(cost_->max_regs) * env_.stride() + 8);
  const auto raw = reinterpret_cast<std::uintptr_t>(regs_.data());
  regs_aligned_ = reinterpret_cast<double*>((raw + 63) & ~std::uintptr_t{63});
  vals_.resize(env_.stride());
  ok_.resize(env_.stride());
  pts_.resize(L);
  b_lo_.resize(L);
  b_hi_.resize(L);
  b_step_.resize(L);
  b_fail_.resize(L);
  active_.resize(L);
  std::iota(active_.begin(), active_.end(), 0);
  evicted_.clear();

  walk_seq(prog.root->children);

  for (const int l : active_) {
    engines_[static_cast<std::size_t>(l)].finalize_into(results[l], detailed);
  }
  stats_.evicted_lanes = evicted_.size();
  std::sort(evicted_.begin(), evicted_.end());
  evicted.assign(evicted_.begin(), evicted_.end());
  stats = stats_;
}

void BatchEngine::walk_seq(const std::vector<compiler::SpmdNodePtr>& nodes) {
  for (const auto& n : nodes) walk(*n);
}

void BatchEngine::walk(const SpmdNode& n) {
  if (active_.empty()) return;
  stats_.ir_visits++;
  stats_.lane_visits += active_.size();
  for (const int l : active_) engines_[static_cast<std::size_t>(l)].note_visit(n);
  switch (n.kind) {
    case SpmdKind::Seq: walk_seq(n.children); break;
    case SpmdKind::ScalarAssign: batch_scalar_assign(n); break;
    case SpmdKind::LocalLoop: batch_local_loop(n); break;
    case SpmdKind::OverlapComm:
      for (const int l : active_) engines_[static_cast<std::size_t>(l)].price_overlap(n);
      break;
    case SpmdKind::CShiftComm: batch_cshift(n); break;
    case SpmdKind::GatherComm:
    case SpmdKind::ScatterComm: batch_irregular(n); break;
    case SpmdKind::SliceBroadcast:
      for (const int l : active_) engines_[static_cast<std::size_t>(l)].price_slice_bcast(n);
      break;
    case SpmdKind::Reduce: batch_reduce(n); break;
    case SpmdKind::DoLoop: batch_do(n); break;
    case SpmdKind::WhileLoop: batch_while(n); break;
    case SpmdKind::IfBlock: batch_if(n); break;
    case SpmdKind::HostIO:
      for (const int l : active_) engines_[static_cast<std::size_t>(l)].price_hostio(n);
      break;
  }
}

void BatchEngine::eval(std::int32_t expr_id) {
  stats_.simd_stripes += compiler::eval_code_batch(
      *cost_, cost_->exprs[static_cast<std::size_t>(expr_id)], env_, {}, regs_aligned_,
      vals_.data(), ok_.data(), env_.stride());
}

void BatchEngine::take_bound(std::int32_t expr_id, long long* out, unsigned char* fail,
                             const support::SourceLoc& loc, const char* context) {
  eval(expr_id);
  for (const int l : active_) {
    const auto u = static_cast<std::size_t>(l);
    if (ok_[u]) {
      out[u] = std::llround(vals_[u]);
    } else if (!lone_) {
      fail[u] = 1;
    } else {
      const CompileError err =
          compiler::lane_error(*cost_, cost_->exprs[static_cast<std::size_t>(expr_id)], env_,
                               {}, regs_aligned_, env_.stride(), 0);
      if (context == nullptr) throw err;
      throw CompileError(loc, std::string("unresolved critical variable in ") + context +
                                  " bounds: " + err.what());
    }
  }
}

void BatchEngine::batch_scalar_assign(const SpmdNode& n) {
  const compiler::NodeCost& nc = cost_->nodes[static_cast<std::size_t>(n.id)];
  eval(nc.rhs);
  const bool int_lhs = n.lhs->type == front::TypeBase::Integer;
  const int sym = n.lhs->symbol;
  for (const int l : active_) {
    if (ok_[static_cast<std::size_t>(l)]) {
      const double v = vals_[static_cast<std::size_t>(l)];
      env_.define(sym, static_cast<std::size_t>(l), int_lhs ? std::trunc(v) : v);
    }
  }
  // lanes share the machine, so the Seq cost is lane-invariant
  const double t = engines_[static_cast<std::size_t>(active_[0])].seq_cost(n);
  for (const int l : active_) engines_[static_cast<std::size_t>(l)].charge_all(n.id, t, 'C');
}

void BatchEngine::batch_do(const SpmdNode& n) {
  const compiler::NodeCost& nc = cost_->nodes[static_cast<std::size_t>(n.id)];
  for (const int l : active_) b_fail_[static_cast<std::size_t>(l)] = 0;
  take_bound(nc.do_lo, b_lo_.data(), b_fail_.data(), n.loc, "do");
  take_bound(nc.do_hi, b_hi_.data(), b_fail_.data(), n.loc, "do");
  if (n.do_step) {
    take_bound(nc.do_step, b_step_.data(), b_fail_.data(), n.loc, "do");
  } else {
    for (const int l : active_) b_step_[static_cast<std::size_t>(l)] = 1;
  }
  if (lone_ && b_step_[0] == 0) throw CompileError(n.loc, "do loop step is zero");
  // a failing bound or zero step: evict, so the lane reruns alone and throws
  const auto bound_ok = [&](int l) {
    const auto u = static_cast<std::size_t>(l);
    return b_fail_[u] == 0 && b_step_[u] != 0;
  };
  evict_unless(bound_ok);
  if (active_.empty()) return;

  const auto trips_of = [&](int l) {
    const auto u = static_cast<std::size_t>(l);
    const long long lo = b_lo_[u], hi = b_hi_[u], st = b_step_[u];
    if (st > 0) return hi >= lo ? (hi - lo) / st + 1 : 0;
    return lo >= hi ? (lo - hi) / (-st) + 1 : 0;
  };
  const long long trips = trips_of(active_[0]);
  // benign divergence: lanes with another trip count run again later
  evict_unless([&](int l) { return trips_of(l) == trips; });
  if (active_.empty()) return;

  auto& fn = *engines_[static_cast<std::size_t>(active_[0])].fn_;
  const double setup = fn.iter_setup();
  const double over = fn.iter_overhead();
  for (const int l : active_) engines_[static_cast<std::size_t>(l)].charge_all(n.id, setup, 'O');
  for (long long t = 0; t < trips; ++t) {
    for (const int l : active_) {
      const auto u = static_cast<std::size_t>(l);
      env_.define(n.do_symbol, u, static_cast<double>(b_lo_[u] + t * b_step_[u]));
    }
    for (const int l : active_) engines_[static_cast<std::size_t>(l)].charge_all(n.id, over, 'O');
    walk_seq(n.children);
    if (active_.empty()) return;
  }
}

void BatchEngine::batch_while(const SpmdNode& n) {
  const compiler::NodeCost& nc = cost_->nodes[static_cast<std::size_t>(n.id)];
  long long trips = 0;
  while (true) {
    if (active_.empty()) return;
    eval(nc.cond);
    if (lone_ && !ok_[0]) {
      throw CompileError(n.loc,
                         "do while condition depends on data values; supply an "
                         "explicit binding for its critical variables");
    }
    // a data-dependent condition: evict, so the lane reruns alone and throws
    evict_unless([&](int l) { return ok_[static_cast<std::size_t>(l)] != 0; });
    if (active_.empty()) return;
    const bool taken = vals_[static_cast<std::size_t>(active_[0])] != 0.0;
    evict_unless([&](int l) { return (vals_[static_cast<std::size_t>(l)] != 0.0) == taken; });
    const double t = engines_[static_cast<std::size_t>(active_[0])].branch_cost(n);
    for (const int l : active_) engines_[static_cast<std::size_t>(l)].charge_all(n.id, t, 'O');
    if (!taken) return;
    if (++trips > 1000000) {
      throw CompileError(n.loc, "do while exceeded the interpretation trip limit");
    }
    walk_seq(n.children);
  }
}

void BatchEngine::batch_if(const SpmdNode& n) {
  const compiler::NodeCost& nc = cost_->nodes[static_cast<std::size_t>(n.id)];
  eval(nc.cond);
  // unresolved conditions assume the then-branch (no eviction on failure)
  const auto then_of = [&](int l) {
    const auto u = static_cast<std::size_t>(l);
    return ok_[u] == 0 || vals_[u] != 0.0;
  };
  const bool taken = then_of(active_[0]);
  evict_unless([&](int l) { return then_of(l) == taken; });
  const double t = engines_[static_cast<std::size_t>(active_[0])].branch_cost(n);
  for (const int l : active_) engines_[static_cast<std::size_t>(l)].charge_all(n.id, t, 'O');
  walk_seq(taken ? n.children : n.else_children);
}

void BatchEngine::resolve_space_batch(const SpmdNode& n, const compiler::NodeCost& nc) {
  const std::size_t L = lanes_.size();
  const std::size_t dims = n.space.size();
  sp_lo_.resize(dims * L);
  sp_hi_.resize(dims * L);
  sp_step_.resize(dims * L);
  sp_fail_.assign(L, 0);
  for (std::size_t d = 0; d < dims; ++d) {
    const compiler::IterIndex& ix = n.space[d];
    const std::int32_t* sc = cost_->space_codes.data() + nc.space_first + 3 * d;
    take_bound(sc[0], sp_lo_.data() + d * L, sp_fail_.data(), ix.lo->loc, "forall");
    take_bound(sc[1], sp_hi_.data() + d * L, sp_fail_.data(), ix.lo->loc, "forall");
    if (ix.stride) {
      take_bound(sc[2], sp_step_.data() + d * L, sp_fail_.data(), ix.lo->loc, "forall");
    } else {
      for (const int l : active_) sp_step_[d * L + static_cast<std::size_t>(l)] = 1;
    }
  }
}

void BatchEngine::fill_space(int l, std::size_t dims, Space& sp) const {
  const std::size_t L = lanes_.size();
  sp.lo.resize(dims);
  sp.hi.resize(dims);
  sp.step.resize(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    sp.lo[d] = sp_lo_[d * L + static_cast<std::size_t>(l)];
    sp.hi[d] = sp_hi_[d * L + static_cast<std::size_t>(l)];
    sp.step[d] = sp_step_[d * L + static_cast<std::size_t>(l)];
  }
}

void BatchEngine::resolve_lane_spaces(const std::vector<int>& which, std::size_t dims) {
  const std::size_t P = which.size();
  const std::size_t L = lanes_.size();
  space_ptrs_.resize(P);
  bool uniform = true;
  const auto u0 = static_cast<std::size_t>(which[0]);
  for (std::size_t d = 0; d < dims && uniform; ++d) {
    for (std::size_t i = 1; i < P; ++i) {
      const auto u = static_cast<std::size_t>(which[i]);
      if (sp_lo_[d * L + u] != sp_lo_[d * L + u0] ||
          sp_hi_[d * L + u] != sp_hi_[d * L + u0] ||
          sp_step_[d * L + u] != sp_step_[d * L + u0]) {
        uniform = false;
        break;
      }
    }
  }
  res_pts_.resize(P);
  if (uniform) {
    fill_space(which[0], dims, sp_scratch_);
    const long long pts = sp_scratch_.points();
    for (std::size_t i = 0; i < P; ++i) {
      space_ptrs_[i] = &sp_scratch_;
      res_pts_[i] = pts;
    }
    return;
  }
  spaces_.resize(P);
  for (std::size_t i = 0; i < P; ++i) {
    fill_space(which[i], dims, spaces_[i]);
    space_ptrs_[i] = &spaces_[i];
    res_pts_[i] = spaces_[i].points();
  }
}

void BatchEngine::batch_local_loop(const SpmdNode& n) {
  const compiler::NodeCost& nc = cost_->nodes[static_cast<std::size_t>(n.id)];
  resolve_space_batch(n, nc);
  // a failing bound: evict, so the lane reruns alone and throws
  evict_unless([&](int l) { return sp_fail_[static_cast<std::size_t>(l)] == 0; });
  if (active_.empty()) return;

  const std::size_t dims = n.space.size();
  resolve_lane_spaces(active_, dims);
  for (std::size_t i = 0; i < active_.size(); ++i) {
    pts_[static_cast<std::size_t>(active_[i])] = res_pts_[i];
  }
  if (n.inner) {
    // inner reduce bounds, hi before lo, matter only to lanes that price:
    // a failing bound evicts (or, alone, throws) only where points() > 0
    if (lone_ && pts_[0] <= 0) return;
    for (const int l : active_) b_fail_[static_cast<std::size_t>(l)] = 0;
    take_bound(nc.inner_hi, b_hi_.data(), b_fail_.data(), n.loc, nullptr);
    take_bound(nc.inner_lo, b_lo_.data(), b_fail_.data(), n.loc, nullptr);
    const auto inner_ok = [&](int l) {
      const auto u = static_cast<std::size_t>(l);
      return pts_[u] <= 0 || b_fail_[u] == 0;
    };
    evict_unless(inner_ok);
    if (active_.empty()) return;
  }

  priced_.clear();
  for (const int l : active_) {
    if (pts_[static_cast<std::size_t>(l)] > 0) priced_.push_back(l);
  }
  if (priced_.empty()) return;

  const std::size_t P = priced_.size();
  ws_.resize(P);
  im_.resize(P);
  mp_.resize(P);
  costs_.resize(P);
  resolve_lane_spaces(priced_, dims);
  for (std::size_t i = 0; i < P; ++i) {
    const auto u = static_cast<std::size_t>(priced_[i]);
    ws_[i] = engines_[u].working_set_estimate(n, res_pts_[i]);
    im_[i] = n.inner ? std::max<long long>(0, b_hi_[u] - b_lo_[u] + 1) : 0;
    mp_[i] = engines_[u].mask_probability();
  }
  const InterpretationEngine& e0 = engines_[static_cast<std::size_t>(priced_[0])];
  const int elem = front::type_size_bytes(n.lhs->type);
  if (n.mask) {
    e0.fn_->condt_costs(e0.body_ops(n), e0.cond_ops(n), mp_, elem, ws_, im_, costs_);
  } else {
    e0.fn_->iter_costs(e0.body_ops(n), elem, ws_, im_, costs_);
  }
  InterpretationEngine::price_iters_batch(n, engines_.data(), priced_.data(), P,
                                          space_ptrs_.data(), res_pts_.data(),
                                          costs_.data());
}

void BatchEngine::batch_reduce(const SpmdNode& n) {
  const compiler::NodeCost& nc = cost_->nodes[static_cast<std::size_t>(n.id)];
  resolve_space_batch(n, nc);
  evict_unless([&](int l) { return sp_fail_[static_cast<std::size_t>(l)] == 0; });
  if (active_.empty()) return;

  const std::size_t dims = n.space.size();
  const std::size_t P = active_.size();
  ws_.resize(P);
  im_.assign(P, 0);
  costs_.resize(P);
  resolve_lane_spaces(active_, dims);
  for (std::size_t i = 0; i < P; ++i) {
    ws_[i] = engines_[static_cast<std::size_t>(active_[i])].working_set_estimate(
        n, res_pts_[i]);
  }
  const InterpretationEngine& e0 = engines_[static_cast<std::size_t>(active_[0])];
  e0.fn_->iter_costs(e0.body_ops(n), front::type_size_bytes(n.reduce_arg->type), ws_, im_,
                     costs_);
  // lanes are independent, so batching all price_iters charges ahead of all
  // reduce-comm charges leaves every lane's own charge order unchanged
  InterpretationEngine::price_iters_batch(n, engines_.data(), active_.data(), P,
                                          space_ptrs_.data(), res_pts_.data(),
                                          costs_.data());
  InterpretationEngine::price_reduce_comm_batch(n, engines_.data(), active_.data(), P);
}

void BatchEngine::batch_cshift(const SpmdNode& n) {
  const compiler::NodeCost& nc = cost_->nodes[static_cast<std::size_t>(n.id)];
  eval(nc.comm_amount);
  for (const int l : active_) {
    const auto u = static_cast<std::size_t>(l);
    // an unevaluable shift amount defaults to 1 (no eviction)
    const long long shift = ok_[u] ? std::llround(vals_[u]) : 1;
    engines_[u].price_cshift(n, shift);
  }
}

void BatchEngine::batch_irregular(const SpmdNode& n) {
  const compiler::NodeCost& nc = cost_->nodes[static_cast<std::size_t>(n.id)];
  // a one-processor lane prices nothing here, so its bounds are never
  // needed: it must neither evict nor, alone, throw on a failing bound
  if (lone_ && engines_[0].nprocs_ <= 1) return;
  resolve_space_batch(n, nc);
  const auto irr_ok = [&](int l) {
    const auto u = static_cast<std::size_t>(l);
    return engines_[u].nprocs_ <= 1 || sp_fail_[u] == 0;
  };
  evict_unless(irr_ok);
  const std::size_t dims = n.space.size();
  for (const int l : active_) {
    const auto u = static_cast<std::size_t>(l);
    if (engines_[u].nprocs_ <= 1) continue;
    fill_space(l, dims, sp_scratch_);
    engines_[u].price_irregular(n, sp_scratch_);
  }
}

PredictionResult interpret_one(const compiler::CompiledProgram& prog,
                               const front::Bindings& bindings,
                               const compiler::DataLayout& layout,
                               const machine::MachineModel& machine,
                               const PredictOptions& options) {
  const compiler::SeededValues seed = compiler::seed_values(prog.symbols, bindings);
  const BatchLane lane{&layout, &bindings, &seed};
  BatchEngine engine;
  PredictionResult out;
  BatchRunStats stats;
  std::vector<int> evicted;  // a one-lane window never evicts
  engine.interpret(prog, machine, options, std::span<const BatchLane>(&lane, 1), &out, stats,
                   evicted, /*detailed=*/true);
  return out;
}

}  // namespace hpf90d::core
