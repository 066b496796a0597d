// Compiler middle-end tests: normalization, communication detection,
// lowering structure for the suite programs, op counting, F77 codegen.
#include <gtest/gtest.h>

#include <pthread.h>

#include <functional>
#include <optional>
#include <string>

#include "compiler/codegen_f77.hpp"
#include "compiler/lower.hpp"
#include "compiler/normalize.hpp"
#include "compiler/opcount.hpp"
#include "compiler/pipeline.hpp"
#include "hpf/directives.hpp"
#include "hpf/parser.hpp"
#include "hpf/sema.hpp"
#include "suite/suite.hpp"
#include "support/diagnostics.hpp"

namespace hpf90d {
namespace {

using compiler::CompiledProgram;
using compiler::SpmdKind;
using compiler::SpmdNode;

CompiledProgram comp(std::string_view src) { return compiler::compile(src); }

/// The thread stack Lower.DeepestChainLowersOnASmallStack lowers on. A
/// lowering that recursed once per expression level needed about 1 MB of
/// stack in a Release build and about 8 MB under ASan, whose frames are
/// several times larger; with Expr::clone on a worklist, what is left of
/// the recursion (op counting, the bytecode flattener) needs about 270 KB
/// and 1.1 MB. Expr::clone alone needed about 3 MB under ASan.
#if defined(__SANITIZE_ADDRESS__)
constexpr std::size_t kSmallStack = std::size_t{2} << 20;
#else
constexpr std::size_t kSmallStack = std::size_t{448} << 10;
#endif

int count_kind(const SpmdNode& n, SpmdKind k) {
  int c = n.kind == k ? 1 : 0;
  for (const auto& ch : n.children) c += count_kind(*ch, k);
  for (const auto& ch : n.else_children) c += count_kind(*ch, k);
  return c;
}

const SpmdNode* find_kind(const SpmdNode& n, SpmdKind k) {
  if (n.kind == k) return &n;
  for (const auto& ch : n.children) {
    if (const SpmdNode* f = find_kind(*ch, k)) return f;
  }
  for (const auto& ch : n.else_children) {
    if (const SpmdNode* f = find_kind(*ch, k)) return f;
  }
  return nullptr;
}

constexpr const char* kHeader = R"f90(
program t
  parameter (n = 64)
  real a(n), b(n), c(n)
!hpf$ template d(n)
!hpf$ align a(i) with d(i)
!hpf$ align b(i) with d(i)
!hpf$ align c(i) with d(i)
!hpf$ distribute d(block)
)f90";

CompiledProgram comp_body(std::string_view body) {
  return comp(std::string(kHeader) + std::string(body) + "\nend program t\n");
}

TEST(Pipeline, NodeOpCountsAreHoistedIntoTheCompiledProgram) {
  const auto p = comp_body("a = b*c + 1.0");
  // the pipeline prices every node once at compile time
  ASSERT_EQ(p.node_ops.size(), static_cast<std::size_t>(p.node_count));
  const SpmdNode* loop = find_kind(*p.root, SpmdKind::LocalLoop);
  ASSERT_NE(loop, nullptr);
  const compiler::NodeOpCounts& ops = p.node_ops[static_cast<std::size_t>(loop->id)];
  // the hoisted body counts match an on-demand recount of the assignment
  const compiler::OpCounts fresh = compiler::count_assignment(*loop->lhs, *loop->rhs);
  EXPECT_EQ(ops.body.fadd, fresh.fadd);
  EXPECT_EQ(ops.body.fmul, fresh.fmul);
  EXPECT_EQ(ops.body.loads, fresh.loads);
  EXPECT_EQ(ops.body.stores, fresh.stores);
  EXPECT_GT(ops.body.fmul, 0);
  // no mask: the condition counts are zero
  EXPECT_EQ(ops.cond.total_flops(), 0);
  // collect_node_ops reproduces the table compute_node_ops stored
  const auto again = compiler::collect_node_ops(p);
  ASSERT_EQ(again.size(), p.node_ops.size());
  for (std::size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again[i].body.total_flops(), p.node_ops[i].body.total_flops());
    EXPECT_EQ(again[i].body.loads, p.node_ops[i].body.loads);
  }
}

TEST(Pipeline, MaskedLoopCondCountsAreHoisted) {
  const auto p = comp_body("where (b .gt. 0.0) a = 1.0/b");
  const SpmdNode* loop = find_kind(*p.root, SpmdKind::LocalLoop);
  ASSERT_NE(loop, nullptr);
  ASSERT_NE(loop->mask, nullptr);
  const compiler::NodeOpCounts& ops = p.node_ops[static_cast<std::size_t>(loop->id)];
  const compiler::OpCounts fresh = compiler::count_expr(*loop->mask);
  EXPECT_EQ(ops.cond.fadd, fresh.fadd);
  EXPECT_EQ(ops.cond.loads, fresh.loads);
  EXPECT_GT(ops.cond.loads, 0);
}

TEST(Normalize, ArrayAssignmentBecomesForallLoop) {
  auto p = comp_body("a = b");
  EXPECT_EQ(count_kind(*p.root, SpmdKind::LocalLoop), 1);
  EXPECT_EQ(count_kind(*p.root, SpmdKind::OverlapComm), 0);
}

TEST(Normalize, SectionAssignmentRespectsBounds) {
  auto p = comp_body("a(2:n-1) = b(1:n-2)");
  const SpmdNode* loop = find_kind(*p.root, SpmdKind::LocalLoop);
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->space[0].lo->str(), "2");
  // reading b at i-1 relative to the loop index => one overlap exchange
  EXPECT_EQ(count_kind(*p.root, SpmdKind::OverlapComm), 1);
}

TEST(Normalize, WhereBecomesMaskedLoop) {
  auto p = comp_body("where (b .gt. 0.0) a = 1.0/b");
  const SpmdNode* loop = find_kind(*p.root, SpmdKind::LocalLoop);
  ASSERT_NE(loop, nullptr);
  ASSERT_NE(loop->mask, nullptr);
}

TEST(Normalize, WhereElsewhereProducesTwoLoops) {
  auto p = comp_body("where (b .gt. 0.0)\n  a = 1.0\nelsewhere\n  a = 0.0\nend where");
  EXPECT_EQ(count_kind(*p.root, SpmdKind::LocalLoop), 2);
}

TEST(CommDetect, AlignedReadNeedsNoComm) {
  auto p = comp_body("forall (i = 1:n) a(i) = b(i) + c(i)");
  EXPECT_EQ(count_kind(*p.root, SpmdKind::OverlapComm), 0);
  EXPECT_EQ(count_kind(*p.root, SpmdKind::GatherComm), 0);
}

TEST(CommDetect, ShiftedReadIsOverlap) {
  auto p = comp_body("forall (i = 2:n-1) a(i) = b(i-1) + b(i+1)");
  EXPECT_EQ(count_kind(*p.root, SpmdKind::OverlapComm), 2);  // both directions
}

TEST(CommDetect, SameDirectionOffsetsMerge) {
  auto p = comp_body("forall (i = 1:n-11) a(i) = b(i+10) + b(i+11)");
  EXPECT_EQ(count_kind(*p.root, SpmdKind::OverlapComm), 1);
  const SpmdNode* comm = find_kind(*p.root, SpmdKind::OverlapComm);
  EXPECT_EQ(comm->comm_offset, 11);  // widest wins (message vectorization)
}

TEST(CommDetect, NonUnitStrideIsRemapGather) {
  auto p = comp_body("forall (i = 1:n/2) a(i) = b(2*i)");
  const SpmdNode* g = find_kind(*p.root, SpmdKind::GatherComm);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->gather_pattern, compiler::GatherPattern::Remap);
}

TEST(CommDetect, VectorSubscriptIsIrregularGather) {
  auto p = comp(std::string(kHeader) +
                "  integer ix(n)\n"
                "!hpf$ align ix(i) with d(i)\n"
                "  forall (i = 1:n) a(i) = b(ix(i))\nend program t\n");
  const SpmdNode* g = find_kind(*p.root, SpmdKind::GatherComm);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->gather_pattern, compiler::GatherPattern::Irregular);
}

TEST(CommDetect, VectorSubscriptedStoreScatters) {
  auto p = comp(std::string(kHeader) +
                "  integer ix(n)\n"
                "!hpf$ align ix(i) with d(i)\n"
                "  forall (i = 1:n) a(ix(i)) = b(i)\nend program t\n");
  EXPECT_EQ(count_kind(*p.root, SpmdKind::ScatterComm), 1);
}

TEST(CommDetect, ReplicatedArrayReadIsLocal) {
  auto p = comp(std::string(kHeader) + "  real r(n)\n"
                "  forall (i = 1:n) a(i) = r(i)\nend program t\n");
  EXPECT_EQ(count_kind(*p.root, SpmdKind::GatherComm), 0);
  EXPECT_EQ(count_kind(*p.root, SpmdKind::OverlapComm), 0);
}

TEST(Lower, FullReductionBecomesReduceNode) {
  auto p = comp_body("x = sum(a*b)");
  EXPECT_EQ(count_kind(*p.root, SpmdKind::Reduce), 1);
  const SpmdNode* r = find_kind(*p.root, SpmdKind::Reduce);
  EXPECT_EQ(r->reduce_op, compiler::ReduceOp::Sum);
  EXPECT_GE(r->home_symbol, 0);
}

TEST(Lower, NestedReductionsBothExtracted) {
  auto p = comp_body("x = sum(a) + product(b)");
  EXPECT_EQ(count_kind(*p.root, SpmdKind::Reduce), 2);
  // extracted in source order, ahead of the assignment that reads them
  ASSERT_EQ(p.root->children.size(), 3u);
  EXPECT_EQ(p.root->children[0]->reduce_op, compiler::ReduceOp::Sum);
  EXPECT_EQ(p.root->children[1]->reduce_op, compiler::ReduceOp::Product);
  EXPECT_EQ(p.root->children[2]->kind, SpmdKind::ScalarAssign);
}

/// Runs `fn` on a thread whose stack is `bytes` large.
void run_on_stack(std::size_t bytes, const std::function<void()>& fn) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, bytes), 0);
  pthread_t thread;
  const auto start = [](void* arg) -> void* {
    (*static_cast<const std::function<void()>*>(arg))();
    return nullptr;
  };
  ASSERT_EQ(pthread_create(&thread, &attr, start,
                           const_cast<std::function<void()>*>(&fn)),
            0);
  pthread_join(thread, nullptr);
  pthread_attr_destroy(&attr);
}

TEST(Lower, DeepestChainLowersOnASmallStack) {
  // A chain exactly kMaxExprHeight levels high, the deepest the parser
  // accepts, with a reduction at its deepest leaf (sum(a) is two levels):
  // lowering (reduction extraction, op counts, the cost bytecode) must not
  // recurse once per level deeper than a small thread stack holds,
  // sanitizers' larger frames included.
  std::string src = std::string(kHeader) + "x = sum(a)";
  for (int i = 2; i < front::kMaxExprHeight; ++i) src += " + 1.0";
  src += "\nend program t\n";
  EXPECT_THROW((void)front::parse_program(std::string(src).insert(src.find("\nend"), " + 1.0")),
               support::CompileError);
  front::Program ast = front::parse_program(src);
  front::SymbolTable symbols = front::analyze(ast);
  front::DirectiveSet directives = front::parse_directives(ast.raw_directives);
  compiler::normalize(ast, symbols);
  std::optional<CompiledProgram> lowered;
  std::string error;
  run_on_stack(kSmallStack, [&] {
    try {
      lowered = compiler::lower_program("t", std::move(ast), std::move(symbols),
                                        std::move(directives), {});
    } catch (const std::exception& e) {
      error = e.what();
    }
  });
  ASSERT_TRUE(lowered.has_value()) << error;
  EXPECT_EQ(count_kind(*lowered->root, SpmdKind::Reduce), 1);
  EXPECT_EQ(lowered->root->children.back()->kind, SpmdKind::ScalarAssign);
}

TEST(Lower, CshiftMakesTempAndComm) {
  auto p = comp_body("a = cshift(b, 1)");
  EXPECT_EQ(count_kind(*p.root, SpmdKind::CShiftComm), 1);
  const SpmdNode* s = find_kind(*p.root, SpmdKind::CShiftComm);
  EXPECT_GE(s->comm_temp, 0);
  ASSERT_EQ(p.temp_aliases.size(), 1u);
  EXPECT_EQ(p.temp_aliases[0].first, s->comm_temp);
}

TEST(Lower, DimReductionBecomesInnerLoop) {
  auto p = comp(R"f90(
program t
  parameter (n = 32, m = 8)
  real a(n,m), q(n)
!hpf$ template d(n)
!hpf$ align a(i,j) with d(i)
!hpf$ align q(i) with d(i)
!hpf$ distribute d(block)
  q = product(a, 2)
end program t
)f90");
  const SpmdNode* loop = find_kind(*p.root, SpmdKind::LocalLoop);
  ASSERT_NE(loop, nullptr);
  ASSERT_TRUE(loop->inner.has_value());
  EXPECT_EQ(loop->inner->op, compiler::ReduceOp::Product);
}

TEST(Lower, LaplaceHasFourOverlapsPerSweep) {
  const auto& app = suite::app("laplace_bb");
  auto p = compiler::compile_with_directives(app.source, app.directive_overrides);
  EXPECT_EQ(count_kind(*p.root, SpmdKind::OverlapComm), 4);
  EXPECT_EQ(count_kind(*p.root, SpmdKind::DoLoop), 1);
}

TEST(Lower, Lfk2HasRemapAndScatter) {
  auto p = comp(suite::app("lfk2").source);
  EXPECT_GE(count_kind(*p.root, SpmdKind::GatherComm), 2);
  EXPECT_EQ(count_kind(*p.root, SpmdKind::ScatterComm), 1);
}

TEST(Lower, InvariantCommFlaggedInsideLoop) {
  // z is read (shifted) but never written inside the do loop
  auto p = comp_body("do it = 1, 4\n  forall (i = 1:n-1) a(i) = b(i+1)\nend do");
  const SpmdNode* comm = find_kind(*p.root, SpmdKind::OverlapComm);
  ASSERT_NE(comm, nullptr);
  EXPECT_TRUE(comm->comm_src_invariant);
}

TEST(Lower, DependentCommNotFlagged) {
  auto p = comp_body("do it = 1, 4\n  forall (i = 1:n-1) a(i) = a(i+1)\nend do");
  const SpmdNode* comm = find_kind(*p.root, SpmdKind::OverlapComm);
  ASSERT_NE(comm, nullptr);
  EXPECT_FALSE(comm->comm_src_invariant);
}

TEST(Lower, EverySuiteProgramCompiles) {
  for (const auto& app : suite::validation_suite()) {
    EXPECT_NO_THROW({
      auto p = app.directive_overrides.empty()
                   ? compiler::compile(app.source)
                   : compiler::compile_with_directives(app.source,
                                                       app.directive_overrides);
      EXPECT_GT(p.node_count, 1) << app.id;
    }) << app.id;
  }
}

/// Counts the Call nodes under `e` and those among them without an
/// intrinsic id.
void count_calls(const front::Expr& e, int& calls, int& unresolved) {
  if (e.kind == front::ExprKind::Call) {
    ++calls;
    if (!e.intrinsic) ++unresolved;
  }
  for (const auto& a : e.args) count_calls(*a, calls, unresolved);
  for (const auto& s : e.subs) {
    for (const auto* x : {&s.scalar, &s.lo, &s.hi, &s.stride}) {
      if (*x) count_calls(**x, calls, unresolved);
    }
  }
}

void count_calls(const SpmdNode& n, int& calls, int& unresolved) {
  std::vector<const front::ExprPtr*> exprs = {&n.mask,   &n.lhs,   &n.rhs,
                                              &n.comm_amount, &n.reduce_arg,
                                              &n.do_lo, &n.do_hi, &n.do_step};
  for (const auto& ix : n.space) exprs.insert(exprs.end(), {&ix.lo, &ix.hi, &ix.stride});
  if (n.inner) exprs.insert(exprs.end(), {&n.inner->index.lo, &n.inner->index.hi, &n.inner->arg});
  for (const auto& a : n.io_args) exprs.push_back(&a);
  for (const auto* e : exprs) {
    if (*e) count_calls(**e, calls, unresolved);
  }
  for (const auto& c : n.children) count_calls(*c, calls, unresolved);
  for (const auto& c : n.else_children) count_calls(*c, calls, unresolved);
}

TEST(Lower, EveryCallInTheSpmdIrCarriesAnIntrinsicId) {
  int calls = 0;
  for (const auto& app : suite::validation_suite()) {
    const auto p = compiler::compile_with_directives(app.source, app.directive_overrides);
    int unresolved = 0;
    count_calls(*p.root, calls, unresolved);
    EXPECT_EQ(unresolved, 0) << app.id;
  }
  EXPECT_GT(calls, 0);  // the suite does call intrinsics
}

TEST(Lower, NodeIdsAreDenseAndUnique) {
  auto p = comp(suite::app("finance").source);
  std::vector<int> seen(static_cast<std::size_t>(p.node_count), 0);
  std::function<void(const SpmdNode&)> visit = [&](const SpmdNode& n) {
    ASSERT_GE(n.id, 0);
    ASSERT_LT(n.id, p.node_count);
    seen[static_cast<std::size_t>(n.id)]++;
    for (const auto& c : n.children) visit(*c);
    for (const auto& c : n.else_children) visit(*c);
  };
  visit(*p.root);
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(DirectiveOverride, ReplacesDistributeAndProcessors) {
  const auto& app = suite::app("laplace_bx");
  auto p = compiler::compile_with_directives(app.source, app.directive_overrides);
  ASSERT_EQ(p.directives.distributes.size(), 1u);
  EXPECT_EQ(p.directives.distributes[0].pattern[1], front::DistKind::Collapsed);
  ASSERT_EQ(p.directives.processors.size(), 1u);
  EXPECT_EQ(p.directives.processors[0].extents.size(), 1u);
}

TEST(OpCount, CountsMatchExpressionStructure) {
  auto prog = front::parse_program(
      "program t\nreal v(8)\nx = v(1)*v(2) + exp(v(3))/2.0\nend program t\n");
  (void)front::analyze(prog);
  const compiler::OpCounts ops = compiler::count_expr(*prog.stmts[0]->rhs);
  EXPECT_EQ(ops.fmul, 1);
  EXPECT_EQ(ops.fadd, 1);
  EXPECT_EQ(ops.fdiv, 1);
  EXPECT_EQ(ops.loads, 3);
  EXPECT_EQ(ops.intrinsics[static_cast<std::size_t>(front::IntrinsicId::Exp)], 1);
  EXPECT_GT(ops.depth, 2);
}

TEST(OpCount, AssignmentAddsStore) {
  auto prog = front::parse_program(
      "program t\nreal v(8)\nv(2) = 1.0\nend program t\n");
  (void)front::analyze(prog);
  const compiler::OpCounts ops =
      compiler::count_assignment(*prog.stmts[0]->lhs, *prog.stmts[0]->rhs);
  EXPECT_EQ(ops.stores, 1);
  EXPECT_EQ(ops.loads, 0);
}

TEST(CodegenF77, EmitsCommCallsAndLoops) {
  const auto& app = suite::app("laplace_bb");
  auto p = compiler::compile_with_directives(app.source, app.directive_overrides);
  const std::string f77 = compiler::codegen_f77(p);
  EXPECT_NE(f77.find("call exchange_overlap"), std::string::npos);
  EXPECT_NE(f77.find("do "), std::string::npos);
  EXPECT_NE(f77.find("program laplace_node"), std::string::npos);
}

TEST(CodegenF77, EmitsCollectiveCalls) {
  auto p = comp(suite::app("pi").source);
  const std::string f77 = compiler::codegen_f77(p);
  EXPECT_NE(f77.find("call gsum"), std::string::npos);
  EXPECT_NE(f77.find("mynode()"), std::string::npos);
}

TEST(MessageVectorizationOption, RecordedOnCommNodes) {
  compiler::CompilerOptions opts;
  opts.message_vectorization = false;
  auto p = compiler::compile(std::string(kHeader) +
                                 "  forall (i = 2:n) a(i) = b(i-1)\nend program t\n",
                             opts);
  const SpmdNode* comm = find_kind(*p.root, SpmdKind::OverlapComm);
  ASSERT_NE(comm, nullptr);
  EXPECT_TRUE(comm->per_element);
}

}  // namespace
}  // namespace hpf90d
