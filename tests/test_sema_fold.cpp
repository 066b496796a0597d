// Semantic analysis + constant folding + scalar evaluation tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "compiler/cost_program.hpp"
#include "compiler/pipeline.hpp"
#include "hpf/fold.hpp"
#include "hpf/intrinsics.hpp"
#include "hpf/parser.hpp"
#include "hpf/sema.hpp"
#include "support/diagnostics.hpp"

namespace hpf90d {
namespace {

using front::Program;
using front::SymbolTable;

struct Analyzed {
  Program prog;
  SymbolTable symbols;
};

Analyzed analyze_body(std::string_view body) {
  Analyzed a{front::parse_program("program t\n" + std::string(body) +
                                  "\nend program t\n"),
             {}};
  a.symbols = front::analyze(a.prog);
  return a;
}

TEST(Sema, ImplicitTypingRule) {
  auto a = analyze_body("k = 1\nx = 2.0");
  EXPECT_EQ(a.symbols.at(a.symbols.find("k")).type, front::TypeBase::Integer);
  EXPECT_EQ(a.symbols.at(a.symbols.find("x")).type, front::TypeBase::Real);
}

TEST(Sema, ArrayCallDisambiguation) {
  auto a = analyze_body("real v(10)\nx = v(3) + max(1.0, 2.0)");
  const front::Expr& rhs = *a.prog.stmts[0]->rhs;
  EXPECT_EQ(rhs.args[0]->kind, front::ExprKind::ArrayRef);
  EXPECT_EQ(rhs.args[1]->kind, front::ExprKind::Call);
}

TEST(Sema, WrongSubscriptCountThrows) {
  EXPECT_THROW((void)analyze_body("real v(10)\nx = v(1, 2)"), support::CompileError);
}

TEST(Sema, UndeclaredArrayThrows) {
  EXPECT_THROW((void)analyze_body("x = q(1:5)"), support::CompileError);
}

TEST(Sema, RankAnnotation) {
  auto a = analyze_body("real a(4,5)\nreal b(4,5)\nb = a");
  EXPECT_EQ(a.prog.stmts[0]->lhs->rank, 2);
  EXPECT_EQ(a.prog.stmts[0]->rhs->rank, 2);
}

TEST(Sema, NonConformableAssignThrows) {
  EXPECT_THROW((void)analyze_body("real a(4,5)\nreal b(4)\nb = a"),
               support::CompileError);
}

TEST(Sema, NonConformableBinaryThrows) {
  EXPECT_THROW((void)analyze_body("real a(4,5)\nreal b(4)\nx = sum(a + b)"),
               support::CompileError);
}

TEST(Sema, TypePromotion) {
  auto a = analyze_body("double precision d\nk = 1\nx = d + k");
  EXPECT_EQ(a.prog.stmts[1]->rhs->type, front::TypeBase::Double);
}

TEST(Sema, ReductionRankRules) {
  auto a = analyze_body("real a(4,5)\nreal p(4)\nx = sum(a)\np = sum(a, 2)");
  EXPECT_EQ(a.prog.stmts[0]->rhs->rank, 0);
  EXPECT_EQ(a.prog.stmts[1]->rhs->rank, 1);
}

TEST(Sema, MaxlocRequiresRank1) {
  EXPECT_NO_THROW((void)analyze_body("real v(9)\nk = maxloc(v)"));
  EXPECT_THROW((void)analyze_body("real a(3,3)\nk = maxloc(a)"), support::CompileError);
}

TEST(Sema, CshiftTyping) {
  auto a = analyze_body("real v(8)\nreal w(8)\nw = cshift(v, 1)");
  EXPECT_EQ(a.prog.stmts[0]->rhs->rank, 1);
}

TEST(Sema, ForallMaskMustBeLogical) {
  EXPECT_THROW((void)analyze_body("real v(8)\nforall (i = 1:8, v(i)) v(i) = 0.0"),
               support::CompileError);
  EXPECT_NO_THROW(
      (void)analyze_body("real v(8)\nforall (i = 1:8, v(i) .gt. 0.0) v(i) = 0.0"));
}

TEST(Sema, IfConditionMustBeScalarLogical) {
  EXPECT_THROW((void)analyze_body("real v(8)\nif (v .gt. 0.0) then\nx = 1\nend if"),
               support::CompileError);
}

TEST(Sema, IntrinsicArgCountChecked) {
  EXPECT_THROW((void)analyze_body("x = exp(1.0, 2.0)"), support::CompileError);
  EXPECT_THROW((void)analyze_body("x = mod(1)"), support::CompileError);
}

TEST(Sema, VectorSubscriptAccepted) {
  auto a = analyze_body("real e(8)\ninteger ix(8)\nreal v(8)\n"
                        "forall (i = 1:8) v(i) = e(ix(i))");
  SUCCEED();
}

TEST(Sema, VectorSubscriptMustBeInteger) {
  EXPECT_THROW((void)analyze_body("real e(8)\nreal rx(8)\nreal v(8)\n"
                                  "forall (i = 1:8) v(i) = e(rx(i))"),
               support::CompileError);
}

TEST(Sema, ParameterConstantsFolded) {
  auto a = analyze_body("parameter (n = 16, m = n*2)\nreal v(m)\nv(1) = 0.0");
  const front::Symbol& m = a.symbols.at(a.symbols.find("m"));
  ASSERT_TRUE(m.const_value.has_value());
  EXPECT_DOUBLE_EQ(*m.const_value, 32.0);
}

TEST(Sema, DuplicateDeclarationThrows) {
  EXPECT_THROW((void)analyze_body("real x\nreal x\nx = 1.0"), support::CompileError);
}

// --- fold ------------------------------------------------------------------

TEST(Fold, IntegerDivisionTruncates) {
  front::Bindings env;
  EXPECT_EQ(front::fold_int(*front::parse_expression_text("7/2"), env), 3);
  EXPECT_EQ(front::fold_int(*front::parse_expression_text("(0-7)/2"), env), -3);
}

TEST(Fold, MixedDivisionIsReal) {
  front::Bindings env;
  EXPECT_DOUBLE_EQ(front::fold_scalar(*front::parse_expression_text("7.0/2"), env), 3.5);
}

TEST(Fold, BindingsResolveNames) {
  front::Bindings env;
  env.set_int("n", 128);
  EXPECT_EQ(front::fold_int(*front::parse_expression_text("2*n + 1"), env), 257);
}

TEST(Fold, UnresolvedNameReturnsNullopt) {
  front::Bindings env;
  EXPECT_FALSE(front::try_fold(*front::parse_expression_text("n + 1"), env).has_value());
  EXPECT_THROW((void)front::fold_scalar(*front::parse_expression_text("n + 1"), env),
               support::CompileError);
}

TEST(Fold, IntrinsicFolding) {
  front::Bindings env;
  EXPECT_DOUBLE_EQ(front::fold_scalar(*front::parse_expression_text("sqrt(9.0)"), env), 3.0);
  EXPECT_EQ(front::fold_int(*front::parse_expression_text("mod(10, 3)"), env), 1);
  EXPECT_EQ(front::fold_int(*front::parse_expression_text("max(2, 7, 5)"), env), 7);
  EXPECT_EQ(front::fold_int(*front::parse_expression_text("int(3.9)"), env), 3);
  EXPECT_EQ(front::fold_int(*front::parse_expression_text("sign(64, -1)"), env), -64);
  EXPECT_EQ(front::fold_int(*front::parse_expression_text("merge(3, 4, 1 > 0)"), env), 3);
  // integer `/` and `mod` that would trap leave the value unfolded
  EXPECT_FALSE(front::try_fold(*front::parse_expression_text("mod(7, 0)"), env));
  EXPECT_FALSE(
      front::try_fold(*front::parse_expression_text("(-(2**62) - 2**62) / (-1)"), env));
  // PARAMETERs and extents fold through sign/merge too
  const auto prog = compiler::compile(
      "program t\nparameter (n = sign(64, -1))\nreal f(abs(sign(64,-1)))\n"
      "k = n\nend program t\n");
  EXPECT_EQ(prog.symbols.at(prog.symbols.find("n")).const_value, -64.0);
  EXPECT_EQ(front::fold_int(*prog.symbols.at(prog.symbols.find("f")).dims[0], env), 64);
}

TEST(Fold, BindingsMergePrecedence) {
  front::Bindings a, b;
  a.set_int("n", 1);
  b.set_int("n", 2);
  a.merge(b);
  EXPECT_DOUBLE_EQ(*a.get("n"), 2.0);
}

// --- scalar evaluation --------------------------------------------------------

/// One-lane evaluation of cost bytecode, as the interpretation engine runs
/// it: no array storage, the environment seeded from `bindings`.
struct OneLane {
  const compiler::CostProgram& cp;
  compiler::BatchEnv env;
  std::vector<double> file;
  double* regs = nullptr;
  std::vector<double> out = std::vector<double>(compiler::kBatchStripe);
  std::vector<unsigned char> ok = std::vector<unsigned char>(compiler::kBatchStripe);

  OneLane(const compiler::CompiledProgram& prog, const front::Bindings& bindings)
      : cp(*prog.cost_program), file(cp.max_regs * compiler::kBatchStripe + 8) {
    env.reset(cp.slots, 1);
    for (const auto& [id, v] : compiler::seed_values(prog.symbols, bindings).defined) {
      env.define(id, 0, v);
    }
    const auto raw = reinterpret_cast<std::uintptr_t>(file.data());
    regs = reinterpret_cast<double*>((raw + 63) & ~std::uintptr_t{63});
  }

  /// The value of `code`, or nullopt (with `error` set) when it fails.
  std::optional<double> value(const compiler::ExprCode& code, std::string* error = nullptr) {
    (void)compiler::eval_code_batch(cp, code, env, {}, regs, out.data(), ok.data(),
                                    compiler::kBatchStripe);
    if (ok[0]) return out[0];
    if (error != nullptr) {
      *error = compiler::lane_error(cp, code, env, {}, regs, compiler::kBatchStripe, 0).what();
    }
    return std::nullopt;
  }

  /// The right-hand side of the program's `index`-th top-level statement.
  std::optional<double> rhs(const compiler::CompiledProgram& prog, std::size_t index,
                            std::string* error = nullptr) {
    const compiler::SpmdNode& node = *prog.root->children.at(index);
    const compiler::NodeCost& nc = cp.nodes[static_cast<std::size_t>(node.id)];
    return value(cp.exprs[static_cast<std::size_t>(nc.rhs)], error);
  }
};

compiler::CompiledProgram compile_body(std::string_view body) {
  return compiler::compile("program t\n" + std::string(body) + "\nend program t\n");
}

TEST(Eval, SeededEnvironmentResolvesParams) {
  const auto prog = compile_body("parameter (n = 64)\nk = n/2");
  OneLane lane(prog, {});
  EXPECT_EQ(lane.rhs(prog, 0), 32.0);
}

TEST(Eval, BindingOverridesParameter) {
  const auto prog = compile_body("parameter (n = 64)\nk = n");
  front::Bindings b;
  b.set_int("n", 256);
  OneLane lane(prog, b);
  EXPECT_EQ(lane.rhs(prog, 0), 256.0);
}

TEST(Eval, ArrayElementFailsWithoutStorage) {
  const auto prog = compile_body("real v(4)\nx = v(2)");
  OneLane lane(prog, {});
  std::string error;
  EXPECT_FALSE(lane.rhs(prog, 0, &error).has_value());
  EXPECT_EQ(error, "3:5: array element 'v' cannot be read during interpretation");
}

TEST(Eval, IntegerSemanticsInEval) {
  const auto prog = compile_body("i = 7\nj = 2\nk = i/j");
  OneLane lane(prog, {});
  lane.env.define(prog.symbols.find("i"), 0, 7);
  lane.env.define(prog.symbols.find("j"), 0, 2);
  EXPECT_EQ(lane.rhs(prog, 2), 3.0);
}

TEST(Eval, NintRoundsHalfAwayFromZero) {
  const std::vector<std::pair<std::string, double>> cases = {
      {"0.5", 1.0}, {"-0.5", -1.0}, {"2.5", 3.0}, {"-2.5", -3.0}, {"3.5", 4.0},
      {"2.4", 2.0}, {"-2.6", -3.0}};
  std::string body;
  for (const auto& [arg, want] : cases) body += "x = nint(" + arg + ")\n";
  const auto prog = compile_body(body);
  OneLane lane(prog, {});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& [arg, want] = cases[i];
    EXPECT_EQ(lane.rhs(prog, i), want) << "nint(" << arg << ")";
    EXPECT_EQ(front::try_fold(*prog.root->children[i]->rhs, front::Bindings{}), want)
        << "nint(" << arg << ")";
  }
}

// --- the intrinsic registry ---------------------------------------------------

/// Every argument tuple of length `argc` over `grid`, as "a, b, ...".
std::vector<std::string> argument_lists(const std::vector<std::string>& grid, int argc) {
  std::vector<std::string> out = {""};
  for (int k = 0; k < argc; ++k) {
    std::vector<std::string> next;
    for (const auto& prefix : out) {
      for (const auto& g : grid) next.push_back(prefix.empty() ? g : prefix + ", " + g);
    }
    out = std::move(next);
  }
  return out;
}

std::optional<std::uint64_t> bits(std::optional<double> v) {
  if (!v) return std::nullopt;
  return std::bit_cast<std::uint64_t>(*v);
}

// Table-driven over the whole registry, so a new elemental row is covered
// without touching this test: on a grid of literal arguments (zero,
// negative, integer- and real-typed), fold and the cost bytecode agree bit
// for bit — including on which inputs fail.
TEST(Intrinsics, EveryElementalRowAgreesAcrossEvaluators) {
  const std::vector<std::string> grid = {"0", "-7", "1", "3", "0.0", "-2.5", "0.5", "3.0"};
  int checked = 0;
  for (std::size_t row = 0; row < front::kIntrinsicCount; ++row) {
    const front::IntrinsicInfo& info = front::kIntrinsics[row];
    if (info.kind != front::IntrinsicKind::Elemental) continue;
    std::string src = "program t\n";
    for (int argc = info.min_args; argc <= std::min(info.min_args + 1, info.max_args); ++argc) {
      for (const auto& args : argument_lists(grid, argc)) {
        src += "x = " + std::string(info.name) + "(" + args + ")\n";
      }
    }
    const auto prog = compiler::compile(src + "end program t\n");
    OneLane lane(prog, {});
    for (std::size_t i = 0; i < prog.root->children.size(); ++i) {
      const compiler::SpmdNode& node = *prog.root->children[i];
      if (node.kind != compiler::SpmdKind::ScalarAssign) continue;
      const front::Expr& e = *node.rhs;
      ASSERT_EQ(e.intrinsic, static_cast<front::IntrinsicId>(row)) << e.str();
      const auto folded = bits(front::try_fold(e, front::Bindings{}));
      const auto batch = bits(lane.rhs(prog, i));
      EXPECT_EQ(folded, batch) << e.str();
      ++checked;
    }
  }
  EXPECT_GT(checked, 1000);
}

}  // namespace
}  // namespace hpf90d
