// Parser unit tests: expression precedence, statements, constructs,
// declarations, sections, and syntax errors.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "api/api.hpp"
#include "compiler/pipeline.hpp"
#include "hpf/parser.hpp"
#include "suite/suite.hpp"
#include "support/diagnostics.hpp"

namespace hpf90d::front {
namespace {

Program parse(std::string_view body) {
  std::string src = "program t\n" + std::string(body) + "\nend program t\n";
  return parse_program(src);
}

std::string expr_str(std::string_view text) { return parse_expression_text(text)->str(); }

TEST(Parser, ProgramNameParsed) {
  const Program p = parse("x = 1");
  EXPECT_EQ(p.name, "t");
}

TEST(Parser, MissingEndThrows) {
  EXPECT_THROW((void)parse_program("program t\nx = 1\n"), support::CompileError);
}

TEST(Parser, MulBindsTighterThanAdd) {
  EXPECT_EQ(expr_str("a + b * c"), "(a + (b * c))");
}

TEST(Parser, PowerIsRightAssociative) {
  EXPECT_EQ(expr_str("a ** b ** c"), "(a ** (b ** c))");
}

TEST(Parser, UnaryMinusAndPower) {
  EXPECT_EQ(expr_str("-a ** 2"), "(-(a ** 2))");
  EXPECT_EQ(expr_str("a ** -2"), "(a ** (-2))");
}

TEST(Parser, RelationalBelowAdditive) {
  EXPECT_EQ(expr_str("a + b .gt. c"), "((a + b) .gt. c)");
}

TEST(Parser, LogicalPrecedence) {
  EXPECT_EQ(expr_str("a .lt. b .and. c .gt. d .or. e .le. f"),
            "(((a .lt. b) .and. (c .gt. d)) .or. (e .le. f))");
}

TEST(Parser, NotBindsAboveAnd) {
  EXPECT_EQ(expr_str(".not. a .and. b"), "((.not. a) .and. b)");
}

TEST(Parser, ParenthesesOverride) {
  EXPECT_EQ(expr_str("(a + b) * c"), "((a + b) * c)");
}

TEST(Parser, CallArgumentsAndNesting) {
  EXPECT_EQ(expr_str("max(a, min(b, c))"), "max(a,min(b,c))");
}

TEST(Parser, SectionForms) {
  EXPECT_EQ(expr_str("a(1:n)"), "a(1:n)");
  EXPECT_EQ(expr_str("a(:)"), "a(:)");
  EXPECT_EQ(expr_str("a(2:n-1:2)"), "a(2:(n - 1):2)");
  EXPECT_EQ(expr_str("a(:, j)"), "a(:,j)");
  EXPECT_EQ(expr_str("a(:n)"), "a(:n)");
}

TEST(Parser, ScalarSubscriptsStayCalls) {
  // the parser cannot know arrays from intrinsics; scalar-subscript forms
  // become Call nodes for sema to re-classify
  const ExprPtr e = parse_expression_text("a(i, j)");
  EXPECT_EQ(e->kind, ExprKind::Call);
}

TEST(Parser, SectionFormsAreArrayRefs) {
  const ExprPtr e = parse_expression_text("a(1:n, j)");
  EXPECT_EQ(e->kind, ExprKind::ArrayRef);
  ASSERT_EQ(e->subs.size(), 2u);
  EXPECT_EQ(e->subs[0].kind, Subscript::Kind::Triplet);
  EXPECT_EQ(e->subs[1].kind, Subscript::Kind::Scalar);
}

TEST(Parser, Declarations) {
  const Program p = parse("real x(n), y\ninteger k\ndouble precision d(4,5)\nx(1) = 1.0");
  ASSERT_EQ(p.decls.size(), 3u);
  EXPECT_EQ(p.decls[0].items[0].name, "x");
  EXPECT_EQ(p.decls[0].items[0].dims.size(), 1u);
  EXPECT_EQ(p.decls[0].items[1].name, "y");
  EXPECT_EQ(p.decls[1].type, TypeBase::Integer);
  EXPECT_EQ(p.decls[2].type, TypeBase::Double);
  EXPECT_EQ(p.decls[2].items[0].dims.size(), 2u);
}

TEST(Parser, ParameterStatement) {
  const Program p = parse("parameter (n = 1024, m = 2*n)\nx = 1");
  ASSERT_EQ(p.parameters.size(), 2u);
  EXPECT_EQ(p.parameters[0].name, "n");
  EXPECT_EQ(p.parameters[1].value->str(), "(2 * n)");
}

TEST(Parser, ForallSingleStatement) {
  const Program p = parse("forall (i = 1:n) x(i) = 0.0");
  ASSERT_EQ(p.stmts.size(), 1u);
  const Stmt& s = *p.stmts[0];
  EXPECT_EQ(s.kind, StmtKind::Forall);
  ASSERT_EQ(s.forall_indices.size(), 1u);
  EXPECT_EQ(s.forall_indices[0].name, "i");
  EXPECT_EQ(s.body.size(), 1u);
  EXPECT_EQ(s.mask, nullptr);
}

TEST(Parser, ForallWithMask) {
  const Program p = parse("forall (i = 1:n, v(i) .gt. 0.0) x(i) = 1.0/v(i)");
  const Stmt& s = *p.stmts[0];
  ASSERT_NE(s.mask, nullptr);
  EXPECT_EQ(s.forall_indices.size(), 1u);
}

TEST(Parser, ForallMultiIndexAndStride) {
  const Program p = parse("forall (i = 1:n, j = 2:m:2) a(i,j) = 0.0");
  const Stmt& s = *p.stmts[0];
  ASSERT_EQ(s.forall_indices.size(), 2u);
  ASSERT_NE(s.forall_indices[1].stride, nullptr);
}

TEST(Parser, ForallConstruct) {
  const Program p = parse("forall (i = 1:n)\n  x(i) = 1.0\n  y(i) = 2.0\nend forall");
  const Stmt& s = *p.stmts[0];
  EXPECT_EQ(s.kind, StmtKind::Forall);
  EXPECT_EQ(s.body.size(), 2u);
}

TEST(Parser, WhereStatementAndConstruct) {
  const Program p1 = parse("where (v .gt. 0.0) x = 1.0/v");
  EXPECT_EQ(p1.stmts[0]->kind, StmtKind::Where);
  const Program p2 =
      parse("where (v .gt. 0.0)\n  x = 1.0\nelsewhere\n  x = 0.0\nend where");
  EXPECT_EQ(p2.stmts[0]->body.size(), 1u);
  EXPECT_EQ(p2.stmts[0]->else_body.size(), 1u);
}

TEST(Parser, DoLoopWithStep) {
  const Program p = parse("do i = 1, n, 2\n  x = x + 1\nend do");
  const Stmt& s = *p.stmts[0];
  EXPECT_EQ(s.kind, StmtKind::Do);
  EXPECT_EQ(s.do_var, "i");
  ASSERT_NE(s.do_step, nullptr);
}

TEST(Parser, EndDoSpellings) {
  EXPECT_NO_THROW((void)parse("do i = 1, 3\n  x = 1\nenddo"));
  EXPECT_NO_THROW((void)parse("do i = 1, 3\n  x = 1\nend do"));
}

TEST(Parser, DoWhile) {
  const Program p = parse("do while (x .lt. 10.0)\n  x = x + 1.0\nend do");
  EXPECT_EQ(p.stmts[0]->kind, StmtKind::DoWhile);
}

TEST(Parser, BlockIfElse) {
  const Program p = parse("if (x .gt. 0.0) then\n  y = 1\nelse\n  y = 2\nend if");
  const Stmt& s = *p.stmts[0];
  EXPECT_EQ(s.kind, StmtKind::If);
  EXPECT_EQ(s.body.size(), 1u);
  EXPECT_EQ(s.else_body.size(), 1u);
}

TEST(Parser, ElseIfChainsAsNestedIf) {
  const Program p = parse(
      "if (x .gt. 0.0) then\n  y = 1\nelseif (x .lt. 0.0) then\n  y = 2\nelse\n"
      "  y = 3\nend if");
  const Stmt& s = *p.stmts[0];
  ASSERT_EQ(s.else_body.size(), 1u);
  EXPECT_EQ(s.else_body[0]->kind, StmtKind::If);
  EXPECT_EQ(s.else_body[0]->else_body.size(), 1u);
}

TEST(Parser, LogicalIf) {
  const Program p = parse("if (x .gt. 0.0) y = 1");
  const Stmt& s = *p.stmts[0];
  EXPECT_EQ(s.kind, StmtKind::If);
  ASSERT_EQ(s.body.size(), 1u);
  EXPECT_TRUE(s.else_body.empty());
}

TEST(Parser, PrintStatement) {
  const Program p = parse("print *, x, y + 1");
  const Stmt& s = *p.stmts[0];
  EXPECT_EQ(s.kind, StmtKind::Print);
  EXPECT_EQ(s.print_args.size(), 2u);
}

TEST(Parser, DirectivesRecordedInProgram) {
  const Program p = parse_program(
      "program t\n!hpf$ template d(n)\nx = 1\nend program t\n");
  ASSERT_EQ(p.raw_directives.size(), 1u);
}

TEST(Parser, SyntaxErrorsThrow) {
  EXPECT_THROW((void)parse("forall i = 1:n) x(i) = 0"), support::CompileError);
  EXPECT_THROW((void)parse("do i = 1\n  x = 1\nend do"), support::CompileError);
  EXPECT_THROW((void)parse("x = "), support::CompileError);
  EXPECT_THROW((void)parse("x = (a + b"), support::CompileError);
}

/// `prefix` repeated `n` times, then `core`, then `suffix` repeated `n` times.
std::string nest(std::string_view prefix, int n, std::string_view core,
                 std::string_view suffix = "") {
  std::string out;
  for (int i = 0; i < n; ++i) out += prefix;
  out += core;
  for (int i = 0; i < n; ++i) out += suffix;
  return out;
}

/// The location of the CompileError parsing `body` raises (line 0 if none).
support::SourceLoc parse_error_at(const std::string& body) {
  try {
    (void)parse(body);
  } catch (const support::CompileError& e) {
    return e.loc();
  }
  return {};
}

TEST(Parser, ExpressionNestingIsBounded) {
  // hostile depths are rejected at the token that crosses the limit
  // (line 2 of the program; the first '(' or '-' sits in column 5)
  const auto paren = parse_error_at("x = " + nest("(", 20000, "1", ")"));
  EXPECT_EQ(paren.line, 2u);
  EXPECT_EQ(paren.column, 5u + kMaxExprDepth);
  const auto minus = parse_error_at("x = " + nest("-", 20000, "1"));
  EXPECT_EQ(minus.line, 2u);
  EXPECT_EQ(minus.column, 4u + kMaxExprDepth);
  EXPECT_EQ(parse_error_at("l = " + nest(".not. ", 20000, ".true.")).line, 2u);
  EXPECT_EQ(parse_error_at("x = " + nest("2**", 20000, "1")).line, 2u);

  // just under the limit (the whole right-hand side is one level) compiles
  EXPECT_NO_THROW((void)hpf90d::compiler::compile(
      "program t\nx = " + nest("(", kMaxExprDepth - 1, "1", ")") + "\nend program t\n"));
  EXPECT_NO_THROW((void)hpf90d::compiler::compile(
      "program t\nx = " + nest("-", kMaxExprDepth - 1, "1") + "\nend program t\n"));
}

/// `depth` nested blocks, one statement per line, opened by `open` (which
/// ends its line) and closed by `close`, around one assignment.
std::string nested_blocks(int depth, std::string_view open, std::string_view close) {
  return nest(std::string(open) + "\n", depth, "x = 1.0\n", std::string(close) + "\n");
}

TEST(Parser, StatementNestingIsBounded) {
  // hostile depths are rejected at the statement that crosses the limit:
  // the k-th block opens on line 1 + k, in column 1
  for (const auto& [open, close] : {std::pair{"if (x > 0.0) then", "end if"},
                                    std::pair{"do i = 1, 1", "end do"}}) {
    try {
      (void)parse(nested_blocks(50000, open, close));
      ADD_FAILURE() << open << ": 50,000 nested blocks parsed";
    } catch (const support::CompileError& e) {
      EXPECT_EQ(e.loc().line, 2u + kMaxStmtDepth) << open;
      EXPECT_EQ(e.loc().column, 1u) << open;
      EXPECT_NE(std::string(e.what()).find("statements nested more than " +
                                           std::to_string(kMaxStmtDepth) + " levels deep"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(parse_error_at(nested_blocks(kMaxStmtDepth, open, close)).line,
              2u + kMaxStmtDepth)
        << open;

    // just under the limit (the assignment is one level itself) compiles,
    // predicts and measures
    api::Session session;
    const auto at_limit = session.compile(
        "program t\n" + nested_blocks(kMaxStmtDepth - 1, open, close) + "end program t\n");
    api::RunConfig cfg;
    cfg.nprocs = 2;
    cfg.bindings.set("x", 1.0);
    cfg.runs = 1;
    EXPECT_GT(session.predict(at_limit, cfg).total, 0.0) << open;
    EXPECT_GT(session.measure(at_limit, cfg).stats.mean, 0.0) << open;
  }
}

/// `x = 1.0 + 1.0 + ... + 1.0` with `terms` terms: a flat chain the parser
/// builds into a left-deep tree `terms` levels high.
std::string flat_sum(int terms) {
  std::string out = "x = 1.0";
  for (int i = 1; i < terms; ++i) out += " + 1.0";
  return out;
}

TEST(Parser, FlatChainHeightIsBounded) {
  // rejected at the operator that makes the tree one level too high: the
  // k-th '+' sits in column 9 + 6 (k - 1) of line 2
  try {
    (void)parse(flat_sum(20000));
    ADD_FAILURE() << "a 20,000-term chain parsed";
  } catch (const support::CompileError& e) {
    EXPECT_EQ(e.loc().line, 2u);
    EXPECT_EQ(e.loc().column, 9u + 6u * (kMaxExprHeight - 1));
    EXPECT_NE(std::string(e.what()).find("expression tree higher than " +
                                         std::to_string(kMaxExprHeight) + " levels"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(parse_error_at(flat_sum(kMaxExprHeight + 1)).column,
            9u + 6u * (kMaxExprHeight - 1));

  // a chain exactly at the limit compiles, and the passes after the parser
  // (sema, lowering, op counts, bytecode, interpretation) walk it safely
  api::Session session;
  const auto at_limit =
      session.compile("program t\n" + flat_sum(kMaxExprHeight) + "\nend program t\n");
  EXPECT_GT(session.predict(at_limit, api::RunConfig{}).total, 0.0);

  EXPECT_NO_THROW((void)hpf90d::compiler::compile("program t\n" + flat_sum(1000) +
                                                  "\nend program t\n"));
  for (const auto& app : suite::validation_suite()) {
    EXPECT_NO_THROW((void)hpf90d::compiler::compile(app.source)) << app.id;
  }
}

}  // namespace
}  // namespace hpf90d::front
