// parser.hpp — recursive-descent parser for the HPF/Fortran 90D subset.
//
// Grammar covered (the subset the NPAC validation suite exercises):
//   program        ::= PROGRAM name EOL { decl | parameter | stmt } END [PROGRAM [name]]
//   decl           ::= type-spec item {, item}
//   type-spec      ::= INTEGER | REAL | DOUBLE PRECISION | LOGICAL
//   item           ::= name [ '(' dim {, dim} ')' ]
//   parameter      ::= PARAMETER '(' name '=' expr {, name '=' expr} ')'
//   stmt           ::= assignment | forall | where | do | do-while | if | print
//   forall         ::= FORALL '(' index {, index} [, mask] ')' ( assignment | EOL body END FORALL )
//   where          ::= WHERE '(' mask ')' ( assignment | EOL body [ELSEWHERE body] END WHERE )
//   do             ::= DO name '=' expr ',' expr [',' expr] EOL body END DO
//   do-while       ::= DO WHILE '(' expr ')' EOL body END DO
//   if             ::= IF '(' expr ')' ( stmt | THEN EOL body [ELSE body] END IF )
//   print          ::= PRINT '*' {, expr}
//
// HPF directives are parsed separately from the DirectiveLine list collected
// by the lexer (see directives.hpp).
#pragma once

#include <string_view>

#include "hpf/ast.hpp"
#include "hpf/lexer.hpp"

namespace hpf90d::front {

/// Deepest expression nesting the parser accepts: each parenthesis, unary
/// sign, `.not.` and `**` exponent opens one level. Every later pass walks
/// expression trees recursively too, so a hostile source such as 20,000
/// nested parentheses is rejected here, with a diagnostic located at the
/// token that crosses the limit, instead of overflowing the stack.
inline constexpr int kMaxExprDepth = 256;

/// Highest expression tree the parser builds. A flat chain such as
/// `1.0 + 1.0 + ... + 1.0` nests nothing, yet the parser's loop builds a
/// left-deep tree one level per operator, and the passes after it recurse
/// on that height; a chain or a call that would cross the limit is
/// rejected with a diagnostic at the operator (or call) that crosses it.
inline constexpr int kMaxExprHeight = 2048;

/// Deepest statement nesting the parser accepts: each DO, DO WHILE, block
/// IF, FORALL and WHERE construct opens one level. Sema, lowering and both
/// engines walk statement trees recursively, so a hostile source such as
/// 50,000 nested IF blocks is rejected here, with a diagnostic located at
/// the statement that crosses the limit, instead of overflowing the stack.
inline constexpr int kMaxStmtDepth = 256;

/// Parses a complete source file (lexes it first). Throws
/// support::CompileError on syntax errors.
[[nodiscard]] Program parse_program(std::string_view source);

/// Parses a single expression from text (used by tests and by the critical
/// variable resolver for user-supplied bindings).
[[nodiscard]] ExprPtr parse_expression_text(std::string_view text);

}  // namespace hpf90d::front
