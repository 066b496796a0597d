// ast.hpp — abstract syntax tree for the HPF/Fortran 90D subset.
//
// The tree is deliberately a small set of tagged structs rather than a deep
// class hierarchy: every later stage (normalization, partitioning,
// communication detection, abstraction, functional simulation) walks it
// generically, and the tag + children representation keeps those walks
// simple and fast.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hpf/intrinsics.hpp"
#include "support/diagnostics.hpp"

namespace hpf90d::front {

using support::SourceLoc;

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

enum class TypeBase { Integer, Real, Double, Logical };

[[nodiscard]] std::string_view type_base_name(TypeBase t) noexcept;

/// Element size in bytes on the modelled machine (iPSC/860 conventions:
/// INTEGER*4, REAL*4, DOUBLE PRECISION*8, LOGICAL*4).
[[nodiscard]] int type_size_bytes(TypeBase t) noexcept;

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  IntLit,
  RealLit,
  LogicalLit,
  Var,       // scalar variable or whole-array name (rank decided by sema)
  ArrayRef,  // a(subscripts...) — element reference or section
  Binary,
  Unary,
  Call,      // intrinsic function call (user functions are out of subset)
};

enum class BinOp { Add, Sub, Mul, Div, Pow, Lt, Le, Gt, Ge, Eq, Ne, And, Or };
enum class UnOp { Neg, Plus, Not };

[[nodiscard]] std::string_view binop_spelling(BinOp op) noexcept;

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// One subscript position of an ArrayRef: either a scalar expression, a
/// section triplet `lo:hi[:stride]`, or a bare `:` (whole extent).
struct Subscript {
  enum class Kind { Scalar, Triplet, All } kind = Kind::Scalar;
  ExprPtr scalar;          // Kind::Scalar
  ExprPtr lo, hi, stride;  // Kind::Triplet; any may be null (default bound)

  [[nodiscard]] Subscript clone() const;
};

struct Expr {
  ExprKind kind = ExprKind::IntLit;
  SourceLoc loc;

  // literals
  long long int_value = 0;
  double real_value = 0.0;
  bool bool_value = false;

  // Var / ArrayRef / Call
  std::string name;   // canonical lower case
  int symbol = -1;    // index into the program symbol table (set by sema)
  std::optional<IntrinsicId> intrinsic;  // Call: resolved by sema

  BinOp bin_op = BinOp::Add;
  UnOp un_op = UnOp::Neg;

  std::vector<ExprPtr> args;        // Binary: [lhs,rhs]; Unary: [operand]; Call: args
  std::vector<Subscript> subs;      // ArrayRef subscripts

  // Filled in by sema:
  TypeBase type = TypeBase::Real;
  int rank = 0;  // 0 = scalar expression

  /// Registry kind of a resolved intrinsic call; nullopt for any other node.
  [[nodiscard]] std::optional<IntrinsicKind> intrinsic_kind() const {
    if (!intrinsic) return std::nullopt;
    return intrinsic_info(*intrinsic).kind;
  }

  [[nodiscard]] ExprPtr clone() const;
  [[nodiscard]] std::string str() const;  // round-trippable Fortran-ish text
};

[[nodiscard]] ExprPtr make_int_lit(long long v, SourceLoc loc = {});
[[nodiscard]] ExprPtr make_real_lit(double v, SourceLoc loc = {});
[[nodiscard]] ExprPtr make_var(std::string name, SourceLoc loc = {});
[[nodiscard]] ExprPtr make_binary(BinOp op, ExprPtr lhs, ExprPtr rhs);
[[nodiscard]] ExprPtr make_unary(UnOp op, ExprPtr operand);

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind {
  Assign,   // scalar or array assignment
  Forall,   // forall statement or construct
  Where,    // where statement or construct
  Do,       // counted do loop
  DoWhile,  // do while loop
  If,       // block or logical if
  Print,    // print *, ...   (host I/O)
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

/// One index of a forall header: `name = lo : hi [: stride]`.
struct ForallIndex {
  std::string name;
  int symbol = -1;
  ExprPtr lo, hi, stride;  // stride may be null (defaults to 1)

  [[nodiscard]] ForallIndex clone() const;
};

struct Stmt {
  StmtKind kind = StmtKind::Assign;
  SourceLoc loc;

  // Assign
  ExprPtr lhs;
  ExprPtr rhs;

  // Forall
  std::vector<ForallIndex> forall_indices;
  ExprPtr mask;  // Forall / Where mask; If / DoWhile condition

  // Do
  std::string do_var;
  int do_symbol = -1;
  ExprPtr do_lo, do_hi, do_step;  // step may be null

  // Bodies: Forall/Where/Do/DoWhile use `body`; If uses `body` (then) and
  // `else_body`; Where uses `body` (where-true) and `else_body` (elsewhere).
  std::vector<StmtPtr> body;
  std::vector<StmtPtr> else_body;

  // Print
  std::vector<ExprPtr> print_args;

  [[nodiscard]] StmtPtr clone() const;
  [[nodiscard]] std::string str(int indent = 0) const;
};

// ---------------------------------------------------------------------------
// Declarations & program unit
// ---------------------------------------------------------------------------

/// One declared entity: `real x(n,m)` produces name "x" with two dimension
/// extent expressions. Scalars have no dims.
struct DeclItem {
  std::string name;
  std::vector<ExprPtr> dims;
  SourceLoc loc;
};

struct Declaration {
  TypeBase type = TypeBase::Real;
  std::vector<DeclItem> items;
};

/// `parameter (name = constant-expr)`.
struct ParameterDef {
  std::string name;
  ExprPtr value;
  SourceLoc loc;
};

/// A raw directive line (the directive parser structures these later; the
/// raw form is kept so tools can re-emit or override directives textually).
struct RawDirective {
  SourceLoc loc;
  std::string text;
};

struct Program {
  std::string name;
  std::vector<Declaration> decls;
  std::vector<ParameterDef> parameters;
  std::vector<RawDirective> raw_directives;
  std::vector<StmtPtr> stmts;

  [[nodiscard]] std::string str() const;
};

}  // namespace hpf90d::front
