#include "hpf/parser.hpp"

#include <algorithm>
#include <array>
#include <optional>

#include "support/text.hpp"

namespace hpf90d::front {

using support::CompileError;
using support::SourceLoc;

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Program parse_program_unit(std::vector<DirectiveLine> directives) {
    Program prog;
    for (const auto& d : directives) {
      prog.raw_directives.push_back(RawDirective{d.loc, d.text});
    }
    skip_eols();
    expect_word("program");
    prog.name = expect_identifier("program name");
    expect(TokenKind::Eol);

    while (!at_word("end")) {
      if (at(TokenKind::Eof)) {
        throw CompileError(peek().loc, "missing 'end program'");
      }
      if (at_decl_start()) {
        prog.decls.push_back(parse_declaration());
      } else if (at_word("parameter")) {
        parse_parameter(prog);
      } else {
        prog.stmts.push_back(parse_statement());
      }
      skip_eols();
    }
    expect_word("end");
    if (at_word("program")) {
      advance();
      if (at(TokenKind::Identifier)) advance();  // optional trailing name
    }
    return prog;
  }

  ExprPtr parse_single_expression() {
    ExprPtr e = parse_expr();
    if (!at(TokenKind::Eol) && !at(TokenKind::Eof)) {
      throw CompileError(peek().loc, "trailing tokens after expression");
    }
    return e;
  }

 private:
  // -- token cursor -----------------------------------------------------
  [[nodiscard]] const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  [[nodiscard]] bool at(TokenKind k) const { return peek().kind == k; }
  [[nodiscard]] bool at_word(std::string_view w) const { return peek().is_word(w); }

  void expect(TokenKind k) {
    if (!at(k)) {
      throw CompileError(peek().loc, std::string("expected ") +
                                         std::string(token_kind_name(k)) +
                                         ", found '" + peek().text + "'");
    }
    advance();
  }
  void expect_word(std::string_view w) {
    if (!at_word(w)) {
      throw CompileError(peek().loc, "expected '" + std::string(w) + "', found '" +
                                         peek().text + "'");
    }
    advance();
  }
  std::string expect_identifier(std::string_view what) {
    if (!at(TokenKind::Identifier)) {
      throw CompileError(peek().loc, "expected " + std::string(what));
    }
    return advance().text;
  }
  void skip_eols() {
    while (at(TokenKind::Eol)) advance();
  }

  // -- declarations -----------------------------------------------------
  [[nodiscard]] bool at_decl_start() const {
    return at_word("integer") || at_word("real") || at_word("logical") ||
           (at_word("double") && peek(1).is_word("precision"));
  }

  Declaration parse_declaration() {
    Declaration decl;
    if (at_word("double")) {
      advance();
      expect_word("precision");
      decl.type = TypeBase::Double;
    } else if (at_word("integer")) {
      advance();
      decl.type = TypeBase::Integer;
    } else if (at_word("real")) {
      advance();
      decl.type = TypeBase::Real;
    } else {
      expect_word("logical");
      decl.type = TypeBase::Logical;
    }
    if (at(TokenKind::DoubleColon)) advance();  // optional F90 `::`

    while (true) {
      DeclItem item;
      item.loc = peek().loc;
      item.name = expect_identifier("declared name");
      if (at(TokenKind::LParen)) {
        advance();
        while (true) {
          item.dims.push_back(parse_expr());
          if (at(TokenKind::Comma)) {
            advance();
            continue;
          }
          break;
        }
        expect(TokenKind::RParen);
      }
      decl.items.push_back(std::move(item));
      if (at(TokenKind::Comma)) {
        advance();
        continue;
      }
      break;
    }
    expect(TokenKind::Eol);
    return decl;
  }

  void parse_parameter(Program& prog) {
    expect_word("parameter");
    expect(TokenKind::LParen);
    while (true) {
      ParameterDef def;
      def.loc = peek().loc;
      def.name = expect_identifier("parameter name");
      expect(TokenKind::Assign);
      def.value = parse_expr();
      prog.parameters.push_back(std::move(def));
      if (at(TokenKind::Comma)) {
        advance();
        continue;
      }
      break;
    }
    expect(TokenKind::RParen);
    expect(TokenKind::Eol);
  }

  // -- statements ---------------------------------------------------------
  StmtPtr parse_statement() {
    if (stmt_depth_ == kMaxStmtDepth) {
      throw CompileError(peek().loc, "statements nested more than " +
                                         std::to_string(kMaxStmtDepth) + " levels deep");
    }
    ++stmt_depth_;
    StmtPtr stmt = parse_statement_here();
    --stmt_depth_;
    return stmt;
  }

  StmtPtr parse_statement_here() {
    if (at_word("forall")) return parse_forall();
    if (at_word("where")) return parse_where();
    if (at_word("do")) return parse_do();
    if (at_word("if")) return parse_if();
    if (at_word("print")) return parse_print();
    return parse_assignment();
  }

  StmtPtr parse_assignment() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::Assign;
    stmt->loc = peek().loc;
    stmt->lhs = parse_primary();  // variable or array-ref only
    if (stmt->lhs->kind != ExprKind::Var && stmt->lhs->kind != ExprKind::ArrayRef &&
        stmt->lhs->kind != ExprKind::Call) {
      throw CompileError(stmt->loc, "assignment target must be a variable or array element/section");
    }
    expect(TokenKind::Assign);
    stmt->rhs = parse_expr();
    expect(TokenKind::Eol);
    return stmt;
  }

  /// Parses an assignment without requiring EOL (single-statement forms).
  StmtPtr parse_inline_assignment() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::Assign;
    stmt->loc = peek().loc;
    stmt->lhs = parse_primary();
    expect(TokenKind::Assign);
    stmt->rhs = parse_expr();
    return stmt;
  }

  StmtPtr parse_forall() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::Forall;
    stmt->loc = peek().loc;
    expect_word("forall");
    expect(TokenKind::LParen);

    // index specs first; a trailing element that is not `name = lo:hi` is the mask
    while (true) {
      if (at(TokenKind::Identifier) && peek(1).is(TokenKind::Assign)) {
        ForallIndex idx;
        idx.name = advance().text;
        expect(TokenKind::Assign);
        idx.lo = parse_expr();
        expect(TokenKind::Colon);
        idx.hi = parse_expr();
        if (at(TokenKind::Colon)) {
          advance();
          idx.stride = parse_expr();
        }
        stmt->forall_indices.push_back(std::move(idx));
      } else {
        stmt->mask = parse_expr();
        break;
      }
      if (at(TokenKind::Comma)) {
        advance();
        continue;
      }
      break;
    }
    expect(TokenKind::RParen);
    if (stmt->forall_indices.empty()) {
      throw CompileError(stmt->loc, "forall requires at least one index spec");
    }

    if (at(TokenKind::Eol)) {
      // construct form
      advance();
      skip_eols();
      while (!at_end_of("forall")) {
        stmt->body.push_back(parse_statement());
        skip_eols();
      }
      consume_end_of("forall");
    } else {
      stmt->body.push_back(parse_inline_assignment());
      expect(TokenKind::Eol);
    }
    return stmt;
  }

  StmtPtr parse_where() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::Where;
    stmt->loc = peek().loc;
    expect_word("where");
    expect(TokenKind::LParen);
    stmt->mask = parse_expr();
    expect(TokenKind::RParen);

    if (at(TokenKind::Eol)) {
      advance();
      skip_eols();
      while (!at_end_of("where") && !at_word("elsewhere")) {
        stmt->body.push_back(parse_statement());
        skip_eols();
      }
      if (at_word("elsewhere")) {
        advance();
        expect(TokenKind::Eol);
        skip_eols();
        while (!at_end_of("where")) {
          stmt->else_body.push_back(parse_statement());
          skip_eols();
        }
      }
      consume_end_of("where");
    } else {
      stmt->body.push_back(parse_inline_assignment());
      expect(TokenKind::Eol);
    }
    return stmt;
  }

  StmtPtr parse_do() {
    auto stmt = std::make_unique<Stmt>();
    stmt->loc = peek().loc;
    expect_word("do");
    if (at_word("while")) {
      advance();
      stmt->kind = StmtKind::DoWhile;
      expect(TokenKind::LParen);
      stmt->mask = parse_expr();
      expect(TokenKind::RParen);
    } else {
      stmt->kind = StmtKind::Do;
      stmt->do_var = expect_identifier("do loop variable");
      expect(TokenKind::Assign);
      stmt->do_lo = parse_expr();
      expect(TokenKind::Comma);
      stmt->do_hi = parse_expr();
      if (at(TokenKind::Comma)) {
        advance();
        stmt->do_step = parse_expr();
      }
    }
    expect(TokenKind::Eol);
    skip_eols();
    while (!at_end_of("do")) {
      stmt->body.push_back(parse_statement());
      skip_eols();
    }
    consume_end_of("do");
    return stmt;
  }

  StmtPtr parse_if() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::If;
    stmt->loc = peek().loc;
    expect_word("if");
    expect(TokenKind::LParen);
    stmt->mask = parse_expr();
    expect(TokenKind::RParen);

    if (at_word("then")) {
      advance();
      expect(TokenKind::Eol);
      skip_eols();
      while (!at_end_of("if") && !at_word("else") && !at_word("elseif")) {
        stmt->body.push_back(parse_statement());
        skip_eols();
      }
      if (at_word("elseif")) {
        // treat `elseif (c) then` as `else` + nested if
        advance();
        auto nested = std::make_unique<Stmt>();
        nested->kind = StmtKind::If;
        nested->loc = peek().loc;
        expect(TokenKind::LParen);
        nested->mask = parse_expr();
        expect(TokenKind::RParen);
        expect_word("then");
        expect(TokenKind::Eol);
        skip_eols();
        while (!at_end_of("if") && !at_word("else")) {
          nested->body.push_back(parse_statement());
          skip_eols();
        }
        if (at_word("else")) {
          advance();
          expect(TokenKind::Eol);
          skip_eols();
          while (!at_end_of("if")) {
            nested->else_body.push_back(parse_statement());
            skip_eols();
          }
        }
        consume_end_of("if");
        stmt->else_body.push_back(std::move(nested));
        return stmt;
      }
      if (at_word("else")) {
        advance();
        expect(TokenKind::Eol);
        skip_eols();
        while (!at_end_of("if")) {
          stmt->else_body.push_back(parse_statement());
          skip_eols();
        }
      }
      consume_end_of("if");
    } else {
      // logical if: one inline statement
      if (at_word("print")) {
        stmt->body.push_back(parse_print_tail(/*consume_eol=*/true));
      } else {
        stmt->body.push_back(parse_inline_assignment());
        expect(TokenKind::Eol);
      }
    }
    return stmt;
  }

  StmtPtr parse_print() {
    expect_word("print");
    return parse_print_tail(/*consume_eol=*/true);
  }

  StmtPtr parse_print_tail(bool consume_eol) {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::Print;
    stmt->loc = peek().loc;
    if (at_word("print")) advance();  // when called from logical-if path
    expect(TokenKind::Star);
    while (at(TokenKind::Comma)) {
      advance();
      stmt->print_args.push_back(parse_expr());
    }
    if (consume_eol) expect(TokenKind::Eol);
    return stmt;
  }

  // `end do`, `enddo`, `end forall`, `endforall`, ...
  [[nodiscard]] bool at_end_of(std::string_view what) const {
    if (peek().is_word(std::string("end") + std::string(what))) return true;
    return at_word("end") && peek(1).is_word(what);
  }
  void consume_end_of(std::string_view what) {
    if (peek().is_word(std::string("end") + std::string(what))) {
      advance();
    } else {
      expect_word("end");
      expect_word(what);
    }
    if (!at(TokenKind::Eof)) expect(TokenKind::Eol);
  }

  // -- expressions --------------------------------------------------------
  /// One level of expression nesting for the lifetime of the guard.
  struct Nesting {
    explicit Nesting(Parser& p) : parser(p) {
      if (parser.depth_ == kMaxExprDepth) {
        throw CompileError(parser.peek().loc, "expression nested more than " +
                                                  std::to_string(kMaxExprDepth) +
                                                  " levels deep");
      }
      ++parser.depth_;
    }
    ~Nesting() { --parser.depth_; }
    Parser& parser;
  };

  /// Sets height_ for a node built over operands at most `operands` high,
  /// rejecting the node at `loc` when it would exceed kMaxExprHeight.
  void grow(int operands, const SourceLoc& loc) {
    if (operands >= kMaxExprHeight) {
      throw CompileError(loc, "expression tree higher than " +
                                  std::to_string(kMaxExprHeight) + " levels");
    }
    height_ = operands + 1;
  }

  /// One left-associative binary step: `lhs` (height_ on entry) op the
  /// operand `parse_rhs` returns, rejected at the operator token `loc`
  /// when the tree grows too high.
  template <class ParseRhs>
  ExprPtr chain(BinOp op, ExprPtr lhs, const SourceLoc& loc, ParseRhs parse_rhs) {
    const int lhs_height = height_;
    ExprPtr rhs = parse_rhs();
    grow(std::max(lhs_height, height_), loc);
    return make_binary(op, std::move(lhs), std::move(rhs));
  }

  // precedence (low→high): .or. | .and. | .not. | relational | +- | */ | unary | ** | primary
  ExprPtr parse_expr() {
    const Nesting level(*this);
    return parse_or();
  }

  ExprPtr parse_or() {
    ExprPtr lhs = parse_and();
    while (at(TokenKind::Or)) {
      const SourceLoc loc = advance().loc;
      lhs = chain(BinOp::Or, std::move(lhs), loc, [&] { return parse_and(); });
    }
    return lhs;
  }

  ExprPtr parse_and() {
    ExprPtr lhs = parse_not();
    while (at(TokenKind::And)) {
      const SourceLoc loc = advance().loc;
      lhs = chain(BinOp::And, std::move(lhs), loc, [&] { return parse_not(); });
    }
    return lhs;
  }

  ExprPtr parse_not() {
    if (at(TokenKind::Not)) {
      const Nesting level(*this);
      const SourceLoc loc = peek().loc;
      advance();
      auto e = make_unary(UnOp::Not, parse_not());
      grow(height_, loc);
      e->loc = loc;
      return e;
    }
    return parse_relational();
  }

  ExprPtr parse_relational() {
    ExprPtr lhs = parse_additive();
    const TokenKind k = peek().kind;
    std::optional<BinOp> op;
    switch (k) {
      case TokenKind::Lt: op = BinOp::Lt; break;
      case TokenKind::Le: op = BinOp::Le; break;
      case TokenKind::Gt: op = BinOp::Gt; break;
      case TokenKind::Ge: op = BinOp::Ge; break;
      case TokenKind::Eq: op = BinOp::Eq; break;
      case TokenKind::Ne: op = BinOp::Ne; break;
      default: break;
    }
    if (op) {
      const SourceLoc loc = advance().loc;
      lhs = chain(*op, std::move(lhs), loc, [&] { return parse_additive(); });
    }
    return lhs;
  }

  ExprPtr parse_additive() {
    ExprPtr lhs = parse_multiplicative();
    while (at(TokenKind::Plus) || at(TokenKind::Minus)) {
      const BinOp op = at(TokenKind::Plus) ? BinOp::Add : BinOp::Sub;
      const SourceLoc loc = advance().loc;
      lhs = chain(op, std::move(lhs), loc, [&] { return parse_multiplicative(); });
    }
    return lhs;
  }

  ExprPtr parse_multiplicative() {
    ExprPtr lhs = parse_unary();
    while (at(TokenKind::Star) || at(TokenKind::Slash)) {
      const BinOp op = at(TokenKind::Star) ? BinOp::Mul : BinOp::Div;
      const SourceLoc loc = advance().loc;
      lhs = chain(op, std::move(lhs), loc, [&] { return parse_unary(); });
    }
    return lhs;
  }

  ExprPtr parse_unary() {
    if (at(TokenKind::Minus)) {
      const Nesting level(*this);
      const SourceLoc loc = peek().loc;
      advance();
      auto e = make_unary(UnOp::Neg, parse_unary());
      grow(height_, loc);
      e->loc = loc;
      return e;
    }
    if (at(TokenKind::Plus)) {
      const Nesting level(*this);
      advance();
      return parse_unary();
    }
    return parse_power();
  }

  ExprPtr parse_power() {
    ExprPtr base = parse_primary();
    if (at(TokenKind::Power)) {
      const Nesting level(*this);
      const SourceLoc loc = advance().loc;
      // right-associative; exponent may itself be unary (e.g. x**-2)
      return chain(BinOp::Pow, std::move(base), loc, [&] { return parse_unary(); });
    }
    return base;
  }

  ExprPtr parse_primary() {
    const Token& tok = peek();
    switch (tok.kind) {
      case TokenKind::IntLiteral: {
        auto e = make_int_lit(tok.int_value, tok.loc);
        advance();
        height_ = 1;
        return e;
      }
      case TokenKind::RealLiteral: {
        auto e = make_real_lit(tok.real_value, tok.loc);
        advance();
        height_ = 1;
        return e;
      }
      case TokenKind::TrueLiteral:
      case TokenKind::FalseLiteral: {
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::LogicalLit;
        e->loc = tok.loc;
        e->bool_value = tok.kind == TokenKind::TrueLiteral;
        e->type = TypeBase::Logical;
        advance();
        height_ = 1;
        return e;
      }
      case TokenKind::LParen: {
        advance();
        ExprPtr inner = parse_expr();
        expect(TokenKind::RParen);
        return inner;
      }
      case TokenKind::Identifier: {
        std::string name = tok.text;
        const SourceLoc loc = tok.loc;
        advance();
        if (!at(TokenKind::LParen)) {
          height_ = 1;
          return make_var(std::move(name), loc);
        }
        return parse_ref_or_call(std::move(name), loc);
      }
      default:
        throw CompileError(tok.loc, "expected expression, found " +
                                        std::string(token_kind_name(tok.kind)));
    }
  }

  /// Parses `name( ... )`. Produces an ArrayRef when any argument position
  /// uses section syntax; otherwise a Call node that sema re-classifies as
  /// an array element reference or intrinsic call.
  ExprPtr parse_ref_or_call(std::string name, SourceLoc loc) {
    expect(TokenKind::LParen);
    std::vector<Subscript> subs;
    bool has_section = false;
    int tallest = 0;
    while (true) {
      Subscript sub = parse_subscript(tallest);
      has_section = has_section || sub.kind != Subscript::Kind::Scalar;
      subs.push_back(std::move(sub));
      if (at(TokenKind::Comma)) {
        advance();
        continue;
      }
      break;
    }
    expect(TokenKind::RParen);

    auto e = std::make_unique<Expr>();
    e->loc = loc;
    e->name = std::move(name);
    if (has_section) {
      e->kind = ExprKind::ArrayRef;
      e->subs = std::move(subs);
    } else {
      e->kind = ExprKind::Call;
      e->args.reserve(subs.size());
      for (auto& s : subs) e->args.push_back(std::move(s.scalar));
    }
    grow(tallest, loc);
    return e;
  }

  /// Parses one subscript, raising `tallest` to the height of each
  /// expression in it.
  Subscript parse_subscript(int& tallest) {
    Subscript sub;
    // leading ':' — no lower bound
    if (at(TokenKind::Colon)) {
      advance();
      if (at(TokenKind::Comma) || at(TokenKind::RParen)) {
        sub.kind = Subscript::Kind::All;
        return sub;
      }
      sub.kind = Subscript::Kind::Triplet;
      sub.hi = parse_expr();
      tallest = std::max(tallest, height_);
      if (at(TokenKind::Colon)) {
        advance();
        sub.stride = parse_expr();
        tallest = std::max(tallest, height_);
      }
      return sub;
    }
    ExprPtr first = parse_expr();
    tallest = std::max(tallest, height_);
    if (!at(TokenKind::Colon)) {
      sub.kind = Subscript::Kind::Scalar;
      sub.scalar = std::move(first);
      return sub;
    }
    advance();  // ':'
    sub.kind = Subscript::Kind::Triplet;
    sub.lo = std::move(first);
    if (!at(TokenKind::Comma) && !at(TokenKind::RParen) && !at(TokenKind::Colon)) {
      sub.hi = parse_expr();
      tallest = std::max(tallest, height_);
    }
    if (at(TokenKind::Colon)) {
      advance();
      sub.stride = parse_expr();
      tallest = std::max(tallest, height_);
    }
    return sub;
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int depth_ = 0;   // current expression nesting (see kMaxExprDepth)
  int stmt_depth_ = 0;  // current statement nesting (see kMaxStmtDepth)
  int height_ = 0;  // height of the expression parse_* last returned
};

}  // namespace

Program parse_program(std::string_view source) {
  LexResult lexed = lex_source(source);
  Parser parser(std::move(lexed.tokens));
  return parser.parse_program_unit(std::move(lexed.directives));
}

ExprPtr parse_expression_text(std::string_view text) {
  std::vector<Token> tokens = lex_line(text, SourceLoc{1, 1});
  Parser parser(std::move(tokens));
  return parser.parse_single_expression();
}

}  // namespace hpf90d::front
