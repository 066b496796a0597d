#include "compiler/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "compiler/cost_program.hpp"
#include "compiler/lower.hpp"
#include "compiler/normalize.hpp"
#include "hpf/directives.hpp"
#include "hpf/parser.hpp"
#include "hpf/sema.hpp"
#include "support/text.hpp"

namespace hpf90d::compiler {

namespace {

/// Monotonic CompiledProgram::compile_id source (0 is reserved for
/// hand-built programs).
std::uint64_t next_compile_id() {
  static std::atomic<std::uint64_t> next{0};
  return ++next;
}

/// The compact structure key appended to every layout fingerprint: fnv1a64
/// of the structure text plus its length (a collision needs same-length
/// structures — the same posture as the session's program key).
std::string digest_of(const std::string& sf) {
  return support::strfmt("%016llx:%zu",
                         static_cast<unsigned long long>(support::fnv1a64(sf)),
                         sf.size());
}

}  // namespace

CompiledProgram compile(std::string_view source, const CompilerOptions& options) {
  front::Program ast = front::parse_program(source);
  front::SymbolTable symbols = front::analyze(ast);
  front::DirectiveSet directives = front::parse_directives(ast.raw_directives);
  normalize(ast, symbols);
  std::string name = ast.name;
  CompiledProgram prog = lower_program(std::move(name), std::move(ast),
                                       std::move(symbols), std::move(directives), options);
  prog.structure_fingerprint = structure_fingerprint(prog);
  prog.structure_digest = digest_of(prog.structure_fingerprint);
  prog.value_digest = value_digest(prog);
  prog.compile_id = next_compile_id();
  return prog;
}

CompiledProgram compile_with_directives(std::string_view source,
                                        const std::vector<std::string>& directive_overrides,
                                        const CompilerOptions& options) {
  front::Program ast = front::parse_program(source);
  front::SymbolTable symbols = front::analyze(ast);

  // Which directive kinds do the overrides provide?
  auto kind_of = [](std::string_view text) -> std::string {
    const std::string_view t = support::trim(text);
    const std::size_t sp = t.find_first_of(" \t(");
    return support::to_lower(t.substr(0, sp));
  };
  std::vector<std::string> override_kinds;
  for (const auto& o : directive_overrides) override_kinds.push_back(kind_of(o));

  std::vector<front::RawDirective> merged;
  for (const auto& raw : ast.raw_directives) {
    const std::string k = kind_of(raw.text);
    bool replaced = false;
    for (const auto& ok : override_kinds) {
      if (k == ok) {
        replaced = true;
        break;
      }
    }
    if (!replaced) merged.push_back(front::RawDirective{raw.loc, raw.text});
  }
  for (const auto& o : directive_overrides) {
    merged.push_back(front::RawDirective{{}, " " + o});
  }
  ast.raw_directives.clear();
  for (const auto& m : merged) ast.raw_directives.push_back(m);

  front::DirectiveSet directives = front::parse_directives(ast.raw_directives);
  normalize(ast, symbols);
  std::string name = ast.name;
  CompiledProgram prog = lower_program(std::move(name), std::move(ast),
                                       std::move(symbols), std::move(directives), options);
  prog.structure_fingerprint = structure_fingerprint(prog);
  prog.structure_digest = digest_of(prog.structure_fingerprint);
  prog.value_digest = value_digest(prog);
  prog.compile_id = next_compile_id();
  return prog;
}

DataLayout make_layout(const CompiledProgram& prog, const front::Bindings& bindings,
                       const LayoutOptions& options) {
  DataLayout layout(prog.directives, prog.symbols, bindings, options);
  for (const auto& [temp, like] : prog.temp_aliases) {
    layout.add_alias(temp, like, prog.symbols.at(temp).name);
  }
  return layout;
}

namespace {

/// Serializes one expression for the fingerprint. Expr::str() renders
/// round-trippable Fortran-ish text, which captures the structure (names,
/// operators, literals) that extent resolution depends on.
void fp_expr(std::string& out, const front::ExprPtr& e) {
  out += e ? e->str() : std::string("~");
  out += '\x1e';
}

}  // namespace

std::string structure_fingerprint(const CompiledProgram& prog) {
  std::string fp;
  fp.reserve(512);

  // directives
  for (const auto& p : prog.directives.processors) {
    fp += "proc:" + p.name + '\x1f';
    for (const auto& e : p.extents) fp_expr(fp, e);
  }
  for (const auto& t : prog.directives.templates) {
    fp += "tmpl:" + t.name + '\x1f';
    for (const auto& e : t.extents) fp_expr(fp, e);
  }
  for (const auto& a : prog.directives.aligns) {
    fp += "align:" + a.array + '\x1f' + a.target + '\x1f';
    for (const auto& d : a.dummies) fp += d + ",";
    for (const auto& s : a.target_subs) {
      fp += support::strfmt("(%d%+lld%d)", s.dummy, s.offset, s.star ? 1 : 0);
    }
    fp += '\x1e';
  }
  for (const auto& d : prog.directives.distributes) {
    fp += "dist:" + d.target + '\x1f' + d.onto + '\x1f';
    for (const auto k : d.pattern) fp += front::dist_kind_name(k);
    fp += '\x1e';
  }
  fp += '\x1d';

  // symbols: ids are positional, so the table is serialized in order.
  // Kind, type, and extent expressions cover everything the layout snapshot
  // resolves; PARAMETER defining expressions cover the extent environment.
  for (const auto& sym : prog.symbols.symbols()) {
    fp += sym.name;
    fp += support::strfmt(":%d:%d:", static_cast<int>(sym.kind),
                          static_cast<int>(sym.type));
    for (const auto& d : sym.dims) fp_expr(fp, d);
    if (sym.param_value) fp_expr(fp, sym.param_value);
    fp += '\x1e';
  }
  fp += '\x1d';

  // shift-temporary aliases replayed by make_layout
  for (const auto& [temp, like] : prog.temp_aliases) {
    fp += support::strfmt("%d~%d;", temp, like);
  }
  return fp;
}

namespace {
/// Sink feeding fingerprint bytes into a caller-owned string.
struct StringSink {
  std::string& out;
  void put(char c) { out += c; }
  void put(const char* p, std::size_t n) { out.append(p, n); }
};

/// Sink feeding the same bytes into two FNV-1a style streams (different
/// offset basis and multiplier), never materializing them.
struct DigestSink {
  std::uint64_t a = 14695981039346656037ULL;  // FNV-1a 64 offset basis
  std::uint64_t b = 14695981039346656037ULL ^ 0x9e3779b97f4a7c15ULL;
  void put(char c) {
    const auto x = static_cast<unsigned char>(c);
    a = (a ^ x) * 1099511628211ULL;        // FNV-1a 64 prime
    b = (b ^ x) * 0x9e3779b97f4a7c15ULL;   // odd golden-ratio multiplier
  }
  void put(const char* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) put(p[i]);
  }
};

/// Feeds a decimal integer without the std::to_string temporary (the
/// layout key is built once per sweep point; the hot path reuses one
/// caller-owned buffer — or no buffer at all, for the digest sink).
template <class Sink>
void feed_int(Sink& out, long long v) {
  char buf[24];
  char* p = buf + sizeof buf;
  const bool neg = v < 0;
  unsigned long long u = neg ? 0ULL - static_cast<unsigned long long>(v)
                             : static_cast<unsigned long long>(v);
  do {
    *--p = static_cast<char>('0' + (u % 10));
    u /= 10;
  } while (u != 0);
  if (neg) *--p = '-';
  out.put(p, static_cast<std::size_t>(buf + sizeof buf - p));
}

/// The bindings (map iteration is name-sorted, so the order is canonical);
/// values render as their raw IEEE bit pattern in fixed-width hex — exact
/// without a decimal round-trip, and far cheaper than %.17g on what is the
/// layout-key hot path of every sweep point.
template <class Sink>
void feed_bindings(Sink& fp, const front::Bindings& bindings) {
  for (const auto& [name, value] : bindings.values()) {
    fp.put(name.data(), name.size());
    fp.put('=');
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    char hex[16];
    for (int i = 15; i >= 0; --i) {
      hex[i] = "0123456789abcdef"[bits & 0xF];
      bits >>= 4;
    }
    fp.put(hex, sizeof hex);
    fp.put('\x1e');
  }
  fp.put('\x1d');
}

/// The (program, bindings) prefix of the fingerprint byte sequence. The
/// prefix deliberately comes BEFORE the layout options so a sweep can
/// capture the digest state once per problem (layout_fingerprint_prefix)
/// and finish it per nprocs point — the fingerprint format is internal
/// (spill addresses re-key on a format change and degrade to misses).
template <class Sink>
void feed_layout_prefix(Sink& fp, const CompiledProgram& prog,
                        const front::Bindings& bindings) {
  feed_bindings(fp, bindings);

  // program structure, compacted to a 64-bit digest plus length (the
  // program key's collision posture: a collision needs same-length
  // structures) — embedding the full structure text would make every
  // layout lookup hash and compare hundreds of bytes per sweep point. The
  // digest string is precomputed by the pipeline; only hand-built programs
  // that never went through compile() pay for it here.
  if (!prog.structure_digest.empty()) {
    fp.put(prog.structure_digest.data(), prog.structure_digest.size());
  } else if (!prog.structure_fingerprint.empty()) {
    const std::string d = digest_of(prog.structure_fingerprint);
    fp.put(d.data(), d.size());
  } else {
    const std::string d = digest_of(structure_fingerprint(prog));
    fp.put(d.data(), d.size());
  }
}

/// The layout-options suffix of the fingerprint byte sequence.
template <class Sink>
void feed_layout_options(Sink& fp, const LayoutOptions& options) {
  fp.put("\x1dP=", 3);
  feed_int(fp, options.nprocs);
  if (options.grid_shape) {
    fp.put(":g", 2);
    for (int s : *options.grid_shape) {
      feed_int(fp, s);
      fp.put('x');
    }
  }
}

/// The one definition of the fingerprint byte sequence: both the string
/// key and its streaming digest are produced from this template, which is
/// what guarantees layout_fingerprint_digest == layout_digest_of(the
/// layout_fingerprint_into string) byte for byte.
template <class Sink>
void feed_fingerprint(Sink& fp, const CompiledProgram& prog,
                      const front::Bindings& bindings, const LayoutOptions& options) {
  feed_layout_prefix(fp, prog, bindings);
  feed_layout_options(fp, options);
}
}  // namespace

void layout_fingerprint_into(std::string& fp, const CompiledProgram& prog,
                             const front::Bindings& bindings,
                             const LayoutOptions& options) {
  fp.clear();
  if (fp.capacity() < 128) fp.reserve(prog.structure_fingerprint.size() + 128);
  StringSink sink{fp};
  feed_fingerprint(sink, prog, bindings, options);
}

LayoutDigest layout_fingerprint_digest(const CompiledProgram& prog,
                                       const front::Bindings& bindings,
                                       const LayoutOptions& options) {
  DigestSink sink;
  feed_fingerprint(sink, prog, bindings, options);
  return LayoutDigest{sink.a, sink.b};
}

LayoutDigest layout_digest_of(std::string_view fingerprint) {
  DigestSink sink;
  sink.put(fingerprint.data(), fingerprint.size());
  return LayoutDigest{sink.a, sink.b};
}

LayoutDigestState layout_fingerprint_prefix(const CompiledProgram& prog,
                                            const front::Bindings& bindings) {
  DigestSink sink;
  feed_layout_prefix(sink, prog, bindings);
  return LayoutDigestState{sink.a, sink.b};
}

LayoutDigest layout_fingerprint_finish(const LayoutDigestState& state,
                                       const LayoutOptions& options) {
  DigestSink sink;
  sink.a = state.a;
  sink.b = state.b;
  feed_layout_options(sink, options);
  return LayoutDigest{sink.a, sink.b};
}

namespace {

/// Computes compiler::value_digest by folding in what sim::Executor::record
/// reads, in record order. Keep it in step with the functional pass — a
/// field the pass starts reading belongs here too.
class ValueDigestWalk {
 public:
  explicit ValueDigestWalk(const CompiledProgram& prog)
      : prog_(prog), cp_(*prog.cost_program) {}

  LayoutDigest run() {
    // ids are positional, so the table goes in order: names and kinds
    // decide the reported scalars, PARAMETER expressions the seeded values,
    // extent expressions the storage shapes, ids the default fill
    for (const auto& sym : prog_.symbols.symbols()) {
      text(sym.name);
      word(static_cast<int>(sym.kind));
      word(static_cast<int>(sym.type));
      word(static_cast<std::uint64_t>(sym.dims.size()));
      for (const auto& d : sym.dims) text(d->str());
      word(sym.param_value ? 1 : 0);
      if (sym.param_value) text(sym.param_value->str());
    }
    seq(prog_.root->children);
    return {a_, b_};
  }

 private:
  /// Folds one word into both streams. Each step (xor, odd multiply,
  /// xorshift) is a bijection of the state, so sequences that differ in one
  /// word never meet at that word; a word at a time keeps the walk a small
  /// fraction of a compilation.
  void word(std::uint64_t v) {
    a_ = (a_ ^ v) * 0xff51afd7ed558ccdULL;
    a_ ^= a_ >> 33;
    b_ = (b_ ^ v) * 0xc4ceb9fe1a85ec53ULL;
    b_ ^= b_ >> 29;
  }
  void word(int v) { word(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void word(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    word(bits);
  }
  void text(std::string_view t) {
    word(static_cast<std::uint64_t>(t.size()));
    for (std::size_t i = 0; i < t.size(); i += sizeof(std::uint64_t)) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, t.data() + i, std::min(sizeof bits, t.size() - i));
      word(bits);
    }
  }
  void array(std::size_t a) {
    word(cp_.arrays[a].symbol);
    word(cp_.arrays[a].rank);
  }

  /// One expression's instructions with their operands by content, and
  /// their sources (a failing lane's diagnostic quotes them).
  void expr(std::int32_t id) {
    if (id < 0) {
      word(-1);
      return;
    }
    const ExprCode& c = cp_.exprs[static_cast<std::size_t>(id)];
    word(static_cast<std::uint64_t>(c.count));
    word(static_cast<int>(c.result));
    for (std::uint32_t k = 0; k < c.arrays_count; ++k) array(cp_.expr_arrays[c.arrays_first + k]);
    for (std::uint32_t i = c.first; i < c.first + c.count; ++i) {
      const CostInstr& in = cp_.code[i];
      word(static_cast<int>(in.op));
      word(static_cast<int>(in.dst));
      switch (in.op) {
        case CostOp::Const: word(cp_.pool[in.a]); break;
        case CostOp::LoadDflt:
          word(static_cast<int>(in.a));  // a symbol slot
          word(cp_.pool[in.b]);
          break;
        case CostOp::ArrayLoad:
        case CostOp::ArrayOffset:
          word(static_cast<int>(in.c));
          if (in.c != 0) {
            // a fused access's subscripts by content, not table position
            for (int d = 0; d < cp_.arrays[in.b].rank; ++d) {
              const AffineSubscript& sub = cp_.subscripts[static_cast<std::size_t>(in.a) + d];
              word(sub.slot);
              word(sub.offset);
              word(static_cast<std::uint64_t>(sub.loc.line));
              word(static_cast<std::uint64_t>(sub.loc.column));
              text(cp_.texts[sub.text]);
            }
          } else {
            word(static_cast<int>(in.a));
          }
          array(in.b);
          break;
        case CostOp::Size:
          word(static_cast<int>(in.a));
          array(in.b);
          break;
        default:  // Load's symbol slot, or operand registers
          word(static_cast<int>(in.a));
          word(static_cast<int>(in.b));
          word(static_cast<int>(in.c));
          break;
      }
      const CostSource& src = cp_.sources[i];
      word(static_cast<std::uint64_t>(src.loc.line));
      word(static_cast<std::uint64_t>(src.loc.column));
      text(cp_.texts[src.text]);
      word(src.probe);
    }
  }

  void space(const SpmdNode& n, const NodeCost& nc) {
    word(static_cast<std::uint64_t>(n.space.size()));
    for (std::size_t d = 0; d < n.space.size(); ++d) {
      word(n.space[d].symbol);
      for (std::size_t k = 0; k < 3; ++k) {
        expr(cp_.space_codes[static_cast<std::size_t>(nc.space_first) + 3 * d + k]);
      }
    }
  }

  void target(const front::Expr& lhs) {
    word(lhs.symbol);
    word(lhs.type == front::TypeBase::Integer ? 1 : 0);
  }

  void seq(const std::vector<SpmdNodePtr>& nodes) {
    word(static_cast<std::uint64_t>(0x5e9));  // nesting marks: the tree's shape
    for (const auto& n : nodes) node(*n);
    word(static_cast<std::uint64_t>(0x5e9e));
  }

  void node(const SpmdNode& n) {
    // priced from the configuration alone: the pass records nothing
    if (n.kind == SpmdKind::OverlapComm || n.kind == SpmdKind::SliceBroadcast) return;
    const NodeCost& nc = cp_.nodes.at(static_cast<std::size_t>(n.id));
    word(static_cast<int>(n.kind));
    switch (n.kind) {
      case SpmdKind::Seq: seq(n.children); break;
      case SpmdKind::ScalarAssign:
        expr(nc.rhs);
        target(*n.lhs);
        break;
      case SpmdKind::LocalLoop:
        space(n, nc);
        expr(n.mask ? nc.cond : -1);
        if (n.inner) {
          word(static_cast<int>(n.inner->op));
          word(n.inner->index.symbol);
          expr(nc.inner_lo);
          expr(nc.inner_hi);
          expr(nc.arg);
        } else {
          expr(nc.rhs);
        }
        expr(nc.lhs);
        target(*n.lhs);
        break;
      case SpmdKind::Reduce:
        space(n, nc);
        word(static_cast<int>(n.reduce_op));
        expr(nc.arg);
        word(n.reduce_result);
        break;
      case SpmdKind::CShiftComm:
        expr(nc.comm_amount);
        word(n.comm_temp);
        word(n.comm_array);
        word(n.comm_dim);
        break;
      case SpmdKind::GatherComm:
      case SpmdKind::ScatterComm: space(n, nc); break;
      case SpmdKind::DoLoop:
        expr(nc.do_lo);
        expr(nc.do_hi);
        expr(n.do_step ? nc.do_step : -1);
        word(n.do_symbol);
        word(static_cast<std::uint64_t>(n.loc.line));
        word(static_cast<std::uint64_t>(n.loc.column));
        seq(n.children);
        break;
      case SpmdKind::WhileLoop:
        expr(nc.cond);
        word(static_cast<std::uint64_t>(n.loc.line));
        word(static_cast<std::uint64_t>(n.loc.column));
        seq(n.children);
        break;
      case SpmdKind::IfBlock:
        expr(nc.cond);
        seq(n.children);
        seq(n.else_children);
        break;
      case SpmdKind::HostIO:
        for (std::size_t i = 0; i < n.io_args.size(); ++i) {
          const front::Expr& arg = *n.io_args[i];
          word(arg.rank);
          if (arg.rank == 0) {
            text(arg.str());
            expr(nc.io_first + static_cast<std::int32_t>(i));
          }
        }
        break;
      case SpmdKind::OverlapComm:
      case SpmdKind::SliceBroadcast: break;
    }
  }

  const CompiledProgram& prog_;
  const CostProgram& cp_;
  std::uint64_t a_ = 14695981039346656037ULL;
  std::uint64_t b_ = 14695981039346656037ULL ^ 0x9e3779b97f4a7c15ULL;
};

}  // namespace

LayoutDigest value_digest(const CompiledProgram& prog) {
  return ValueDigestWalk(prog).run();
}

LayoutDigest value_tape_key(const CompiledProgram& prog, const front::Bindings& bindings,
                            long long max_while_trips) {
  DigestSink sink;
  sink.put(reinterpret_cast<const char*>(&prog.value_digest), sizeof prog.value_digest);
  feed_bindings(sink, bindings);
  feed_int(sink, max_while_trips);
  return {sink.a, sink.b};
}

}  // namespace hpf90d::compiler
