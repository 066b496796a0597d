// pipeline.hpp — the compilation phase of the framework (paper §4.1):
// parse -> directive processing -> semantic analysis -> normalization
// (array assignment / where -> forall) -> partitioning + communication
// detection + SPMD generation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "compiler/mapping.hpp"
#include "compiler/spmd_ir.hpp"

namespace hpf90d::compiler {

/// Compiles HPF/Fortran 90D source text into the loosely synchronous SPMD
/// node program. Throws support::CompileError on any front-end or lowering
/// failure.
[[nodiscard]] CompiledProgram compile(std::string_view source,
                                      const CompilerOptions& options = {});

/// Compiles with DISTRIBUTE/PROCESSORS directive lines replaced by
/// `directive_overrides` (the framework's "select directives from the
/// interface" workflow, §5.2.1). Each override is a full directive payload,
/// e.g. "distribute t(block,*)". Directives of kinds present in the
/// overrides are dropped from the source before the overrides are added.
[[nodiscard]] CompiledProgram compile_with_directives(
    std::string_view source, const std::vector<std::string>& directive_overrides,
    const CompilerOptions& options = {});

/// Builds the DataLayout for one configuration (problem bindings + machine
/// size + optional grid shape), replaying the compiler's shift-temporary
/// aliases so temps map like their source arrays.
[[nodiscard]] DataLayout make_layout(const CompiledProgram& prog,
                                     const front::Bindings& bindings,
                                     const LayoutOptions& options);

/// Serializes the layout-relevant program structure: the directive set,
/// every symbol's kind/type/extent expressions, and the shift-temporary
/// aliases. compile() stores the result in
/// CompiledProgram::structure_fingerprint so per-lookup fingerprints are
/// cheap.
[[nodiscard]] std::string structure_fingerprint(const CompiledProgram& prog);

/// Structural fingerprint of everything `make_layout` consumes: the
/// program structure (see structure_fingerprint) plus the bindings and the
/// layout options, built into a caller-owned buffer (cleared first). Two
/// programs with equal fingerprints produce interchangeable layouts, even
/// when compiled separately, so externally owned programs share the
/// session's layout-cache entries with session-owned ones. The string is
/// what the spill tier files a layout under (api::OnceStore); lookups use
/// its digest.
void layout_fingerprint_into(std::string& out, const CompiledProgram& prog,
                             const front::Bindings& bindings,
                             const LayoutOptions& options);

/// A layout fingerprint's LayoutDigest (spmd_ir.hpp) is two independent
/// FNV-1a style streams over the exact byte sequence layout_fingerprint_into
/// writes, so for all inputs
///   layout_fingerprint_digest(p, b, o)
///     == layout_fingerprint_finish(layout_fingerprint_prefix(p, b), o)
///     == layout_digest_of(the string layout_fingerprint_into(s, p, b, o) writes)
/// and every entry point addresses the same cache entry: Session::run's
/// prefix-and-finish keys, Session::predict's whole digest and the spill
/// tier's string. At 128 bits over machine-generated (non-adversarial)
/// keys, a collision is beyond-astronomical, which is what lets the layout
/// store index on the digest alone.
///
/// Streams the fingerprint bytes straight into a LayoutDigest — no string
/// is materialized. This is the per-point layout lookup of a warm sweep:
/// hashing ~tens of bytes replaces building, re-hashing, and comparing a
/// key string on every probe.
[[nodiscard]] LayoutDigest layout_fingerprint_digest(const CompiledProgram& prog,
                                                     const front::Bindings& bindings,
                                                     const LayoutOptions& options);

/// Digest of an already-built fingerprint string (the slow-path/string API
/// of the layout store funnels through this).
[[nodiscard]] LayoutDigest layout_digest_of(std::string_view fingerprint);

/// Captured mid-stream digest state after the (program, bindings) prefix of
/// the fingerprint byte sequence — everything except the layout options.
/// A sweep chunk holds (program, bindings) fixed across its nprocs axis, so
/// the prefix is hashed once per problem and finished per point instead of
/// re-hashing the whole binding set for every sweep point.
struct LayoutDigestState {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Digest state of the fingerprint's (program, bindings) prefix.
[[nodiscard]] LayoutDigestState layout_fingerprint_prefix(
    const CompiledProgram& prog, const front::Bindings& bindings);

/// Completes a prefix state with the layout options (the identity above).
[[nodiscard]] LayoutDigest layout_fingerprint_finish(const LayoutDigestState& state,
                                                     const LayoutOptions& options);

/// Digest of exactly what the simulator's functional pass
/// (sim::Executor::record) reads of `prog`, walking the SPMD tree in record
/// order: each node's kind and the functional fields it reads, the content
/// of its cost-program expressions (ops, registers, pool values, arrays by
/// symbol and rank, source locations and texts), and the symbol table.
/// Node ids, the mapping directives and the nodes that record nothing
/// (OverlapComm, SliceBroadcast) are left out, so directive variants of
/// one program share a digest. compile() stores it in
/// CompiledProgram::value_digest.
[[nodiscard]] LayoutDigest value_digest(const CompiledProgram& prog);

/// The key of a recorded sim::ValueTape: the program's value digest, the
/// bindings and the WHILE trip limit (which decides whether the pass
/// throws) — everything the tape depends on. Noise, contention, the
/// collective, the layout and the machine only move clocks.
[[nodiscard]] LayoutDigest value_tape_key(const CompiledProgram& prog,
                                          const front::Bindings& bindings,
                                          long long max_while_trips);

}  // namespace hpf90d::compiler
