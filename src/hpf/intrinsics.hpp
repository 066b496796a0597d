// intrinsics.hpp — the one registry of Fortran 90 / HPF intrinsics supported
// by the subset. The paper's framework parameterizes the "HPF parallel
// intrinsic library" (cshift, tshift, sum, product, maxloc, ...) via
// benchmarking runs; this registry is the single definition every layer
// reads. Sema resolves each call's name to an IntrinsicId once
// (Expr::intrinsic); folding, evaluation, the cost bytecode, op counting and
// the per-machine prices (machine/sau.hpp) all work from that id.
//
// Adding an intrinsic is one HPF90D_INTRINSICS row. Every consumer switches
// over IntrinsicId without a default, so the compiler then names each place
// that must give the new row a meaning.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string_view>

namespace hpf90d::front {

enum class IntrinsicKind {
  Elemental,   // exp, sqrt, abs, ... applied element-wise; rank preserved
  Reduction,   // sum, product, maxval, minval; full or dim reduction
  Location,    // maxloc — index of extremum (rank-1 arrays)
  Shift,       // cshift, tshift — nearest-neighbour comm
  Inquiry,     // size — resolved at interpretation time, no runtime cost
};

/// How the result type derives from the argument types.
enum class ResultTyping { SameAsArg, ForceReal, ForceDouble, ForceInteger };

/// How one call is charged by the op counter (compiler/opcount.hpp).
enum class CostClass {
  Library,  // runtime-library call priced per machine; latency depth +8
  Convert,  // type conversion: one integer op; depth +1
  Cheap,    // abs/min/max/...: one floating add; depth +1
  Lowered,  // reductions and shifts: lowered to SPMD nodes before pricing
  Inquiry,  // size: resolved at interpretation time
};

// X(id, name, kind, min_args, max_args, typing, cost class)
//
// Library rows come first and in alphabetical order: pricing walks ids
// [0, kLibraryIntrinsics) in order, so every per-node sum adds its terms in
// one fixed order, the one the golden reports were produced with.
#define HPF90D_INTRINSICS(X)                                        \
  X(Atan, "atan", Elemental, 1, 1, SameAsArg, Library)              \
  X(Cos, "cos", Elemental, 1, 1, SameAsArg, Library)                \
  X(Exp, "exp", Elemental, 1, 1, SameAsArg, Library)                \
  X(Log, "log", Elemental, 1, 1, SameAsArg, Library)                \
  X(Mod, "mod", Elemental, 2, 2, SameAsArg, Library)                \
  X(Sin, "sin", Elemental, 1, 1, SameAsArg, Library)                \
  X(Sqrt, "sqrt", Elemental, 1, 1, SameAsArg, Library)              \
  X(Abs, "abs", Elemental, 1, 1, SameAsArg, Cheap)                  \
  X(Min, "min", Elemental, 2, 8, SameAsArg, Cheap)                  \
  X(Max, "max", Elemental, 2, 8, SameAsArg, Cheap)                  \
  X(Sign, "sign", Elemental, 2, 2, SameAsArg, Cheap)                \
  X(Merge, "merge", Elemental, 3, 3, SameAsArg, Cheap)              \
  X(Real, "real", Elemental, 1, 1, ForceReal, Convert)              \
  X(Float, "float", Elemental, 1, 1, ForceReal, Convert)            \
  X(Dble, "dble", Elemental, 1, 1, ForceDouble, Convert)            \
  X(Int, "int", Elemental, 1, 1, ForceInteger, Convert)             \
  X(Nint, "nint", Elemental, 1, 1, ForceInteger, Convert)           \
  X(Sum, "sum", Reduction, 1, 2, SameAsArg, Lowered)                \
  X(Product, "product", Reduction, 1, 2, SameAsArg, Lowered)        \
  X(Maxval, "maxval", Reduction, 1, 2, SameAsArg, Lowered)          \
  X(Minval, "minval", Reduction, 1, 2, SameAsArg, Lowered)          \
  X(Maxloc, "maxloc", Location, 1, 1, ForceInteger, Lowered)        \
  /* tshift is the NPAC shift-to-temporary variant of cshift */     \
  X(Cshift, "cshift", Shift, 2, 3, SameAsArg, Lowered)              \
  X(Tshift, "tshift", Shift, 2, 3, SameAsArg, Lowered)              \
  X(Size, "size", Inquiry, 1, 2, ForceInteger, Inquiry)

enum class IntrinsicId : std::uint8_t {
#define HPF90D_INTRINSIC_ID(id, ...) id,
  HPF90D_INTRINSICS(HPF90D_INTRINSIC_ID)
#undef HPF90D_INTRINSIC_ID
};

struct IntrinsicInfo {
  std::string_view name;
  IntrinsicKind kind;
  int min_args;
  int max_args;
  ResultTyping typing;
  CostClass cost;
};

inline constexpr std::array kIntrinsics = {
#define HPF90D_INTRINSIC_INFO(id, name, kind, lo, hi, typing, cost)                \
  IntrinsicInfo{name, IntrinsicKind::kind, lo, hi, ResultTyping::typing, CostClass::cost},
    HPF90D_INTRINSICS(HPF90D_INTRINSIC_INFO)
#undef HPF90D_INTRINSIC_INFO
};

inline constexpr std::size_t kIntrinsicCount = kIntrinsics.size();

constexpr bool is_library(const IntrinsicInfo& info) noexcept {
  return info.cost == CostClass::Library;
}

/// Number of Library rows: ids [0, kLibraryIntrinsics) are the ones a
/// machine prices.
inline constexpr std::size_t kLibraryIntrinsics =
    static_cast<std::size_t>(std::ranges::count_if(kIntrinsics, is_library));
static_assert(std::ranges::is_partitioned(kIntrinsics, is_library) &&
                  std::ranges::is_sorted(kIntrinsics.begin(),
                                         kIntrinsics.begin() + kLibraryIntrinsics, {},
                                         &IntrinsicInfo::name),
              "library rows must lead the registry, in alphabetical order");

[[nodiscard]] constexpr const IntrinsicInfo& intrinsic_info(IntrinsicId id) noexcept {
  return kIntrinsics[static_cast<std::size_t>(id)];
}

/// Looks up an intrinsic by (lower-case) name; nullopt if `name` is not an
/// intrinsic of the subset. Only sema (which records the id on the call)
/// and fold (which runs on PARAMETER expressions before sema) look names up.
[[nodiscard]] std::optional<IntrinsicId> find_intrinsic(std::string_view name);

/// Fortran integer `/` (truncating) and `mod` on integer values carried as
/// doubles. nullopt exactly where the machine instruction would trap or the
/// conversion is undefined: a zero divisor, an operand outside long long,
/// or LLONG_MIN / -1.
[[nodiscard]] inline std::optional<double> int_divide(double a, double b,
                                                      bool remainder) noexcept {
  constexpr double kLimit = 9223372036854775808.0;  // 2^63
  if (!(a >= -kLimit && a < kLimit && b >= -kLimit && b < kLimit)) return std::nullopt;
  const auto ai = static_cast<long long>(a);
  const auto bi = static_cast<long long>(b);
  if (bi == 0 || (bi == -1 && ai == std::numeric_limits<long long>::min())) {
    return std::nullopt;
  }
  return static_cast<double>(remainder ? ai % bi : ai / bi);
}

/// Scalar semantics of an elemental intrinsic over already-evaluated
/// arguments. `int_args` selects integer `mod`. nullopt for a failed
/// integer `mod` and for every non-elemental row (those are lowered to
/// dedicated SPMD nodes, or resolved from extents, before evaluation).
[[nodiscard]] std::optional<double> apply_intrinsic(IntrinsicId id,
                                                    std::span<const double> args,
                                                    bool int_args);

}  // namespace hpf90d::front
