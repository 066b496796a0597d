#include "hpf/intrinsics.hpp"

#include <algorithm>
#include <cmath>

namespace hpf90d::front {

std::optional<IntrinsicId> find_intrinsic(std::string_view name) {
  for (std::size_t i = 0; i < kIntrinsicCount; ++i) {
    if (kIntrinsics[i].name == name) return static_cast<IntrinsicId>(i);
  }
  return std::nullopt;
}

std::optional<double> apply_intrinsic(IntrinsicId id, std::span<const double> args,
                                      bool int_args) {
  using enum IntrinsicId;
  switch (id) {
    case Atan: return std::atan(args[0]);
    case Cos: return std::cos(args[0]);
    case Exp: return std::exp(args[0]);
    case Log: return std::log(args[0]);
    case Mod:
      if (int_args) return int_divide(args[0], args[1], /*remainder=*/true);
      return std::fmod(args[0], args[1]);
    case Sin: return std::sin(args[0]);
    case Sqrt: return std::sqrt(args[0]);
    case Abs: return std::fabs(args[0]);
    case Min:
    case Max: {
      double v = args[0];
      for (const double a : args.subspan(1)) v = id == Min ? std::min(v, a) : std::max(v, a);
      return v;
    }
    case Sign: return args[1] >= 0 ? std::fabs(args[0]) : -std::fabs(args[0]);
    case Merge: return args[2] != 0.0 ? args[0] : args[1];
    case Real:
    case Float:
    case Dble: return args[0];
    case Int: return std::trunc(args[0]);
    case Nint: return std::round(args[0]);  // half away from zero, as Fortran
    case Sum: case Product: case Maxval: case Minval: case Maxloc:
    case Cshift: case Tshift: case Size:
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace hpf90d::front
