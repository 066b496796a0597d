#include "sim/values.hpp"

#include <algorithm>
#include <cmath>

#include "support/diagnostics.hpp"

namespace hpf90d::sim {

using support::CompileError;

void Storage::rebind(const front::SymbolTable& symbols,
                     const compiler::DataLayout& layout) {
  symbols_ = &symbols;
  layout_ = &layout;
  arrays_.resize(symbols.size());
  for (auto& store : arrays_) {
    // Invalidate without releasing: shape() re-derives extents/strides and
    // ensure() overwrites every element, so the buffers' capacity is reused.
    store.shaped = false;
    store.allocated = false;
  }
}

Storage::ArrayStore& Storage::shape(int symbol) {
  auto& store = arrays_.at(static_cast<std::size_t>(symbol));
  if (store.shaped) return store;
  store.extents = layout_->array_extents(symbol);
  store.extents_d.assign(store.extents.begin(), store.extents.end());
  store.strides_d.assign(store.extents.size(), 1.0);
  for (std::size_t d = store.extents.size(); d-- > 1;) {
    store.strides_d[d - 1] = store.strides_d[d] * store.extents_d[d];
  }
  store.shaped = true;
  return store;
}

Storage::ArrayStore& Storage::ensure(int symbol) {
  auto& store = arrays_.at(static_cast<std::size_t>(symbol));
  if (store.allocated) return store;
  shape(symbol);
  long long total = 1;
  for (long long e : store.extents) total *= e;
  // Deterministic near-unity fill for data the program never initializes
  // (benchmark kernels read "existing" operand arrays). Values stay in
  // [0.9, 1.1] so divisions, products, and exponentials remain tame.
  // Element i's value depends on i % 257 only: the first period is
  // computed, the rest copies it.
  constexpr std::size_t kPeriod = 257;
  store.data.resize(static_cast<std::size_t>(total));
  const double phase = static_cast<double>(symbol) * 0.7311;
  const std::size_t n = store.data.size();
  for (std::size_t i = 0; i < std::min(n, kPeriod); ++i) {
    store.data[i] = 1.0 + 0.1 * std::sin(phase + 0.217 * static_cast<double>(i));
  }
  for (std::size_t i = kPeriod; i < n; i += kPeriod) {
    std::copy_n(store.data.begin(), std::min(kPeriod, n - i),
                store.data.begin() + static_cast<std::ptrdiff_t>(i));
  }
  store.allocated = true;
  return store;
}

compiler::ArrayView Storage::view(int symbol) {
  if (layout_->resolved_extents(symbol) == nullptr) return {};
  ArrayStore& store = ensure(symbol);
  return {store.data.empty() ? nullptr : store.data.data(), store.extents_d.data(),
          store.strides_d.data()};
}

std::span<double> Storage::raw(int symbol) { return ensure(symbol).data; }

const std::vector<long long>& Storage::extents(int symbol) { return shape(symbol).extents; }

long long Storage::total_elements(int symbol) {
  const ArrayStore& store = shape(symbol);
  long long total = 1;
  for (long long e : store.extents) total *= e;
  return total;
}

void Storage::cshift_into(int dst_symbol, int src_symbol, int dim, long long shift) {
  ArrayStore& src = ensure(src_symbol);
  ArrayStore& dst = ensure(dst_symbol);
  if (dst.extents != src.extents) {
    throw CompileError({}, "cshift shape mismatch");
  }
  // dst(..., i, ...) = src(..., 1 + mod(i - 1 + shift, n), ...): per run of
  // `inner` contiguous elements below `dim`, a rotation of its n rows
  const long long n = src.extents.at(static_cast<std::size_t>(dim));
  if (src.data.empty()) return;
  const auto inner = static_cast<long long>(src.strides_d[static_cast<std::size_t>(dim)]);
  const long long block = n * inner;
  const long long s = ((shift % n) + n) % n;
  for (std::size_t base = 0; base < src.data.size(); base += static_cast<std::size_t>(block)) {
    for (long long i = 0; i < n; ++i) {
      const auto to = base + static_cast<std::size_t>(i * inner);
      const auto from = base + static_cast<std::size_t>(((i + s) % n) * inner);
      std::copy_n(src.data.begin() + static_cast<std::ptrdiff_t>(from), inner,
                  dst.data.begin() + static_cast<std::ptrdiff_t>(to));
    }
  }
}

}  // namespace hpf90d::sim
