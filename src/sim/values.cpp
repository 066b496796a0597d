#include "sim/values.hpp"

#include <cmath>

#include "support/diagnostics.hpp"

namespace hpf90d::sim {

using support::CompileError;

Storage::Storage(const front::SymbolTable& symbols, const compiler::DataLayout& layout) {
  rebind(symbols, layout);
}

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
  store.strides.assign(store.extents.size(), 1);
  long long total = 1;
  for (std::size_t d = store.extents.size(); d-- > 0;) {
    store.strides[d] = total;
    total *= store.extents[d];
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
  store.data.resize(static_cast<std::size_t>(total));
  const double phase = static_cast<double>(symbol) * 0.7311;
  for (std::size_t i = 0; i < store.data.size(); ++i) {
    store.data[i] = 1.0 + 0.1 * std::sin(phase + 0.217 * static_cast<double>(i % 257));
  }
  store.allocated = true;
  return store;
}

std::size_t Storage::offset(int symbol, std::span<const long long> index) {
  return offset_in(ensure(symbol), symbol, index);
}

std::size_t Storage::offset_in(const ArrayStore& store, int symbol,
                               std::span<const long long> index) const {
  std::size_t off = 0;
  for (std::size_t d = 0; d < store.extents.size(); ++d) {
    const long long i = index[d];
    if (i < 1 || i > store.extents[d]) {
      throw CompileError({}, "subscript out of bounds for '" +
                                 symbols_->at(symbol).name + "' dim " +
                                 std::to_string(d + 1) + ": " + std::to_string(i) +
                                 " not in 1.." + std::to_string(store.extents[d]));
    }
    off += static_cast<std::size_t>((i - 1) * store.strides[d]);
  }
  return off;
}

double Storage::load(int symbol, std::span<const long long> index) {
  const ArrayStore& store = ensure(symbol);
  return store.data[offset_in(store, symbol, index)];
}

void Storage::store(int symbol, std::span<const long long> index, double value) {
  ArrayStore& s = ensure(symbol);
  s.data[offset_in(s, symbol, index)] = value;
}

long long Storage::extent(int symbol, int dim) {
  return shape(symbol).extents.at(static_cast<std::size_t>(dim));
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
  const std::size_t rank = src.extents.size();
  if (dst.extents != src.extents) {
    throw CompileError({}, "cshift shape mismatch");
  }
  const long long n = src.extents.at(static_cast<std::size_t>(dim));
  std::vector<long long> idx(rank, 1);
  const std::size_t total = src.data.size();
  std::vector<long long> src_idx(rank, 1);
  for (std::size_t linear = 0; linear < total; ++linear) {
    src_idx = idx;
    const long long i = idx[static_cast<std::size_t>(dim)];
    src_idx[static_cast<std::size_t>(dim)] = 1 + ((i - 1 + shift) % n + n) % n;
    dst.data[offset(dst_symbol, idx)] = src.data[offset(src_symbol, src_idx)];
    // increment odometer (row-major, last dim fastest)
    for (std::size_t d = rank; d-- > 0;) {
      if (++idx[d] <= src.extents[d]) break;
      idx[d] = 1;
    }
  }
}

}  // namespace hpf90d::sim
