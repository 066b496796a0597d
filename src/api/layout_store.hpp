// layout_store.hpp — content-addressed, LRU-bounded once-build stores.
//
// OnceStore is the session's one cache implementation. Every artifact the
// session memoizes is pure in its key and lives in an instance of it:
// compiled programs (keyed by source hash, directive overrides and
// compiler options), DataLayouts (LayoutStore), the simulator's value
// tapes (ValueTapeStore: one functional pass per (value digest, bindings,
// WHILE trip limit) — compiler::value_tape_key — re-timed by every
// processor count, machine and directive variant), critical-variable
// verdicts, and the simulator's noise streams (NoiseStreamStore: one per
// noise seed, read by every timing walk of that seed). The store has three
// jobs on the sweep hot path:
//
//   1. *Once-build semantics.* A placeholder future is inserted under the
//      store lock and the value is built OUTSIDE it, so distinct keys never
//      serialize their builds while concurrent lookups of the same key
//      still build exactly once (every unique key misses exactly once —
//      the property that keeps RunReport cache statistics deterministic
//      for any worker count).
//   2. *Bounded residency.* set_capacity(n) installs an LRU budget (0 =
//      unbounded) in cost units: every entry costs 1 unless the store was
//      given a cost function (the value-tape store charges bytes, and
//      charges a placeholder nothing until its value is built). Lookups
//      touch their entry, inserts evict from the cold end, and a value
//      costing more than the whole budget is handed out but not kept.
//      Entries are handed out as shared_ptr, so an evicted value stays
//      alive for whoever is still using it.
//   3. *Observability.* Hit / miss / eviction counters and the resident
//      cost feed the session's CacheStats.
//
// Entries are indexed by a 128-bit content digest; string keys are hashed
// to it (compiler::layout_digest_of). The builds run outside the lock, so
// the critical section is an O(1) map probe plus a list splice, and a
// single mutex buys an *exact* global LRU order instead of a per-shard
// approximation.
//
// Determinism note: with a budget the working set fits in, the counters are
// reproducible for any worker count. A budget under concurrent inserts can
// evict a key one schedule would have kept, so re-miss/evict counts are
// only guaranteed reproducible for serial execution or budgets covering the
// working set.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "compiler/mapping.hpp"
#include "compiler/pipeline.hpp"

namespace hpf90d::obs {
class Sink;
}  // namespace hpf90d::obs

namespace hpf90d::sim {
struct ValueTape;
class NoiseStream;
}  // namespace hpf90d::sim

namespace hpf90d::api {

template <class Value>
class OnceStore {
 public:
  using Ptr = std::shared_ptr<const Value>;
  /// An entry's share of the budget; null charges every entry 1.
  using CostFn = std::size_t (*)(const Value&);

  struct Counters {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
    /// Misses satisfied from the attached spill tier (subset of `misses`:
    /// the in-memory store still missed, but nothing was built).
    std::size_t spill_hits = 0;
    /// Summed cost of the resident entries (a state, not a counter).
    std::size_t resident = 0;
  };

  /// The disk tier behind the in-memory store. `load` is probed on every
  /// miss before the builder runs; `store` is called (outside the store
  /// lock) with every freshly *built* value. Either may be null.
  struct Spill {
    std::function<Ptr(const std::string&)> load;
    std::function<void(const std::string&, const Value&)> store;
  };

  explicit OnceStore(std::size_t capacity = 0, CostFn cost = nullptr)
      : capacity_(capacity), cost_fn_(cost) {}

  /// Returns the value for `digest`, invoking `build()` (outside the store
  /// lock) when it is absent. Concurrent callers of one key share a single
  /// build; concurrent builds of distinct keys proceed in parallel. A
  /// throwing builder propagates to every waiter and leaves the key absent,
  /// so the next lookup retries. `key()` yields the fingerprint *string*
  /// the spill tier addresses files by; it is called only on a miss with a
  /// spill attached (nullptr will do for a store that has none). Both are
  /// plain callables, so a hit — the steady state of a warm sweep — builds
  /// no std::function and allocates nothing.
  template <class KeyFn, class Build>
  [[nodiscard]] Ptr get_or_build(const compiler::LayoutDigest& digest, KeyFn&& key,
                                 Build&& build) {
    std::optional<Claim> claim;
    if (Ptr hit = find_or_claim(digest, claim)) return hit;
    return fill(digest, *claim, std::forward<KeyFn>(key), std::forward<Build>(build));
  }

  /// String-keyed lookup: the key is hashed to the digest, so string and
  /// digest callers address the same entries.
  template <class Build>
  [[nodiscard]] Ptr get_or_build(const std::string& key, Build&& build) {
    return get_or_build(
        compiler::layout_digest_of(key), [&]() -> const std::string& { return key; },
        std::forward<Build>(build));
  }

  /// Attaches (or detaches, with default-constructed functions) the spill
  /// tier. Not safe to call concurrently with get_or_build.
  void set_spill(Spill spill) { spill_ = std::move(spill); }
  [[nodiscard]] bool has_spill() const noexcept { return static_cast<bool>(spill_.load); }

  /// Attaches a tracing sink (nullptr detaches): miss paths record
  /// SpillLoad / SpillStore spans. Like set_spill, not safe to call
  /// concurrently with get_or_build.
  void set_trace(obs::Sink* sink) noexcept { obs_sink_ = sink; }

  /// Installs the LRU budget (0 = unbounded), evicting immediately when the
  /// store is over it.
  void set_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t capacity() const;

  [[nodiscard]] std::size_t size() const;
  void clear();

  [[nodiscard]] Counters counters() const;

 private:
  struct Entry {
    std::shared_future<Ptr> future;
    /// Filled in by the building thread once the future resolves: hits then
    /// copy a shared_ptr under the store lock instead of round-tripping
    /// through shared_future::get (null while the build is in flight).
    Ptr ready;
    std::list<compiler::LayoutDigest>::iterator lru_it;  // position in lru_
    std::uint64_t owner = 0;  // which insert created this placeholder
    std::size_t cost = 0;     // charged against capacity_
  };

  /// A miss's placeholder: the promise its waiters hold the future of.
  struct Claim {
    std::promise<Ptr> promise;
    std::uint64_t owner = 0;
  };

  /// The digest is already uniformly mixed; fold its halves for the bucket
  /// index instead of re-hashing.
  struct DigestHash {
    std::size_t operator()(const compiler::LayoutDigest& d) const noexcept {
      return static_cast<std::size_t>(d.a ^ (d.b * 0x9e3779b97f4a7c15ULL));
    }
  };
  using Map = std::unordered_map<compiler::LayoutDigest, Entry, DigestHash>;

  /// The lookup half of get_or_build: returns the value when `digest` is
  /// resident or being built (waiting for that build), else inserts a
  /// placeholder, engages `claim` with it and returns null. The promise is
  /// constructed only here, on a miss: a hit allocates nothing.
  [[nodiscard]] Ptr find_or_claim(const compiler::LayoutDigest& digest,
                                  std::optional<Claim>& claim);
  /// The miss half: loads or builds the value, resolves the claim's waiters
  /// and publishes the entry (or removes the placeholder if the build threw).
  [[nodiscard]] Ptr fill(const compiler::LayoutDigest& digest, Claim& claim,
                         const std::function<const std::string&()>& key,
                         const std::function<Value()>& build);

  /// Drops one entry, counting it as evicted; caller holds mutex_.
  void evict_locked(typename Map::iterator it);
  /// Evicts cold entries until the resident cost fits capacity_; caller
  /// holds mutex_.
  void evict_excess_locked();

  mutable std::mutex mutex_;
  Map map_;
  std::list<compiler::LayoutDigest> lru_;  // front = most recently used
  std::size_t capacity_ = 0;  // 0 = unbounded
  std::size_t resident_ = 0;  // summed Entry::cost, guarded by mutex_
  const CostFn cost_fn_;

  std::uint64_t next_owner_ = 0;  // guarded by mutex_

  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
  std::atomic<std::size_t> evictions_{0};
  std::atomic<std::size_t> spill_hits_{0};

  Spill spill_;  // set before concurrent use; functions are thread-safe
  obs::Sink* obs_sink_ = nullptr;  // miss-path span destination
};

/// Layouts, one entry each (the budget counts entries).
using LayoutStore = OnceStore<compiler::DataLayout>;
/// Simulator value tapes, charged by ValueTape::bytes.
using ValueTapeStore = OnceStore<sim::ValueTape>;
/// Noise streams keyed by {seed, 0}, one entry each.
using NoiseStreamStore = OnceStore<sim::NoiseStream>;

}  // namespace hpf90d::api
