// layout_store.hpp — content-addressed, LRU-bounded once-build stores.
//
// The session keeps two caches of artifacts that are expensive to build and
// pure in their key: DataLayouts (LayoutStore) and the simulator's value
// tapes (ValueTapeStore: one functional pass per (value digest, bindings,
// WHILE trip limit) — compiler::value_tape_key — re-timed by every
// processor count, machine and directive variant). Both are instances of
// one store with three jobs on the sweep hot path:
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
// PR 2 sharded this map because entries were built under their shard lock;
// with builds moved outside the lock the critical section is an O(1) map
// probe plus a list splice, and a single mutex buys an *exact* global LRU
// order instead of a per-shard approximation.
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
#include <string>
#include <unordered_map>
#include <vector>

#include "compiler/mapping.hpp"
#include "compiler/pipeline.hpp"

namespace hpf90d::obs {
class Sink;
}  // namespace hpf90d::obs

namespace hpf90d::sim {
struct ValueTape;
}  // namespace hpf90d::sim

namespace hpf90d::api {

template <class Value>
class OnceStore {
 public:
  using Ptr = std::shared_ptr<const Value>;
  using Builder = std::function<Value()>;
  /// Lazily produces the fingerprint *string* for a digest-keyed lookup.
  /// Only invoked on a miss (the spill tier addresses files by the string
  /// key), so the hot hit path never materializes a key.
  using KeyFn = std::function<const std::string&()>;
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

  /// Returns the value for `key`, invoking `build` (outside the store
  /// lock) when the key is absent. Concurrent callers of one key share a
  /// single build; concurrent builds of distinct keys proceed in parallel.
  /// A throwing builder propagates to every waiter and leaves the key
  /// absent, so the next lookup retries. Funnels through the digest
  /// overload below (the map is indexed by 128-bit content digest, never by
  /// the string), so string and digest callers address the same entries.
  [[nodiscard]] Ptr get_or_build(const std::string& key, const Builder& build);

  /// Digest-keyed lookup — the sweep hot path. `key` is consulted only on a
  /// miss with a spill attached, so a warm lookup does no string work at
  /// all. Identical counter and LRU behaviour to the string overload.
  [[nodiscard]] Ptr get_or_build(const compiler::LayoutDigest& digest, const KeyFn& key,
                                 const Builder& build);

  /// Hit-only probe: returns the value when `digest` is resident (counting
  /// a hit and touching the LRU entry exactly like get_or_build), nullptr
  /// when absent — no miss is counted and nothing is inserted, so a caller
  /// falling back to get_or_build preserves the exact counter semantics.
  /// Exists because the warm path of a sweep point otherwise pays two
  /// std::function constructions (key + builder) per probe just to not call
  /// them.
  [[nodiscard]] Ptr try_get(const compiler::LayoutDigest& digest);

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

  /// The digest is already uniformly mixed; fold its halves for the bucket
  /// index instead of re-hashing.
  struct DigestHash {
    std::size_t operator()(const compiler::LayoutDigest& d) const noexcept {
      return static_cast<std::size_t>(d.a ^ (d.b * 0x9e3779b97f4a7c15ULL));
    }
  };

  /// Read-optimized mirror of every *resolved* entry: open addressing over
  /// a power-of-two slot array, linear probing, keyed by the (already
  /// uniformly mixed) digest. A warm hit costs one masked index and one
  /// slot line instead of the node-based map's prime modulo plus two
  /// dependent pointer chases. Slots carry the entry's lru_ iterator (list
  /// iterators survive splices) so the hit path never touches map_ at all.
  /// Guarded by mutex_; rebuilt wholesale on eviction (rare by design).
  struct ReadySlot {
    compiler::LayoutDigest digest{};
    Ptr ptr;  // null = empty slot
    std::list<compiler::LayoutDigest>::iterator lru_it{};
  };

  /// Probes the ready index; caller holds mutex_. Returns nullptr on miss.
  [[nodiscard]] ReadySlot* ready_find_locked(const compiler::LayoutDigest& digest);
  /// Inserts a resolved entry, growing the slot array at 50% load.
  void ready_insert_locked(const compiler::LayoutDigest& digest, const Ptr& ptr,
                           std::list<compiler::LayoutDigest>::iterator lru_it);
  /// Re-derives the index from map_ (after evictions invalidate slots).
  void ready_rebuild_locked();

  /// Drops one entry, counting it as evicted; caller holds mutex_ and
  /// rebuilds the ready index afterwards.
  void evict_locked(typename std::unordered_map<compiler::LayoutDigest, Entry,
                                                DigestHash>::iterator it);
  /// Evicts cold entries until the resident cost fits capacity_; caller
  /// holds mutex_.
  void evict_excess_locked();

  mutable std::mutex mutex_;
  std::unordered_map<compiler::LayoutDigest, Entry, DigestHash> map_;
  std::vector<ReadySlot> ready_idx_;  // power-of-two size (or empty)
  std::size_t ready_n_ = 0;           // occupied slots
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

}  // namespace hpf90d::api
