#include "api/layout_store.hpp"

#include <algorithm>
#include <optional>

#include "obs/obs.hpp"
#include "sim/executor.hpp"

namespace hpf90d::api {

template <class Value>
typename OnceStore<Value>::Ptr OnceStore<Value>::get_or_build(const std::string& key,
                                                              const Builder& build) {
  const compiler::LayoutDigest digest = compiler::layout_digest_of(key);
  return get_or_build(digest, [&]() -> const std::string& { return key; }, build);
}

template <class Value>
typename OnceStore<Value>::Ptr OnceStore<Value>::get_or_build(
    const compiler::LayoutDigest& digest, const KeyFn& key, const Builder& build) {
  // The promise is constructed only on a miss: the hit path — the steady
  // state of a warm sweep, millions of calls — allocates nothing (a
  // promise's shared state is a heap allocation per call otherwise).
  std::optional<std::promise<Ptr>> promise;
  std::shared_future<Ptr> future;
  std::uint64_t owner = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (ReadySlot* slot = ready_find_locked(digest)) {
      lru_.splice(lru_.begin(), lru_, slot->lru_it);
      Ptr shared = slot->ptr;
      ++hits_;
      return shared;
    }
    if (const auto it = map_.find(digest); it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      future = it->second.future;
    } else {
      ++misses_;
      owner = ++next_owner_;
      promise.emplace();
      lru_.push_front(digest);
      // A costed placeholder is charged once its value exists.
      const std::size_t cost = cost_fn_ == nullptr ? 1 : 0;
      resident_ += cost;
      map_.emplace(digest, Entry{promise->get_future().share(), nullptr, lru_.begin(),
                                 owner, cost});
      // The new entry sits at the hot end, so eviction can only claim other
      // keys (possibly ones whose build is still in flight — their waiters
      // hold the shared state, so the build completes normally).
      evict_excess_locked();
    }
  }
  if (future.valid()) {
    Ptr shared = future.get();  // rethrows a failed build
    // counted only on success: a waiter on a failing build leaves no
    // spurious hit, so misses = build attempts and hits = served layouts
    ++hits_;
    return shared;
  }

  try {
    Ptr value;
    bool fresh_build = false;
    // The spill tier answers in-memory misses before the builder runs: a
    // restarted process re-inherits every value it (or any sibling) ever
    // built. Loaded entries are not written back; only fresh builds are.
    // Spill files are addressed by the fingerprint *string*, which is why
    // the KeyFn exists — and why it is only invoked here, on the miss path.
    if (spill_.load) {
      const obs::Span span(obs_sink_, obs::Phase::SpillLoad);
      value = spill_.load(key());
    }
    if (value) {
      ++spill_hits_;
    } else {
      value = std::make_shared<const Value>(build());
      fresh_build = true;
    }
    promise->set_value(value);
    {
      // Publish the resolved pointer for the locked fast path. Guarded by
      // owner: eviction may have dropped our placeholder and a later miss
      // re-inserted a different entry under this digest.
      const std::lock_guard<std::mutex> lock(mutex_);
      if (const auto it = map_.find(digest); it != map_.end() && it->second.owner == owner) {
        const std::size_t cost = cost_fn_ == nullptr ? 1 : cost_fn_(*value);
        if (capacity_ != 0 && cost > capacity_) {
          evict_locked(it);  // larger than the whole budget: served, not kept
        } else {
          resident_ += cost - it->second.cost;
          it->second.cost = cost;
          it->second.ready = value;
          ready_insert_locked(digest, value, it->second.lru_it);
          evict_excess_locked();
        }
      }
    }
    if (fresh_build && spill_.store) {
      const obs::Span span(obs_sink_, obs::Phase::SpillStore);
      spill_.store(key(), *value);
    }
    return value;
  } catch (...) {
    {
      // Erase only our own placeholder: eviction may already have dropped
      // it and a concurrent miss re-inserted a healthy one for this key.
      const std::lock_guard<std::mutex> lock(mutex_);
      if (const auto it = map_.find(digest); it != map_.end() && it->second.owner == owner) {
        resident_ -= it->second.cost;
        lru_.erase(it->second.lru_it);
        map_.erase(it);
      }
    }
    promise->set_exception(std::current_exception());
    throw;
  }
}

template <class Value>
typename OnceStore<Value>::Ptr OnceStore<Value>::try_get(
    const compiler::LayoutDigest& digest) {
  std::shared_future<Ptr> future;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (ReadySlot* slot = ready_find_locked(digest)) {
      lru_.splice(lru_.begin(), lru_, slot->lru_it);
      Ptr shared = slot->ptr;
      ++hits_;
      return shared;
    }
    const auto it = map_.find(digest);
    if (it == map_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    future = it->second.future;
  }
  Ptr shared = future.get();  // rethrows a failed in-flight build
  ++hits_;
  return shared;
}

template <class Value>
typename OnceStore<Value>::ReadySlot* OnceStore<Value>::ready_find_locked(
    const compiler::LayoutDigest& digest) {
  if (ready_idx_.empty()) return nullptr;
  const std::size_t mask = ready_idx_.size() - 1;
  for (std::size_t i = DigestHash{}(digest) & mask;; i = (i + 1) & mask) {
    ReadySlot& slot = ready_idx_[i];
    if (!slot.ptr) return nullptr;
    if (slot.digest == digest) return &slot;
  }
}

template <class Value>
void OnceStore<Value>::ready_insert_locked(const compiler::LayoutDigest& digest,
                                           const Ptr& ptr,
                                           std::list<compiler::LayoutDigest>::iterator lru_it) {
  if ((ready_n_ + 1) * 2 > ready_idx_.size()) {
    std::vector<ReadySlot> old = std::move(ready_idx_);
    ready_idx_.assign(old.empty() ? 64 : old.size() * 2, ReadySlot{});
    const std::size_t mask = ready_idx_.size() - 1;
    for (ReadySlot& s : old) {
      if (!s.ptr) continue;
      std::size_t i = DigestHash{}(s.digest) & mask;
      while (ready_idx_[i].ptr) i = (i + 1) & mask;
      ready_idx_[i] = std::move(s);
    }
  }
  const std::size_t mask = ready_idx_.size() - 1;
  std::size_t i = DigestHash{}(digest) & mask;
  while (ready_idx_[i].ptr) {
    if (ready_idx_[i].digest == digest) return;  // already indexed
    i = (i + 1) & mask;
  }
  ready_idx_[i] = ReadySlot{digest, ptr, lru_it};
  ++ready_n_;
}

template <class Value>
void OnceStore<Value>::ready_rebuild_locked() {
  std::fill(ready_idx_.begin(), ready_idx_.end(), ReadySlot{});
  ready_n_ = 0;
  for (auto& [digest, entry] : map_) {
    if (entry.ready) ready_insert_locked(digest, entry.ready, entry.lru_it);
  }
}

template <class Value>
void OnceStore<Value>::evict_locked(
    typename std::unordered_map<compiler::LayoutDigest, Entry, DigestHash>::iterator it) {
  resident_ -= it->second.cost;
  lru_.erase(it->second.lru_it);
  map_.erase(it);
  ++evictions_;
}

template <class Value>
void OnceStore<Value>::evict_excess_locked() {
  if (capacity_ == 0) return;
  bool evicted = false;
  while (resident_ > capacity_ && !lru_.empty()) {
    evict_locked(map_.find(lru_.back()));
    evicted = true;
  }
  // Evicted entries leave dangling ready slots (and stale lru_ iterators);
  // re-derive the index. Eviction is the cold path by construction.
  if (evicted) ready_rebuild_locked();
}

template <class Value>
void OnceStore<Value>::set_capacity(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity;
  evict_excess_locked();
}

template <class Value>
std::size_t OnceStore<Value>::capacity() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

template <class Value>
std::size_t OnceStore<Value>::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

template <class Value>
void OnceStore<Value>::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
  lru_.clear();
  ready_idx_.clear();
  ready_n_ = 0;
  resident_ = 0;
}

template <class Value>
typename OnceStore<Value>::Counters OnceStore<Value>::counters() const {
  std::size_t resident = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    resident = resident_;
  }
  return {hits_.load(), misses_.load(), evictions_.load(), spill_hits_.load(), resident};
}

template class OnceStore<compiler::DataLayout>;
template class OnceStore<sim::ValueTape>;

}  // namespace hpf90d::api
