#include "api/layout_store.hpp"

#include "obs/obs.hpp"
#include "sim/executor.hpp"
#include "sim/noise.hpp"

namespace hpf90d::api {

template <class Value>
typename OnceStore<Value>::Ptr OnceStore<Value>::find_or_claim(
    const compiler::LayoutDigest& digest, std::optional<Claim>& claim) {
  std::shared_future<Ptr> future;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = map_.find(digest); it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      if (it->second.ready) {
        ++hits_;
        return it->second.ready;
      }
      future = it->second.future;
    } else {
      ++misses_;
      claim.emplace();
      claim->owner = ++next_owner_;
      lru_.push_front(digest);
      // A costed placeholder is charged once its value exists.
      const std::size_t cost = cost_fn_ == nullptr ? 1 : 0;
      resident_ += cost;
      map_.emplace(digest, Entry{claim->promise.get_future().share(), nullptr, lru_.begin(),
                                 claim->owner, cost});
      // The new entry sits at the hot end, so eviction can only claim other
      // keys (possibly ones whose build is still in flight — their waiters
      // hold the shared state, so the build completes normally).
      evict_excess_locked();
      return nullptr;
    }
  }
  Ptr shared = future.get();  // rethrows a failed build
  // counted only on success: a waiter on a failing build leaves no
  // spurious hit, so misses = build attempts and hits = served values
  ++hits_;
  return shared;
}

template <class Value>
typename OnceStore<Value>::Ptr OnceStore<Value>::fill(
    const compiler::LayoutDigest& digest, Claim& claim,
    const std::function<const std::string&()>& key, const std::function<Value()>& build) {
  try {
    Ptr value;
    bool fresh_build = false;
    // The spill tier answers in-memory misses before the builder runs: a
    // restarted process re-inherits every value it (or any sibling) ever
    // built. Loaded entries are not written back; only fresh builds are.
    // Spill files are addressed by the fingerprint *string*, which is why
    // `key` exists — and why it is only invoked here, on the miss path.
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
    claim.promise.set_value(value);
    {
      // Publish the resolved pointer for the hit path. Guarded by owner:
      // eviction may have dropped our placeholder and a later miss
      // re-inserted a different entry under this digest.
      const std::lock_guard<std::mutex> lock(mutex_);
      if (const auto it = map_.find(digest);
          it != map_.end() && it->second.owner == claim.owner) {
        const std::size_t cost = cost_fn_ == nullptr ? 1 : cost_fn_(*value);
        if (capacity_ != 0 && cost > capacity_) {
          evict_locked(it);  // larger than the whole budget: served, not kept
        } else {
          resident_ += cost - it->second.cost;
          it->second.cost = cost;
          it->second.ready = value;
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
      if (const auto it = map_.find(digest);
          it != map_.end() && it->second.owner == claim.owner) {
        resident_ -= it->second.cost;
        lru_.erase(it->second.lru_it);
        map_.erase(it);
      }
    }
    claim.promise.set_exception(std::current_exception());
    throw;
  }
}

template <class Value>
void OnceStore<Value>::evict_locked(typename Map::iterator it) {
  resident_ -= it->second.cost;
  lru_.erase(it->second.lru_it);
  map_.erase(it);
  ++evictions_;
}

template <class Value>
void OnceStore<Value>::evict_excess_locked() {
  if (capacity_ == 0) return;
  while (resident_ > capacity_ && !lru_.empty()) evict_locked(map_.find(lru_.back()));
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

template class OnceStore<compiler::CompiledProgram>;
template class OnceStore<compiler::DataLayout>;
template class OnceStore<sim::ValueTape>;
template class OnceStore<sim::NoiseStream>;
template class OnceStore<std::string>;

}  // namespace hpf90d::api
