// LayoutStore semantics: exact LRU eviction order, the capacity-0
// unbounded default, per-entry once-build behaviour (single-flight for one
// key, parallel builds for distinct keys — the property that replaced PR
// 2's build-under-shard-lock serialization), and failed-build retry. The
// value-tape store is the same store with a byte budget: eviction by
// resident bytes, oversized entries served but not kept.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/layout_store.hpp"
#include "compiler/pipeline.hpp"
#include "sim/executor.hpp"
#include "suite/suite.hpp"

namespace hpf90d {
namespace {

/// A real (tiny) DataLayout to populate entries with; the store's behaviour
/// under test is key-driven, so every entry can share one shape.
compiler::DataLayout tiny_layout() {
  static const compiler::CompiledProgram prog =
      compiler::compile(suite::app("pi").source);
  compiler::LayoutOptions lo;
  lo.nprocs = 1;
  return compiler::make_layout(prog, suite::app("pi").bindings(16), lo);
}

TEST(LayoutStore, CapacityZeroIsUnbounded) {
  api::LayoutStore store;  // default capacity 0
  for (int i = 0; i < 100; ++i) {
    (void)store.get_or_build("key" + std::to_string(i), tiny_layout);
  }
  EXPECT_EQ(store.size(), 100u);
  EXPECT_EQ(store.counters().misses, 100u);
  EXPECT_EQ(store.counters().hits, 0u);
  EXPECT_EQ(store.counters().evictions, 0u);
}

TEST(LayoutStore, EvictsInExactLruOrder) {
  api::LayoutStore store(2);
  (void)store.get_or_build("a", tiny_layout);
  (void)store.get_or_build("b", tiny_layout);
  EXPECT_EQ(store.size(), 2u);

  // touching "a" promotes it, so inserting "c" must evict "b", not "a"
  (void)store.get_or_build("a", tiny_layout);
  (void)store.get_or_build("c", tiny_layout);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.counters().evictions, 1u);

  api::LayoutStore::Counters before = store.counters();
  (void)store.get_or_build("a", tiny_layout);  // still resident: hit
  EXPECT_EQ(store.counters().hits, before.hits + 1);
  before = store.counters();
  (void)store.get_or_build("b", tiny_layout);  // evicted: re-miss
  EXPECT_EQ(store.counters().misses, before.misses + 1);
}

TEST(LayoutStore, ShrinkingCapacityEvictsColdestImmediately) {
  api::LayoutStore store;
  for (const char* k : {"a", "b", "c", "d", "e"}) (void)store.get_or_build(k, tiny_layout);
  (void)store.get_or_build("a", tiny_layout);  // promote "a" over b..e

  store.set_capacity(2);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.counters().evictions, 3u);
  // the survivors are the two hottest: "e" and the re-touched "a"
  api::LayoutStore::Counters before = store.counters();
  (void)store.get_or_build("a", tiny_layout);
  (void)store.get_or_build("e", tiny_layout);
  EXPECT_EQ(store.counters().hits, before.hits + 2);
  EXPECT_EQ(store.counters().misses, before.misses);
}

TEST(LayoutStore, EvictedEntriesStayAliveForHolders) {
  api::LayoutStore store(1);
  const api::LayoutStore::Ptr held = store.get_or_build("a", tiny_layout);
  (void)store.get_or_build("b", tiny_layout);  // evicts "a"
  EXPECT_EQ(store.counters().evictions, 1u);
  EXPECT_EQ(held->nprocs(), 1);  // the shared_ptr keeps the layout valid
}

TEST(LayoutStore, SingleFlightPerKey) {
  api::LayoutStore store;
  std::atomic<int> builds{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      (void)store.get_or_build("shared", [&] {
        ++builds;
        return tiny_layout();
      });
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(store.counters().misses, 1u);
  EXPECT_EQ(store.counters().hits, 7u);
}

TEST(LayoutStore, DistinctKeysBuildConcurrently) {
  // Every builder waits until all four are in flight at once: if builds
  // were serialized (PR 2 built entries under the shard lock), the latch
  // would never open. This is also the ThreadSanitizer exercise for the
  // insert-placeholder/build-outside locking discipline.
  constexpr int kBuilders = 4;
  api::LayoutStore store;
  std::latch in_flight(kBuilders);
  std::vector<std::thread> threads;
  for (int t = 0; t < kBuilders; ++t) {
    threads.emplace_back([&, t] {
      (void)store.get_or_build("key" + std::to_string(t), [&] {
        in_flight.arrive_and_wait();
        return tiny_layout();
      });
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kBuilders));
  EXPECT_EQ(store.counters().misses, static_cast<std::size_t>(kBuilders));
}

TEST(LayoutStore, FailedBuildPropagatesAndRetries) {
  api::LayoutStore store;
  EXPECT_THROW((void)store.get_or_build(
                   "bad", []() -> compiler::DataLayout {
                     throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  EXPECT_EQ(store.size(), 0u);  // the placeholder is withdrawn
  // the key is buildable again afterwards
  (void)store.get_or_build("bad", tiny_layout);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.counters().misses, 2u);
}

TEST(LayoutStore, ClearDropsEverything) {
  api::LayoutStore store;
  (void)store.get_or_build("a", tiny_layout);
  (void)store.get_or_build("b", tiny_layout);
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  (void)store.get_or_build("a", tiny_layout);
  EXPECT_EQ(store.counters().misses, 3u);
}

// --- the byte-budgeted value-tape store ------------------------------------------

std::size_t tape_cost(const sim::ValueTape& t) { return t.bytes(); }

/// A value tape of `words` words (8 bytes each, no printed/scalar maps).
std::function<sim::ValueTape()> tape_of(std::size_t words) {
  return [words] {
    sim::ValueTape t;
    t.words.assign(words, 7);
    return t;
  };
}

TEST(ValueTapeStore, EvictsByResidentBytesInLruOrder) {
  api::ValueTapeStore store(100, tape_cost);  // 100-byte budget
  (void)store.get_or_build("a", tape_of(5));  // 40 B
  (void)store.get_or_build("b", tape_of(5));  // 80 B
  EXPECT_EQ(store.counters().resident, 80u);
  (void)store.get_or_build("a", tape_of(5));  // hit: "a" is now the hottest
  (void)store.get_or_build("c", tape_of(5));  // 120 B > 100: "b" goes
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.counters().evictions, 1u);
  EXPECT_EQ(store.counters().resident, 80u);
  const api::ValueTapeStore::Counters before = store.counters();
  (void)store.get_or_build("a", tape_of(5));
  EXPECT_EQ(store.counters().hits, before.hits + 1);
  (void)store.get_or_build("b", tape_of(5));  // evicted: re-miss
  EXPECT_EQ(store.counters().misses, before.misses + 1);

  // one big entry pushes out as many cold ones as it needs
  (void)store.get_or_build("big", tape_of(10));  // 80 B
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.counters().resident, 80u);
}

TEST(ValueTapeStore, EntryLargerThanTheBudgetIsServedButNotKept) {
  api::ValueTapeStore store(100, tape_cost);
  (void)store.get_or_build("a", tape_of(5));
  const api::ValueTapeStore::Ptr huge = store.get_or_build("huge", tape_of(20));  // 160 B
  ASSERT_NE(huge, nullptr);
  EXPECT_EQ(huge->words.size(), 20u);
  // it displaced nothing and is not resident
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.counters().resident, 40u);
  EXPECT_EQ(store.counters().evictions, 1u);
  EXPECT_EQ(store.counters().hits, 0u);
  // the oversized entry was not kept: asking again builds it again
  (void)store.get_or_build("huge", tape_of(20));
  EXPECT_EQ(store.counters().misses, 3u);
  EXPECT_EQ(store.counters().hits, 0u);
  EXPECT_EQ(store.counters().evictions, 2u);
  // the small one was: asking again hits
  (void)store.get_or_build("a", tape_of(5));
  EXPECT_EQ(store.counters().misses, 3u);
  EXPECT_EQ(store.counters().hits, 1u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(ValueTapeStore, FailedBuildChargesNothing) {
  api::ValueTapeStore store(100, tape_cost);
  EXPECT_THROW((void)store.get_or_build("bad",
                                        []() -> sim::ValueTape {
                                          throw std::runtime_error("boom");
                                        }),
               std::runtime_error);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.counters().resident, 0u);
  EXPECT_EQ(store.counters().evictions, 0u);
  (void)store.get_or_build("bad", tape_of(5));
  EXPECT_EQ(store.counters().resident, 40u);
  store.clear();
  EXPECT_EQ(store.counters().resident, 0u);
}

}  // namespace
}  // namespace hpf90d
