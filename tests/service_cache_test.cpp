// LRU result-cache tests (src/service/cache.hpp): eviction order,
// hit/miss/eviction counters, recency semantics of get vs peek, the
// capacity-zero disable switch, and the persisted-index key order.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "gtest/gtest.h"
#include "service/cache.hpp"
#include "service/metrics.hpp"

namespace congestbc::service {
namespace {

std::shared_ptr<const CachedResult> entry(std::uint8_t tag) {
  auto result = std::make_shared<CachedResult>();
  result->block_bytes = {tag, tag, tag};
  result->block_bits = 24;
  result->run_status = tag;
  return result;
}

TEST(LruResultCache, HitAndMissCounters) {
  LruResultCache cache(4);
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);

  cache.put(1, entry(1));
  const auto hit = cache.get(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->run_status, 1);
  EXPECT_EQ(hit->block_bytes, (std::vector<std::uint8_t>{1, 1, 1}));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruResultCache, EvictsLeastRecentlyUsed) {
  LruResultCache cache(3);
  cache.put(1, entry(1));
  cache.put(2, entry(2));
  cache.put(3, entry(3));
  // Touch 1 so 2 becomes the LRU victim.
  ASSERT_NE(cache.get(1), nullptr);
  cache.put(4, entry(4));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.peek(2), nullptr);  // evicted
  EXPECT_NE(cache.peek(1), nullptr);
  EXPECT_NE(cache.peek(3), nullptr);
  EXPECT_NE(cache.peek(4), nullptr);
}

TEST(LruResultCache, PeekDoesNotTouchRecencyOrCounters) {
  LruResultCache cache(2);
  cache.put(1, entry(1));
  cache.put(2, entry(2));
  // peek(1) must NOT rescue 1 from eviction...
  EXPECT_NE(cache.peek(1), nullptr);
  cache.put(3, entry(3));
  EXPECT_EQ(cache.peek(1), nullptr);
  // ...and must not have counted hits or misses along the way.
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(LruResultCache, PutRefreshesValueAndRecency) {
  LruResultCache cache(2);
  cache.put(1, entry(1));
  cache.put(2, entry(2));
  cache.put(1, entry(9));  // refresh: new value, now most recent
  const auto refreshed = cache.peek(1);
  ASSERT_NE(refreshed, nullptr);
  EXPECT_EQ(refreshed->run_status, 9);
  cache.put(3, entry(3));
  EXPECT_EQ(cache.peek(2), nullptr);  // 2 was the LRU, not 1
  EXPECT_NE(cache.peek(1), nullptr);
}

TEST(LruResultCache, KeysLruOrderIsLeastToMostRecent) {
  LruResultCache cache(4);
  cache.put(1, entry(1));
  cache.put(2, entry(2));
  cache.put(3, entry(3));
  ASSERT_NE(cache.get(1), nullptr);  // 1 becomes most recent
  EXPECT_EQ(cache.keys_lru_order(), (std::vector<std::uint64_t>{2, 3, 1}));
  // Replaying that order through put() restores the same recency — the
  // daemon relies on this when it reloads the persisted index.
  LruResultCache replay(4);
  for (const auto fp : cache.keys_lru_order()) {
    replay.put(fp, cache.peek(fp));
  }
  EXPECT_EQ(replay.keys_lru_order(), cache.keys_lru_order());
}

TEST(LruResultCache, CapacityZeroDisablesCaching) {
  LruResultCache cache(0);
  cache.put(1, entry(1));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);  // dropped puts are not "evictions"
}

TEST(LruResultCache, SharedPtrSurvivesEviction) {
  LruResultCache cache(1);
  cache.put(1, entry(1));
  const auto held = cache.get(1);  // a reply "being written out"
  cache.put(2, entry(2));          // evicts 1
  EXPECT_EQ(cache.peek(1), nullptr);
  ASSERT_NE(held, nullptr);        // but the bytes stay valid
  EXPECT_EQ(held->run_status, 1);
}

// The latency window's percentiles select order statistics instead of
// sorting; they must equal the interpolation over a sorted copy bit for
// bit, before the 4,096-sample ring fills and after it wraps.
double reference_percentile(std::vector<double> window, double p) {
  if (window.empty()) {
    return 0.0;
  }
  std::sort(window.begin(), window.end());
  const double rank = p / 100.0 * static_cast<double>(window.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, window.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return window[lo] + (window[hi] - window[lo]) * frac;
}

TEST(ServiceMetrics, PercentilesMatchAReferenceSortBeforeAndAfterWrap) {
  ServiceMetrics metrics;
  EXPECT_EQ(metrics.latency_percentile(50.0), 0.0);
  EXPECT_EQ(metrics.snapshot().latency_p99_ms, 0.0);
  Rng rng(2026);
  std::deque<double> window;
  const std::size_t checkpoints[] = {1, 2, 7, 1000, 4095, 4096, 4097, 6000,
                                     9000};
  std::size_t recorded = 0;
  for (const std::size_t until : checkpoints) {
    while (recorded < until) {
      // Heavy ties (integers) and spread-out values both occur.
      const double ms = recorded % 3 == 0
                            ? static_cast<double>(rng.next_below(50))
                            : static_cast<double>(rng.next_u64() % 1000000) /
                                  997.0;
      metrics.record_latency_ms(ms);
      window.push_back(ms);
      if (window.size() > ServiceMetrics::kLatencyWindow) {
        window.pop_front();
      }
      ++recorded;
    }
    SCOPED_TRACE(recorded);
    const std::vector<double> samples(window.begin(), window.end());
    for (const double p : {0.0, 1.0, 33.3, 50.0, 90.0, 99.0, 99.9, 100.0}) {
      EXPECT_EQ(metrics.latency_percentile(p), reference_percentile(samples, p))
          << p;
    }
    const StatsReply stats = metrics.snapshot();
    EXPECT_EQ(stats.latency_p50_ms, reference_percentile(samples, 50.0));
    EXPECT_EQ(stats.latency_p90_ms, reference_percentile(samples, 90.0));
    EXPECT_EQ(stats.latency_p99_ms, reference_percentile(samples, 99.0));
  }
}

}  // namespace
}  // namespace congestbc::service
