#include "resolver/cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "util/rng.h"

namespace rootstress::resolver {
namespace {

TEST(Cache, MissThenHitThenExpire) {
  TtlCache cache;
  EXPECT_FALSE(cache.hit(1, net::SimTime(0)));
  cache.put(1, net::SimTime(0), net::SimTime::from_hours(1));
  EXPECT_TRUE(cache.hit(1, net::SimTime(10)));
  EXPECT_TRUE(cache.hit(1, net::SimTime::from_minutes(59)));
  EXPECT_FALSE(cache.hit(1, net::SimTime::from_hours(1)));
  EXPECT_FALSE(cache.hit(1, net::SimTime::from_hours(2)));
}

TEST(Cache, CountsHitsAndMisses) {
  TtlCache cache;
  cache.put(1, net::SimTime(0), net::SimTime::from_hours(1));
  cache.hit(1, net::SimTime(1));
  cache.hit(2, net::SimTime(1));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, RefreshExtends) {
  TtlCache cache;
  cache.put(1, net::SimTime(0), net::SimTime::from_minutes(10));
  cache.put(1, net::SimTime::from_minutes(5), net::SimTime::from_minutes(10));
  EXPECT_TRUE(cache.hit(1, net::SimTime::from_minutes(12)));
}

TEST(Cache, CapacityEvictsClosestToExpiry) {
  TtlCache cache(2);
  cache.put(1, net::SimTime(0), net::SimTime::from_minutes(5));   // soonest
  cache.put(2, net::SimTime(0), net::SimTime::from_minutes(50));
  cache.put(3, net::SimTime(0), net::SimTime::from_minutes(50));  // evicts 1
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.hit(1, net::SimTime(1)));
  EXPECT_TRUE(cache.hit(2, net::SimTime(1)));
  EXPECT_TRUE(cache.hit(3, net::SimTime(1)));
}

TEST(Cache, SweepDropsExpired) {
  TtlCache cache;
  cache.put(1, net::SimTime(0), net::SimTime::from_minutes(1));
  cache.put(2, net::SimTime(0), net::SimTime::from_minutes(100));
  cache.sweep(net::SimTime::from_minutes(10));
  EXPECT_EQ(cache.size(), 1u);
}

// Regression: a zero-capacity cache used to evict from an empty map
// (*begin() on end(), UB). It must simply store nothing.
TEST(Cache, ZeroCapacityStoresNothing) {
  TtlCache cache(0);
  cache.put(1, net::SimTime(0), net::SimTime::from_hours(1));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.hit(1, net::SimTime(1)));
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
}

// Regression: an entry found expired used to stay in the map (pinning
// capacity until the next sweep) — hit() now erases it on the spot and
// counts the expiry separately from plain misses.
TEST(Cache, ExpiredHitEvictsTheEntry) {
  TtlCache cache(2);
  cache.put(1, net::SimTime(0), net::SimTime::from_minutes(1));
  EXPECT_FALSE(cache.hit(1, net::SimTime::from_minutes(2)));
  EXPECT_EQ(cache.size(), 0u) << "expired entry pinned its slot";
  EXPECT_EQ(cache.expirations(), 1u);
  // The freed slot is usable again without evicting anything live.
  cache.put(2, net::SimTime(0), net::SimTime::from_minutes(50));
  cache.put(3, net::SimTime(0), net::SimTime::from_minutes(50));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.hit(2, net::SimTime(1)));
  EXPECT_TRUE(cache.hit(3, net::SimTime(1)));
}

TEST(Cache, CounterAccountingAcrossExpiry) {
  TtlCache cache;
  cache.put(1, net::SimTime(0), net::SimTime::from_minutes(1));
  EXPECT_TRUE(cache.hit(1, net::SimTime(1)));                       // hit
  EXPECT_FALSE(cache.hit(1, net::SimTime::from_minutes(2)));        // expired
  EXPECT_FALSE(cache.hit(1, net::SimTime::from_minutes(3)));        // plain miss
  EXPECT_FALSE(cache.hit(2, net::SimTime(0)));                      // plain miss
  EXPECT_EQ(cache.hits(), 1u);
  // An expired lookup is still a miss to the client; expirations() only
  // says how many of the misses found (and erased) a stale entry.
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.expirations(), 1u);
}

// Heavy churn far past capacity: the lazy eviction heap must keep the
// map bounded and always sacrifice the entry closest to expiry.
TEST(Cache, ChurnKeepsCapacityBoundAndEvictsSoonest) {
  constexpr std::size_t kCapacity = 32;
  TtlCache cache(kCapacity);
  // Ascending expiries: every insertion beyond capacity evicts the
  // oldest-expiry key, so exactly the last kCapacity keys survive.
  for (std::uint64_t key = 0; key < 1000; ++key) {
    cache.put(key, net::SimTime(0),
              net::SimTime::from_minutes(static_cast<double>(key + 1)));
    ASSERT_LE(cache.size(), kCapacity);
  }
  EXPECT_EQ(cache.size(), kCapacity);
  for (std::uint64_t key = 1000 - kCapacity; key < 1000; ++key) {
    EXPECT_TRUE(cache.hit(key, net::SimTime(1))) << "lost key " << key;
  }
  EXPECT_FALSE(cache.hit(0, net::SimTime(1)));
  EXPECT_FALSE(cache.hit(1000 - kCapacity - 1, net::SimTime(1)));
}

// Refreshing one key repeatedly must not bloat the eviction heap into
// evicting live entries (stale heap records are skipped, not trusted).
TEST(Cache, RefreshChurnDoesNotEvictLiveEntries) {
  TtlCache cache(2);
  cache.put(7, net::SimTime(0), net::SimTime::from_minutes(200));
  for (int round = 0; round < 500; ++round) {
    cache.put(8, net::SimTime(round), net::SimTime::from_minutes(100));
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.hit(7, net::SimTime(1000)));
  EXPECT_TRUE(cache.hit(8, net::SimTime(1000)));
}


// std::map reference model of the cache's documented semantics. With
// every expiry distinct, "the live entry closest to expiry" is unique, so
// the model and the cache must agree operation by operation.
struct ModelCache {
  std::size_t capacity;
  std::map<std::uint64_t, net::SimTime> entries;
  std::uint64_t hits = 0, misses = 0, expirations = 0;

  bool hit(std::uint64_t key, net::SimTime now) {
    const auto it = entries.find(key);
    if (it != entries.end()) {
      if (now < it->second) {
        ++hits;
        return true;
      }
      entries.erase(it);
      ++expirations;
    }
    ++misses;
    return false;
  }
  void put(std::uint64_t key, net::SimTime now, net::SimTime ttl) {
    if (capacity == 0) return;
    if (entries.size() >= capacity && !entries.contains(key)) {
      entries.erase(std::min_element(
          entries.begin(), entries.end(),
          [](const auto& a, const auto& b) { return a.second < b.second; }));
    }
    entries[key] = now + ttl;
  }
  void sweep(net::SimTime now) {
    std::erase_if(entries, [now](const auto& e) { return e.second <= now; });
  }
};

TEST(TtlCache, MatchesMapModelOnRandomOperations) {
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{7},
                                     std::size_t{24}, std::size_t{1000}}) {
    SCOPED_TRACE(capacity);
    TtlCache cache(capacity);
    ModelCache model{capacity, {}};
    util::Rng rng(capacity * 7919 + 3);
    std::set<std::int64_t> used_expiries;
    std::int64_t now_ms = 0;
    for (int op = 0; op < 20000; ++op) {
      now_ms += static_cast<std::int64_t>(rng.below(40));
      const net::SimTime now(now_ms);
      const std::uint64_t key = rng.below(64) * 0x10001ull;  // sparse keys
      switch (rng.below(8)) {
        case 0:
        case 1:
        case 2: {
          std::int64_t expiry = 0;
          do {
            expiry = now_ms + 1 + static_cast<std::int64_t>(rng.below(4000));
          } while (!used_expiries.insert(expiry).second);
          const net::SimTime ttl(expiry - now_ms);
          cache.put(key, now, ttl);
          model.put(key, now, ttl);
          break;
        }
        case 7:
          if (rng.below(8) == 0) {
            cache.sweep(now);
            model.sweep(now);
            break;
          }
          [[fallthrough]];
        default:
          ASSERT_EQ(cache.hit(key, now), model.hit(key, now)) << "op " << op;
          break;
      }
      ASSERT_EQ(cache.size(), model.entries.size()) << "op " << op;
      ASSERT_EQ(cache.hits(), model.hits) << "op " << op;
      ASSERT_EQ(cache.misses(), model.misses) << "op " << op;
      ASSERT_EQ(cache.expirations(), model.expirations) << "op " << op;
      ASSERT_LE(2 * cache.size(), cache.slot_count()) << "op " << op;
    }
    // Every key agrees at the end, present or not.
    const net::SimTime now(now_ms);
    for (std::uint64_t k = 0; k < 64; ++k) {
      EXPECT_EQ(cache.hit(k * 0x10001ull, now),
                model.hit(k * 0x10001ull, now))
          << "key " << k;
    }
  }
}

// `count` distinct keys whose probe starts at `home` in a 16-slot table.
std::vector<std::uint64_t> keys_homed_at(std::size_t home, std::size_t count) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t key = 1; keys.size() < count; ++key) {
    if (TtlCache::home_slot(key, 16) == home) keys.push_back(key);
  }
  return keys;
}

// A run that starts in the last slot and wraps to the front, mixing keys
// homed at 15, 0 and 1 so deletion must decide per entry whether it may
// shift back across the wrap.
std::vector<std::uint64_t> wrapped_cluster() {
  std::vector<std::uint64_t> keys = keys_homed_at(15, 3);
  for (const std::uint64_t k : keys_homed_at(0, 2)) keys.push_back(k);
  keys.push_back(keys_homed_at(1, 1).front());
  keys.push_back(keys_homed_at(14, 1).front());
  return keys;  // 7 keys: stays in a 16-slot table
}

TEST(TtlCache, BackwardShiftDeletionAcrossTheWrap) {
  const std::vector<std::uint64_t> keys = wrapped_cluster();
  const net::SimTime later = net::SimTime::from_hours(10);
  // Erase each key alone, then all of them in several orders: every
  // survivor must stay reachable after each erase.
  for (std::size_t victim = 0; victim < keys.size(); ++victim) {
    TtlCache cache;
    for (const std::uint64_t k : keys) {
      cache.put(k, net::SimTime(0), net::SimTime::from_hours(1));
    }
    ASSERT_EQ(cache.slot_count(), 16u);
    EXPECT_FALSE(cache.hit(keys[victim], later));  // expired: erased
    EXPECT_EQ(cache.expirations(), 1u);
    EXPECT_EQ(cache.size(), keys.size() - 1);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(cache.hit(keys[i], net::SimTime(1)), i != victim)
          << "victim " << victim << " key " << i;
    }
  }
  util::Rng rng(42);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::uint64_t> order = keys;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    TtlCache cache;
    for (const std::uint64_t k : keys) {
      cache.put(k, net::SimTime(0), net::SimTime::from_hours(1));
    }
    for (std::size_t gone = 0; gone < order.size(); ++gone) {
      EXPECT_FALSE(cache.hit(order[gone], later));
      for (std::size_t i = gone + 1; i < order.size(); ++i) {
        ASSERT_TRUE(cache.hit(order[i], net::SimTime(1)))
            << "round " << round << " lost a key after " << gone + 1
            << " erases";
      }
    }
    EXPECT_EQ(cache.size(), 0u);
    // The emptied table takes the same keys again.
    for (const std::uint64_t k : keys) {
      cache.put(k, net::SimTime(0), net::SimTime::from_hours(1));
    }
    for (const std::uint64_t k : keys) {
      EXPECT_TRUE(cache.hit(k, net::SimTime(1)));
    }
  }
}

TEST(TtlCache, SweepAcrossAWrappedCluster) {
  const std::vector<std::uint64_t> keys = wrapped_cluster();
  for (std::uint32_t mask = 0; mask < (1u << keys.size()); ++mask) {
    // Bit i set: key i expires at minute 1 (swept), else at minute 100.
    TtlCache cache;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const bool dies = (mask >> i) & 1u;
      cache.put(keys[i], net::SimTime(0),
                net::SimTime::from_minutes(dies ? 1 : 100));
    }
    ASSERT_EQ(cache.slot_count(), 16u);
    cache.sweep(net::SimTime::from_minutes(10));
    std::size_t survivors = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const bool dies = (mask >> i) & 1u;
      survivors += dies ? 0 : 1;
      EXPECT_EQ(cache.hit(keys[i], net::SimTime::from_minutes(10)), !dies)
          << "mask " << mask << " key " << i;
    }
    EXPECT_EQ(cache.size(), survivors);
    EXPECT_EQ(cache.expirations(), 0u) << "sweep already removed them";
  }
}

TEST(TtlCache, TableGrowsWithLiveEntriesNotCapacity) {
  TtlCache cache(1'000'000);
  EXPECT_EQ(cache.slot_count(), 0u);  // nothing allocated up front
  cache.put(1, net::SimTime(0), net::SimTime::from_hours(1));
  EXPECT_EQ(cache.slot_count(), 16u);
  for (std::uint64_t key = 0; key < 1000; ++key) {
    cache.put(key, net::SimTime(0), net::SimTime::from_hours(1));
  }
  EXPECT_EQ(cache.size(), 1000u);
  EXPECT_EQ(cache.slot_count(), 2048u);
  for (std::uint64_t key = 0; key < 1000; ++key) {
    EXPECT_TRUE(cache.hit(key, net::SimTime(1)));
  }
}

}  // namespace
}  // namespace rootstress::resolver
