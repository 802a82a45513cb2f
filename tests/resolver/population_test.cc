// ResolverPopulation unit contract: validation, cache-key fingerprint
// conventions, behavioural sanity of the cache/retry model, and the
// bit-identical-at-any-thread-count determinism promise.
#include "resolver/population.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>

namespace rootstress::resolver {
namespace {

PopulationConfig small_config() {
  PopulationConfig config;
  config.resolvers = 120;
  config.root_lookups_per_hour = 3600.0;  // one per second: plenty of draws
  config.name_space = 50;
  return config;
}

std::array<double, kLetterCount> all(double value) {
  std::array<double, kLetterCount> a{};
  a.fill(value);
  return a;
}

TEST(Population, StreamKeyGoldenValues) {
  // Pinned keys: every resolver draw depends on them, so a change to
  // util::stream_key that moves one of these changes every end-user
  // digest.
  EXPECT_EQ(resolver_stream_key(42, 0, 0), 0xbdc7d5e024e5780full);
  EXPECT_EQ(resolver_stream_key(42, 999, 2879), 0xf5a3f60754c77616ull);
  EXPECT_EQ(resolver_stream_key(1130, -3, ~std::uint64_t{0}),
            0x4e4d715ac9d8a2b9ull);
}

TEST(Population, ValidateAcceptsTheDefault) {
  EXPECT_EQ(validate_population(PopulationConfig{}), "");
}

TEST(Population, ValidateRejectsBrokenConfigs) {
  PopulationConfig config;
  config.resolvers = 0;
  EXPECT_NE(validate_population(config), "");
  config = PopulationConfig{};
  config.referral_ttl = net::SimTime(0);
  EXPECT_NE(validate_population(config), "");
  config = PopulationConfig{};
  config.name_space = 0;
  EXPECT_NE(validate_population(config), "");
  config = PopulationConfig{};
  config.max_attempts = 0;
  EXPECT_NE(validate_population(config), "");
  config = PopulationConfig{};
  config.per_try_timeout_ms = 0.0;
  EXPECT_NE(validate_population(config), "");
  config = PopulationConfig{};
  config.demand_skew = -0.5;
  EXPECT_NE(validate_population(config), "");
}

TEST(Population, FingerprintExcludesTheDisplayName) {
  PopulationConfig a = small_config();
  a.name = "alpha";
  PopulationConfig b = small_config();
  b.name = "beta";
  EXPECT_EQ(population_fingerprint(a).dump(), population_fingerprint(b).dump());

  PopulationConfig c = small_config();
  c.cache_capacity = a.cache_capacity + 1;
  EXPECT_NE(population_fingerprint(a).dump(), population_fingerprint(c).dump());
}

TEST(Population, HealthyLettersMeanNearPerfectSuccess) {
  ResolverPopulation pop(small_config(), /*seed=*/1, net::SimTime(0),
                         net::SimTime::from_minutes(30),
                         net::SimTime::from_seconds(60),
                         net::SimTime::from_minutes(10));
  util::ThreadPool pool(1);
  for (std::int64_t m = 0; m < 30; ++m) {
    pop.step(net::SimTime::from_minutes(static_cast<double>(m)), all(1.0),
             all(60.0), 1.0, pool);
  }
  const EndUserReport& report = pop.report();
  ASSERT_TRUE(report.enabled);
  EXPECT_DOUBLE_EQ(report.success_rate(), 1.0);
  // Multi-hour TTLs over a 50-name space: the cache absorbs most lookups.
  EXPECT_GT(report.cache_hit_rate(), 0.5);
  EXPECT_EQ(report.retries_per_query(), 0.0);
}

TEST(Population, DeadLettersProduceRetriesAndFailures) {
  ResolverPopulation pop(small_config(), /*seed=*/2, net::SimTime(0),
                         net::SimTime::from_minutes(10),
                         net::SimTime::from_seconds(60),
                         net::SimTime::from_minutes(10));
  util::ThreadPool pool(1);
  for (std::int64_t m = 0; m < 10; ++m) {
    pop.step(net::SimTime::from_minutes(static_cast<double>(m)), all(0.0),
             all(60.0), 1.0, pool);
  }
  const EndUserReport& report = pop.report();
  // Nothing ever answers: every root-bound query exhausts its attempts.
  EXPECT_DOUBLE_EQ(report.success_rate(), 0.0);
  EXPECT_GT(report.retries_per_query(), 0.0);
  EXPECT_GT(report.added_latency_ms(), 1000.0);  // timeout-dominated
}

TEST(Population, CacheLessClientsSendEveryQueryRootward) {
  PopulationConfig config = small_config();
  config.enable_cache = false;
  ResolverPopulation pop(config, /*seed=*/3, net::SimTime(0),
                         net::SimTime::from_minutes(10),
                         net::SimTime::from_seconds(60),
                         net::SimTime::from_minutes(10));
  util::ThreadPool pool(1);
  for (std::int64_t m = 0; m < 10; ++m) {
    pop.step(net::SimTime::from_minutes(static_cast<double>(m)), all(1.0),
             all(60.0), 1.0, pool);
  }
  const EndUserReport& report = pop.report();
  std::uint64_t clients = 0, roots = 0, hits = 0;
  for (const std::uint64_t q : report.client_queries) clients += q;
  for (const std::uint64_t q : report.root_queries) roots += q;
  for (const std::uint64_t h : report.cache_hits) hits += h;
  EXPECT_GT(clients, 0u);
  EXPECT_EQ(hits, 0u);
  EXPECT_EQ(roots, clients);
}

TEST(Population, EmptyReportAggregatesAreNaN) {
  EndUserReport report;
  EXPECT_TRUE(std::isnan(report.success_rate()));
  EXPECT_TRUE(std::isnan(report.cache_hit_rate()));
  EXPECT_TRUE(std::isnan(report.retries_per_query()));
  EXPECT_TRUE(std::isnan(report.added_latency_ms()));
  EXPECT_TRUE(std::isnan(
      report.success_rate_between(0, net::SimTime::from_hours(1).ms)));
}

// The determinism contract at the unit level: identical inputs through a
// serial pool and a 4-lane pool produce a bit-identical report (fixed
// shard layout, per-(resolver, step) RNG streams, shard-order merge).
TEST(Population, ReportBitIdenticalAcrossPoolSizes) {
  const auto drive = [](util::ThreadPool& pool) {
    ResolverPopulation pop(small_config(), /*seed=*/7, net::SimTime(0),
                           net::SimTime::from_minutes(20),
                           net::SimTime::from_seconds(60),
                           net::SimTime::from_minutes(10));
    for (std::int64_t m = 0; m < 20; ++m) {
      // Degraded middle phase, flash-crowd demand at the end: exercise
      // retries, failures, and the demand-scale path.
      const double health = (m >= 5 && m < 12) ? 0.4 : 1.0;
      const double demand = m >= 15 ? 2.5 : 1.0;
      pop.step(net::SimTime::from_minutes(static_cast<double>(m)),
               all(health), all(80.0), demand, pool);
    }
    return pop.report();
  };
  util::ThreadPool serial(1);
  util::ThreadPool pooled(4);
  const EndUserReport a = drive(serial);
  const EndUserReport b = drive(pooled);
  ASSERT_GT(a.client_queries.size(), 0u);
  EXPECT_EQ(a.digest(), b.digest())
      << "resolver population diverged between 1 and 4 pool threads";
  EXPECT_EQ(a.client_queries, b.client_queries);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.latency_sum_ms, b.latency_sum_ms);
}

TEST(Population, DigestCoversEveryCounter) {
  EndUserReport a;
  a.enabled = true;
  a.bin_ms = 1;
  a.client_queries = {5};
  a.cache_hits = {1};
  a.root_queries = {4};
  a.retries = {2};
  a.failures = {1};
  a.latency_sum_ms = {10.0};
  EndUserReport b = a;
  EXPECT_EQ(a.digest(), b.digest());
  b.latency_sum_ms = {10.000001};
  EXPECT_NE(a.digest(), b.digest());
  b = a;
  b.retries = {3};
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Population, SuccessRateBetweenSlicesTheWindow) {
  EndUserReport report;
  report.enabled = true;
  report.start_ms = 0;
  report.bin_ms = 1000;
  report.client_queries = {10, 10, 10};
  report.failures = {0, 5, 10};
  report.cache_hits = {0, 0, 0};
  report.root_queries = {10, 10, 10};
  report.retries = {0, 0, 0};
  report.latency_sum_ms = {0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(report.success_rate_between(0, 1000), 1.0);
  EXPECT_DOUBLE_EQ(report.success_rate_between(1000, 2000), 0.5);
  EXPECT_DOUBLE_EQ(report.success_rate_between(2000, 3000), 0.0);
  EXPECT_DOUBLE_EQ(report.success_rate_between(0, 3000), 0.5);
}

}  // namespace
}  // namespace rootstress::resolver
