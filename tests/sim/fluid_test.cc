#include "sim/fluid.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace rootstress::sim {
namespace {

anycast::RootDeployment::Config small_config() {
  anycast::RootDeployment::Config config;
  config.seed = 3;
  config.topology.stub_count = 250;
  return config;
}

TEST(Fluid, ServiceLoadConservesTraffic) {
  anycast::RootDeployment deployment(small_config());
  const auto botnet = attack::Botnet::build(deployment.topology(), {});
  const auto legit = attack::LegitTraffic::build(deployment.topology(), {});
  const auto& svc = deployment.service('K');
  const auto load =
      compute_service_load(deployment, svc, botnet, legit, 5e6, 40e3);

  double attack_total = load.unrouted_attack;
  double legit_total = load.unrouted_legit;
  for (int id = 0; id < deployment.site_count(); ++id) {
    attack_total += load.attack_qps[static_cast<std::size_t>(id)];
    legit_total += load.legit_qps[static_cast<std::size_t>(id)];
    // Traffic only lands on K's own sites.
    if (load.attack_qps[static_cast<std::size_t>(id)] > 0 ||
        load.legit_qps[static_cast<std::size_t>(id)] > 0) {
      EXPECT_EQ(deployment.site(id).letter(), 'K');
    }
  }
  EXPECT_NEAR(attack_total, 5e6, 1.0);
  EXPECT_NEAR(legit_total, 40e3, 1.0);
}

TEST(Fluid, NoAttackNoAttackLoad) {
  anycast::RootDeployment deployment(small_config());
  const auto botnet = attack::Botnet::build(deployment.topology(), {});
  const auto legit = attack::LegitTraffic::build(deployment.topology(), {});
  const auto load = compute_service_load(deployment, deployment.service('D'),
                                         botnet, legit, 0.0, 40e3);
  for (const double qps : load.attack_qps) EXPECT_DOUBLE_EQ(qps, 0.0);
  EXPECT_DOUBLE_EQ(load.unrouted_attack, 0.0);
}

TEST(Fluid, UplinkGbpsMath) {
  anycast::RootDeployment deployment(small_config());
  const auto& site = deployment.site(*deployment.find_site('K', "AMS"));
  // 1M q/s of 32B-payload queries: ingress = 1e6 * 60B * 8 = 0.48 Gb/s.
  // Served = min(1e6, capacity=1.3e6) = 1e6; egress with 40% suppression
  // = 1e6 * 0.6 * 518 * 8 = 2.49 Gb/s.
  const double gbps = site_uplink_gbps(site, 1e6, 32.0, 490.0, 0.4);
  EXPECT_NEAR(gbps, 0.48 + 2.486, 0.02);
}

TEST(Fluid, UplinkClampsAtCapacity) {
  anycast::RootDeployment deployment(small_config());
  const auto& site = deployment.site(*deployment.find_site('B', "LAX"));
  const double cap = site.spec().capacity_qps;
  const double at_5m = site_uplink_gbps(site, 5e6, 32.0, 490.0, 0.0);
  const double at_10m = site_uplink_gbps(site, 10e6, 32.0, 490.0, 0.0);
  // Ingress keeps growing, egress is clamped at capacity.
  const double ingress_delta = (10e6 - 5e6) * 60.0 * 8.0 / 1e9;
  EXPECT_NEAR(at_10m - at_5m, ingress_delta, 0.01);
  EXPECT_GT(at_5m, cap * 518.0 * 8.0 / 1e9);  // includes egress
}

TEST(Fluid, UplinkSuppressionClampsToUnitRange) {
  anycast::RootDeployment deployment(small_config());
  const auto& site = deployment.site(*deployment.find_site('K', "AMS"));
  // Suppression outside [0, 1] clamps: > 1 kills all egress (ingress
  // remains), < 0 behaves as no suppression.
  const double over = site_uplink_gbps(site, 1e6, 32.0, 490.0, 1.7);
  const double full = site_uplink_gbps(site, 1e6, 32.0, 490.0, 1.0);
  EXPECT_DOUBLE_EQ(over, full);
  EXPECT_NEAR(full, 1e6 * 60.0 * 8.0 / 1e9, 1e-9);  // ingress only
  const double under = site_uplink_gbps(site, 1e6, 32.0, 490.0, -0.5);
  const double none = site_uplink_gbps(site, 1e6, 32.0, 490.0, 0.0);
  EXPECT_DOUBLE_EQ(under, none);
  EXPECT_GT(none, full);
}

TEST(Fluid, UplinkZeroOfferedIsZero) {
  anycast::RootDeployment deployment(small_config());
  const auto& site = deployment.site(*deployment.find_site('K', "AMS"));
  EXPECT_DOUBLE_EQ(site_uplink_gbps(site, 0.0, 32.0, 490.0, 0.0), 0.0);
}

TEST(Fluid, IntoVariantMatchesAndReusesBuffers) {
  anycast::RootDeployment deployment(small_config());
  const auto botnet = attack::Botnet::build(deployment.topology(), {});
  const auto legit = attack::LegitTraffic::build(deployment.topology(), {});
  const auto& svc = deployment.service('K');

  const auto fresh =
      compute_service_load(deployment, svc, botnet, legit, 5e6, 40e3);
  ServiceLoad reused;
  compute_service_load_into(deployment, svc, botnet, legit, 5e6, 40e3,
                            reused);
  EXPECT_EQ(reused.attack_qps, fresh.attack_qps);
  EXPECT_EQ(reused.legit_qps, fresh.legit_qps);
  EXPECT_DOUBLE_EQ(reused.unrouted_attack, fresh.unrouted_attack);
  EXPECT_DOUBLE_EQ(reused.unrouted_legit, fresh.unrouted_legit);

  // Rewriting the same buffer — including the attack→no-attack edge that
  // must zero stale per-site attack entries — matches a fresh compute.
  const double* before = reused.attack_qps.data();
  compute_service_load_into(deployment, svc, botnet, legit, 0.0, 40e3,
                            reused);
  EXPECT_EQ(reused.attack_qps.data(), before);  // no reallocation
  const auto fresh2 =
      compute_service_load(deployment, svc, botnet, legit, 0.0, 40e3);
  EXPECT_EQ(reused.attack_qps, fresh2.attack_qps);
  EXPECT_EQ(reused.legit_qps, fresh2.legit_qps);
  for (const double qps : reused.attack_qps) EXPECT_DOUBLE_EQ(qps, 0.0);
  EXPECT_DOUBLE_EQ(reused.unrouted_attack, 0.0);
}


bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// A persistent ServiceLoad that skips recomputation when the catchment
// epoch and both rates' bit patterns repeat must hold exactly what a fresh
// computation writes, through routing churn and awkward rate values.
TEST(FluidLoad, ReusedLoadMatchesFresh) {
  anycast::RootDeployment deployment(small_config());
  const auto botnet = attack::Botnet::build(deployment.topology(), {});
  const auto legit = attack::LegitTraffic::build(deployment.topology(), {});
  const auto& svc = deployment.service('K');
  ASSERT_GE(svc.site_ids.size(), 2u);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  // +0.0/-0.0 and the two NaNs compare equal-or-unordered but differ in
  // bits; 0.1 + 0.2 and 0.3 differ by one ulp.
  const std::array<double, 9> rates = {
      5e6, 40e3, 0.0, -0.0, nan, -nan, 0.1 + 0.2, 0.3, 1.25e5};
  util::Rng rng(20151130);
  ServiceLoad persistent;
  double attack = rates[0];
  double legit_qps = rates[1];
  std::uint64_t moves = 0;
  constexpr int kSteps = 400;
  for (int step = 0; step < kSteps; ++step) {
    const auto now = net::SimTime::from_minutes(step);
    const int site =
        svc.site_ids[static_cast<std::size_t>(rng.below(svc.site_ids.size()))];
    switch (rng.below(6)) {
      case 0:
        moves += !deployment.apply_scope(site, anycast::SiteScope::kDown, now)
                      .empty();
        break;
      case 1:
        moves +=
            !deployment.apply_scope(site, anycast::SiteScope::kGlobal, now)
                 .empty();
        break;
      case 2:
        moves +=
            !deployment.apply_scope(site, anycast::SiteScope::kLocalOnly, now)
                 .empty();
        break;
      case 3:
        moves += !deployment
                      .apply_prepend(site, static_cast<int>(rng.below(4)), now)
                      .empty();
        break;
      default:  // steady routing: only the rates may change
        break;
    }
    // Rates repeat often, so reuse is exercised, and change bit pattern
    // without changing value, so a value-equality key would be caught.
    if (rng.below(3) == 0) attack = rates[rng.below(rates.size())];
    if (rng.below(3) == 0) legit_qps = rates[rng.below(rates.size())];

    compute_service_load_into(deployment, svc, botnet, legit, attack,
                              legit_qps, persistent);
    const ServiceLoad fresh =
        compute_service_load(deployment, svc, botnet, legit, attack, legit_qps);
    ASSERT_TRUE(same_bits(persistent.attack_qps, fresh.attack_qps))
        << "step " << step;
    ASSERT_TRUE(same_bits(persistent.legit_qps, fresh.legit_qps))
        << "step " << step;
    ASSERT_TRUE(same_bits(persistent.unrouted_attack, fresh.unrouted_attack))
        << "step " << step;
    ASSERT_TRUE(same_bits(persistent.unrouted_legit, fresh.unrouted_legit))
        << "step " << step;
  }
  EXPECT_EQ(persistent.recomputes + persistent.reuses,
            static_cast<std::uint64_t>(kSteps));
  EXPECT_GT(moves, 0u) << "the sequence never moved the catchment";
  EXPECT_GT(persistent.reuses, 0u);
  EXPECT_GT(persistent.recomputes, moves);
}

TEST(FluidLoad, ReuseKeysOnBitsNotValues) {
  anycast::RootDeployment deployment(small_config());
  const auto botnet = attack::Botnet::build(deployment.topology(), {});
  const auto legit = attack::LegitTraffic::build(deployment.topology(), {});
  const auto& svc = deployment.service('K');
  ServiceLoad load;
  compute_service_load_into(deployment, svc, botnet, legit, 0.0, 40e3, load);
  compute_service_load_into(deployment, svc, botnet, legit, 0.0, 40e3, load);
  EXPECT_EQ(load.recomputes, 1u);
  EXPECT_EQ(load.reuses, 1u);
  compute_service_load_into(deployment, svc, botnet, legit, -0.0, 40e3, load);
  EXPECT_EQ(load.recomputes, 2u) << "-0.0 must not reuse +0.0's result";
  // A withdrawal that moves ASes bumps the epoch; the rates alone repeat.
  bool moved = false;
  for (const int site : svc.site_ids) {
    moved = !deployment.apply_scope(site, anycast::SiteScope::kDown,
                                    net::SimTime(1))
                 .empty();
    if (moved) break;
  }
  ASSERT_TRUE(moved);
  compute_service_load_into(deployment, svc, botnet, legit, -0.0, 40e3, load);
  EXPECT_EQ(load.recomputes, 3u);
  EXPECT_EQ(load.reuses, 1u);
}

TEST(FluidLoad, RoutingWithoutSinkSlotIsRejected) {
  anycast::RootDeployment deployment(small_config());
  const auto botnet = attack::Botnet::build(deployment.topology(), {});
  const auto legit = attack::LegitTraffic::build(deployment.topology(), {});
  deployment.routing().set_unrouted_slot(-1);
  ServiceLoad load;
  EXPECT_THROW(compute_service_load_into(deployment, deployment.service('K'),
                                         botnet, legit, 5e6, 40e3, load),
               std::logic_error);
}

}  // namespace
}  // namespace rootstress::sim
