#include "anycast/deployment.h"

#include <gtest/gtest.h>

namespace rootstress::anycast {
namespace {

class DeploymentTest : public ::testing::Test {
 protected:
  static RootDeployment::Config small_config() {
    RootDeployment::Config config;
    config.seed = 7;
    config.topology.stub_count = 300;
    return config;
  }
};

TEST_F(DeploymentTest, BuildsAllServices) {
  RootDeployment deployment(small_config());
  // 13 letters + .nl.
  EXPECT_EQ(deployment.services().size(), 14u);
  EXPECT_EQ(deployment.service('A').letter, 'A');
  EXPECT_EQ(deployment.service('N').letter, 'N');
  EXPECT_THROW(deployment.service('Z'), std::out_of_range);
  EXPECT_GT(deployment.site_count(), 300);  // hundreds of sites
}

TEST_F(DeploymentTest, NlCanBeExcluded) {
  auto config = small_config();
  config.include_nl = false;
  RootDeployment deployment(config);
  EXPECT_EQ(deployment.services().size(), 13u);
  EXPECT_THROW(deployment.service('N'), std::out_of_range);
}

TEST_F(DeploymentTest, SiteLookupAndMetadata) {
  RootDeployment deployment(small_config());
  const auto kams = deployment.find_site('K', "AMS");
  ASSERT_TRUE(kams.has_value());
  const AnycastSite& site = deployment.site(*kams);
  EXPECT_EQ(site.letter(), 'K');
  EXPECT_EQ(site.label(), "K-AMS");
  EXPECT_GE(site.host_as(), 0);
  EXPECT_FALSE(deployment.find_site('K', "XXX").has_value());
}

TEST_F(DeploymentTest, EveryServiceHasComputedRoutes) {
  RootDeployment deployment(small_config());
  for (const auto& svc : deployment.services()) {
    const auto& routes = deployment.routing().routes(svc.prefix);
    EXPECT_EQ(routes.size(),
              static_cast<std::size_t>(deployment.topology().as_count()));
    int reachable = 0;
    for (const auto& r : routes) reachable += r.reachable() ? 1 : 0;
    EXPECT_GT(reachable, deployment.topology().as_count() / 2) << svc.letter;
  }
}

TEST_F(DeploymentTest, HBackupStartsDown) {
  RootDeployment deployment(small_config());
  const auto& h = deployment.service('H');
  ASSERT_EQ(h.site_ids.size(), 2u);
  EXPECT_EQ(deployment.site(h.site_ids[0]).scope(), SiteScope::kGlobal);
  EXPECT_EQ(deployment.site(h.site_ids[1]).scope(), SiteScope::kDown);
  EXPECT_FALSE(deployment.routing().announced(h.prefix, h.site_ids[1]));
}

TEST_F(DeploymentTest, LocalSitesStartScoped) {
  RootDeployment deployment(small_config());
  int locals = 0;
  for (int id = 0; id < deployment.site_count(); ++id) {
    const auto& site = deployment.site(id);
    if (!site.spec().global && site.letter() != 'H') {
      EXPECT_EQ(site.scope(), SiteScope::kLocalOnly) << site.label();
      ++locals;
    }
  }
  EXPECT_GT(locals, 20);
}

TEST_F(DeploymentTest, ApplyScopeMovesRoutes) {
  RootDeployment deployment(small_config());
  const auto& k = deployment.service('K');
  const int kams = *deployment.find_site('K', "AMS");
  const auto changes =
      deployment.apply_scope(kams, SiteScope::kDown, net::SimTime(60000));
  EXPECT_FALSE(changes.empty());
  EXPECT_EQ(deployment.site(kams).scope(), SiteScope::kDown);
  for (const auto& route : deployment.routing().routes(k.prefix)) {
    EXPECT_NE(route.site_id, kams);
  }
  // Idempotent.
  EXPECT_TRUE(
      deployment.apply_scope(kams, SiteScope::kDown, net::SimTime(61000))
          .empty());
}

TEST_F(DeploymentTest, SharedFacilitiesWiredUp) {
  RootDeployment deployment(small_config());
  const int kfra = *deployment.find_site('K', "FRA");
  const int dfra = *deployment.find_site('D', "FRA");
  EXPECT_GE(deployment.site(kfra).facility(), 0);
  EXPECT_EQ(deployment.site(kfra).facility(), deployment.site(dfra).facility());
  // .nl collateral sites share with B-LAX and H-SAN.
  const auto& nl = deployment.service('N');
  const int nl_lax = nl.site_ids[0];
  const int blax = *deployment.find_site('B', "LAX");
  EXPECT_EQ(deployment.site(nl_lax).facility(),
            deployment.site(blax).facility());
}

TEST_F(DeploymentTest, DeterministicForSeed) {
  RootDeployment a(small_config());
  RootDeployment b(small_config());
  ASSERT_EQ(a.site_count(), b.site_count());
  for (int id = 0; id < a.site_count(); ++id) {
    EXPECT_EQ(a.site(id).label(), b.site(id).label());
    EXPECT_EQ(a.site(id).host_as(), b.site(id).host_as());
  }
  EXPECT_EQ(a.topology().as_count(), b.topology().as_count());
}

TEST_F(DeploymentTest, PeerStubsAttached) {
  RootDeployment deployment(small_config());
  // K-LHR is configured with 10 IXP peer stubs; its host AS must have
  // peer links beyond its transit uplinks.
  const int klhr = *deployment.find_site('K', "LHR");
  const int host = deployment.site(klhr).host_as();
  int peers = 0;
  for (const auto& link : deployment.topology().links(host)) {
    if (link.rel == bgp::Rel::kPeer) ++peers;
  }
  EXPECT_GT(peers, 3);
}

TEST(SyntheticSiteCode, KeepsTheFourDigitFormatBelowOneHundredThousand) {
  // The former "Z%c%04d" codes, byte for byte.
  EXPECT_EQ(synthetic_site_code('A', 0), "ZA0000");
  EXPECT_EQ(synthetic_site_code('A', 17), "ZA0017");
  EXPECT_EQ(synthetic_site_code('C', 9999), "ZC9999");
  EXPECT_EQ(synthetic_site_code('A', 10000), "ZA10000");
  EXPECT_EQ(synthetic_site_code('B', 99999), "ZB99999");
}

TEST(SyntheticSiteCode, NeverTruncates) {
  // A fixed 8-byte buffer turned site 100000 into "ZA10000", the code of
  // site 10000.
  EXPECT_EQ(synthetic_site_code('A', 100000), "ZA100000");
  EXPECT_NE(synthetic_site_code('A', 100000), synthetic_site_code('A', 10000));
  EXPECT_EQ(synthetic_site_code('A', 1234567), "ZA1234567");
}

}  // namespace
}  // namespace rootstress::anycast
