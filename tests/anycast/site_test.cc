#include "anycast/site.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "dns/chaos.h"
#include "dns/wire.h"

namespace rootstress::anycast {
namespace {

SiteSpec spec_with(ServerStressMode mode, int servers = 3) {
  SiteSpec spec;
  spec.code = "AMS";
  spec.servers = servers;
  spec.capacity_qps = 100e3;
  spec.buffer_packets = 150e3;
  spec.stress_mode = mode;
  return spec;
}

AnycastSite make_site(ServerStressMode mode, int servers = 3) {
  util::Rng rng(11);
  return AnycastSite(0, 'K', spec_with(mode, servers), net::GeoPoint{52, 4},
                     7, -1, StressPolicy::absorber(), rng);
}

std::vector<std::uint8_t> chaos_wire() {
  return dns::encode(dns::make_chaos_query(0x99));
}

TEST(Site, LabelAndAccessors) {
  auto site = make_site(ServerStressMode::kShareCongestion);
  EXPECT_EQ(site.label(), "K-AMS");
  EXPECT_EQ(site.server_count(), 3);
  EXPECT_EQ(site.host_as(), 7);
  EXPECT_EQ(site.scope(), SiteScope::kGlobal);
}

TEST(Site, IdleSiteAnswersEveryProbe) {
  auto site = make_site(ServerStressMode::kShareCongestion);
  site.begin_step(0.0, 1000.0, 0.0, net::SimTime(0));
  util::Rng rng(3);
  const auto wire = chaos_wire();
  for (int i = 0; i < 200; ++i) {
    const auto reply =
        site.probe(net::Ipv4Addr(static_cast<std::uint32_t>(i)), wire,
                   net::SimTime(0), rng);
    ASSERT_TRUE(reply.answered);
    ASSERT_GE(reply.server, 1);
    ASSERT_LE(reply.server, 3);
    EXPECT_LT(reply.extra_delay_ms, 10.0);
    // The reply must parse as this site's identity.
    const auto m = dns::decode(reply.wire);
    ASSERT_TRUE(m.has_value());
    const auto id = dns::parse_identity('K', *m->answers[0].txt_value());
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(id->site, "AMS");
    EXPECT_EQ(id->server, reply.server);
  }
}

TEST(Site, CapturedProbeStateReplaysItsStep) {
  // Probing a captured state after the site has stepped on (quiet ->
  // overloaded -> withdrawn) answers exactly as probing during the
  // captured step did: the state holds everything per-step a probe reads.
  for (const auto mode :
       {ServerStressMode::kShareCongestion, ServerStressMode::kConcentrate}) {
    auto site = make_site(mode);
    const auto query = *dns::decode(chaos_wire());
    site.begin_step(250e3, 1000.0, 0.0, net::SimTime(0));
    const SiteProbeState overloaded = site.probe_state();
    ASSERT_TRUE(overloaded.overloaded);
    std::vector<ProbeReply> live;
    for (std::uint32_t i = 0; i < 64; ++i) {
      util::Rng rng(i);
      live.push_back(site.probe(net::Ipv4Addr(i * 7919), query,
                                net::SimTime(0), rng));
    }
    site.begin_step(0.0, 1000.0, 0.0, net::SimTime(60'000));
    site.set_scope(SiteScope::kDown);
    for (std::uint32_t i = 0; i < 64; ++i) {
      util::Rng rng(i);
      const ProbeReply replay =
          site.probe_with(overloaded, net::Ipv4Addr(i * 7919), query, rng);
      const ProbeReply& then = live[i];
      ASSERT_EQ(replay.answered, then.answered) << i;
      EXPECT_EQ(replay.server, then.server) << i;
      EXPECT_EQ(replay.extra_delay_ms, then.extra_delay_ms) << i;
      ASSERT_EQ(replay.wire.size, then.wire.size) << i;
      EXPECT_TRUE(std::equal(replay.wire.bytes.begin(),
                             replay.wire.bytes.begin() + replay.wire.size,
                             then.wire.bytes.begin()))
          << i;
    }
    EXPECT_FALSE(site.probe_state().overloaded);
    EXPECT_TRUE(site.probe_state().down);
  }
}

TEST(Site, DownSiteNeverAnswers) {
  auto site = make_site(ServerStressMode::kShareCongestion);
  site.set_scope(SiteScope::kDown);
  site.begin_step(0.0, 1000.0, 0.0, net::SimTime(0));
  util::Rng rng(4);
  const auto wire = chaos_wire();
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(
        site.probe(net::Ipv4Addr(1), wire, net::SimTime(0), rng).answered);
  }
}

TEST(Site, OverloadLossMatchesQueueModel) {
  auto site = make_site(ServerStressMode::kShareCongestion);
  // 4x overload: loss 0.75 (modulated per server by load weights).
  site.begin_step(400e3, 0.0, 0.0, net::SimTime(0));
  EXPECT_NEAR(site.outcome().loss_fraction, 0.75, 1e-9);
  util::Rng rng(5);
  const auto wire = chaos_wire();
  int answered = 0;
  constexpr int kProbes = 4000;
  for (int i = 0; i < kProbes; ++i) {
    if (site.probe(net::Ipv4Addr(static_cast<std::uint32_t>(i * 97)), wire,
                   net::SimTime(0), rng)
            .answered) {
      ++answered;
    }
  }
  const double rate = answered / static_cast<double>(kProbes);
  EXPECT_GT(rate, 0.10);
  EXPECT_LT(rate, 0.40);
}

TEST(Site, ConcentrateModeUsesOneServer) {
  auto site = make_site(ServerStressMode::kConcentrate);
  site.begin_step(400e3, 0.0, 0.0, net::SimTime(0));
  util::Rng rng(6);
  const auto wire = chaos_wire();
  std::set<int> servers_seen;
  for (int i = 0; i < 3000; ++i) {
    const auto reply =
        site.probe(net::Ipv4Addr(static_cast<std::uint32_t>(i * 131)), wire,
                   net::SimTime(0), rng);
    if (reply.answered) servers_seen.insert(reply.server);
  }
  EXPECT_EQ(servers_seen.size(), 1u);
}

TEST(Site, ShareModeKeepsAllServersVisible) {
  auto site = make_site(ServerStressMode::kShareCongestion);
  site.begin_step(150e3, 0.0, 0.0, net::SimTime(0));  // mild overload
  util::Rng rng(7);
  const auto wire = chaos_wire();
  std::set<int> servers_seen;
  for (int i = 0; i < 5000; ++i) {
    const auto reply =
        site.probe(net::Ipv4Addr(static_cast<std::uint32_t>(i * 131)), wire,
                   net::SimTime(0), rng);
    if (reply.answered) servers_seen.insert(reply.server);
  }
  EXPECT_EQ(servers_seen.size(), 3u);
}

TEST(Site, BufferbloatShowsUpInProbeDelay) {
  auto site = make_site(ServerStressMode::kShareCongestion);
  site.begin_step(150e3, 0.0, 0.0, net::SimTime(0));
  util::Rng rng(8);
  const auto wire = chaos_wire();
  double max_delay = 0.0;
  for (int i = 0; i < 500; ++i) {
    const auto reply =
        site.probe(net::Ipv4Addr(static_cast<std::uint32_t>(i)), wire,
                   net::SimTime(0), rng);
    if (reply.answered) max_delay = std::max(max_delay, reply.extra_delay_ms);
  }
  // Full buffer = 150e3/100e3 = 1.5 s.
  EXPECT_GT(max_delay, 800.0);
}

TEST(Site, FacilityLossCompounds) {
  auto site = make_site(ServerStressMode::kShareCongestion);
  site.begin_step(50e3, 0.0, /*shared_loss=*/0.9, net::SimTime(0));
  EXPECT_NEAR(site.arrival_loss(), 0.9, 1e-9);
  util::Rng rng(9);
  const auto wire = chaos_wire();
  int answered = 0;
  for (int i = 0; i < 1000; ++i) {
    if (site.probe(net::Ipv4Addr(static_cast<std::uint32_t>(i)), wire,
                   net::SimTime(0), rng)
            .answered) {
      ++answered;
    }
  }
  EXPECT_LT(answered, 200);
}

TEST(Site, MalformedQueryWireYieldsNoAnswer) {
  auto site = make_site(ServerStressMode::kShareCongestion);
  site.begin_step(0.0, 0.0, 0.0, net::SimTime(0));
  util::Rng rng(10);
  const std::vector<std::uint8_t> junk{1, 2, 3};
  EXPECT_FALSE(site.probe(net::Ipv4Addr(1), junk, net::SimTime(0), rng)
                   .answered);
}

}  // namespace
}  // namespace rootstress::anycast
