#include "dns/server.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "dns/chaos.h"
#include "dns/wire.h"

namespace rootstress::dns {
namespace {

TEST(RootServer, AnswersChaosWithIdentity) {
  RootServer server('K', "AMS", 2);
  const auto response =
      server.answer(make_chaos_query(0x42), net::Ipv4Addr(1), net::SimTime(0));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->header.id, 0x42);
  EXPECT_TRUE(response->header.qr);
  EXPECT_TRUE(response->header.aa);
  ASSERT_EQ(response->answers.size(), 1u);
  const auto txt = response->answers[0].txt_value();
  ASSERT_TRUE(txt.has_value());
  const auto id = parse_identity('K', *txt);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(id->site, "AMS");
  EXPECT_EQ(id->server, 2);
  EXPECT_EQ(server.stats().chaos_queries, 1u);
}

TEST(RootServer, ReferralHasRealisticSize) {
  RootServer server('A', "IAD", 1);
  const Message q = Message::query(1, *Name::parse("www.336901.com"),
                                   RrType::kA, RrClass::kIn);
  const auto response = server.answer(q, net::Ipv4Addr(7), net::SimTime(0));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->header.rcode, Rcode::kNoError);
  EXPECT_FALSE(response->header.aa);  // referral, not authoritative data
  EXPECT_EQ(response->authority.size(), 13u);
  EXPECT_EQ(response->additional.size(), 13u);
  // The paper reports root referral responses of ~480-495 bytes (§3.1).
  const std::size_t size = encode(*response).size();
  EXPECT_GT(size, 420u);
  EXPECT_LT(size, 560u);
}

TEST(RootServer, ReferralTargetsTld) {
  RootServer server('A', "IAD", 1);
  const Message q = Message::query(1, *Name::parse("deep.sub.example.org"),
                                   RrType::kA, RrClass::kIn);
  const auto response = server.answer(q, net::Ipv4Addr(7), net::SimTime(0));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->authority[0].name, *Name::parse("org"));
}

TEST(RootServer, RrlDropsFloods) {
  RrlConfig rrl;
  rrl.responses_per_second = 1.0;
  rrl.burst = 5.0;
  rrl.slip = 0;
  RootServer server('B', "LAX", 1, rrl);
  const Message q = Message::query(1, *Name::parse("www.336901.com"),
                                   RrType::kA, RrClass::kIn);
  int answered = 0;
  for (int i = 0; i < 100; ++i) {
    if (server.answer(q, net::Ipv4Addr(0x0a000001), net::SimTime(0))) {
      ++answered;
    }
  }
  EXPECT_EQ(answered, 5);
  EXPECT_EQ(server.stats().rrl_dropped, 95u);
}

TEST(RootServer, RrlSlipSendsTruncated) {
  RrlConfig rrl;
  rrl.responses_per_second = 0.0;
  rrl.burst = 0.0;
  rrl.slip = 1;  // every suppressed answer slips
  RootServer server('B', "LAX", 1, rrl);
  const Message q = Message::query(1, *Name::parse("a.com"), RrType::kA,
                                   RrClass::kIn);
  const auto response =
      server.answer(q, net::Ipv4Addr(1), net::SimTime(0));
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->header.tc);
  EXPECT_TRUE(response->answers.empty());
}

TEST(RootServer, ChaosExemptFromRrl) {
  RrlConfig rrl;
  rrl.responses_per_second = 0.0;
  rrl.burst = 0.0;
  rrl.slip = 0;
  RootServer server('K', "LHR", 1, rrl);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(server
                    .answer(make_chaos_query(static_cast<std::uint16_t>(i)),
                            net::Ipv4Addr(1), net::SimTime(0))
                    .has_value());
  }
}

TEST(RootServer, RejectsMalformedAndNonIn) {
  RootServer server('C', "ORD", 1);
  Message bogus;  // no questions
  const auto formerr = server.answer(bogus, net::Ipv4Addr(1), net::SimTime(0));
  ASSERT_TRUE(formerr.has_value());
  EXPECT_EQ(formerr->header.rcode, Rcode::kFormErr);

  const Message hs = Message::query(1, *Name::parse("a"), RrType::kA,
                                    static_cast<RrClass>(4));
  const auto refused = server.answer(hs, net::Ipv4Addr(1), net::SimTime(0));
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->header.rcode, Rcode::kRefused);
}

TEST(RootServer, StatsAccumulate) {
  RootServer server('K', "AMS", 1);
  const Message q = Message::query(1, *Name::parse("x.com"), RrType::kA,
                                   RrClass::kIn);
  server.answer(q, net::Ipv4Addr(1), net::SimTime(0));
  server.answer(make_chaos_query(2), net::Ipv4Addr(1), net::SimTime(0));
  EXPECT_EQ(server.stats().queries, 2u);
  EXPECT_EQ(server.stats().responses, 2u);
}

// The probe path's direct CHAOS writer must put on the wire exactly what
// the message model encodes, and count exactly what answer() counts.
TEST(RootServer, ChaosWireWriterMatchesEncodedAnswer) {
  std::vector<Message> queries;
  for (std::uint16_t id : {0x0000, 0x0001, 0x5250, 0xbeef, 0xffff}) {
    queries.push_back(make_chaos_query(id));
  }
  Message rd = make_chaos_query(0x1111);
  rd.header.rd = true;
  queries.push_back(rd);
  queries.push_back(Message::query(0x2222, *Name::parse("HOSTNAME.BIND"),
                                   RrType::kTxt, RrClass::kCh));
  queries.push_back(Message::query(0x3333, *Name::parse("HostName.Bind."),
                                   RrType::kTxt, RrClass::kCh, true));
  Message opcode = make_chaos_query(0x4444);
  opcode.header.opcode = 2;
  queries.push_back(opcode);

  for (char letter = 'A'; letter <= 'M'; ++letter) {
    for (int index = 1; index <= 3; ++index) {
      RootServer direct(letter, "nrt", index);
      RootServer model(letter, "nrt", index);
      for (const Message& q : queries) {
        std::array<std::uint8_t, 512> buffer{};
        const std::size_t n = direct.write_chaos_reply(q, buffer);
        const auto expected =
            encode(*model.answer(q, net::Ipv4Addr(1), net::SimTime(0)));
        ASSERT_EQ(std::vector<std::uint8_t>(buffer.begin(),
                                            buffer.begin() + n),
                  expected)
            << letter << index << " id " << q.header.id;
      }
      EXPECT_EQ(direct.stats().queries, model.stats().queries);
      EXPECT_EQ(direct.stats().chaos_queries, model.stats().chaos_queries);
      EXPECT_EQ(direct.stats().responses, model.stats().responses);
      EXPECT_EQ(direct.stats().queries, queries.size());
    }
  }
}

TEST(RootServer, ChaosWireWriterDeclinesOtherQueries) {
  RootServer server('K', "AMS", 1);
  std::array<std::uint8_t, 512> buffer{};
  const Message in_query = Message::query(1, *Name::parse("hostname.bind"),
                                          RrType::kTxt, RrClass::kIn);
  EXPECT_EQ(server.write_chaos_reply(in_query, buffer), 0u);
  Message response = make_chaos_query(1);
  response.header.qr = true;
  EXPECT_EQ(server.write_chaos_reply(response, buffer), 0u);
  // A buffer too small for the reply is declined, not overrun.
  std::array<std::uint8_t, 40> small{};
  EXPECT_EQ(server.write_chaos_reply(make_chaos_query(1), small), 0u);
  EXPECT_EQ(server.stats().queries, 0u);
  EXPECT_EQ(server.stats().responses, 0u);
  EXPECT_GT(server.write_chaos_reply(make_chaos_query(1), buffer), 40u);
  EXPECT_EQ(server.stats().chaos_queries, 1u);
}

}  // namespace
}  // namespace rootstress::dns
