#include "dns/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dns/chaos.h"
#include "dns/edns.h"
#include "dns/server.h"
#include "util/rng.h"

namespace rootstress::dns {
namespace {

Message sample_response() {
  Message q = Message::query(0x1234, *Name::parse("www.336901.com"),
                             RrType::kA, RrClass::kIn);
  Message m = Message::response_to(q, Rcode::kNoError);
  m.header.aa = true;
  m.header.ra = true;
  const Name com = *Name::parse("com");
  for (char c = 'a'; c <= 'e'; ++c) {
    const Name ns = *Name::parse(std::string(1, c) + ".gtld-servers.net");
    m.authority.push_back(ResourceRecord::ns(com, 172800, ns));
    m.additional.push_back(ResourceRecord::a(ns, 172800, 0xc02a0000u + c));
  }
  return m;
}

TEST(Wire, QueryRoundTrip) {
  const Message q = Message::query(0xbeef, *Name::parse("example.com"),
                                   RrType::kTxt, RrClass::kCh, true);
  const auto wire = encode(q);
  const auto decoded = decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->header.id, 0xbeef);
  EXPECT_FALSE(decoded->header.qr);
  EXPECT_TRUE(decoded->header.rd);
  ASSERT_EQ(decoded->questions.size(), 1u);
  EXPECT_EQ(decoded->questions[0].qname, *Name::parse("example.com"));
  EXPECT_EQ(decoded->questions[0].qtype, RrType::kTxt);
  EXPECT_EQ(decoded->questions[0].qclass, RrClass::kCh);
}

TEST(Wire, FullResponseRoundTrip) {
  const Message m = sample_response();
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->header.aa, true);
  EXPECT_EQ(decoded->header.ra, true);
  EXPECT_EQ(decoded->authority.size(), 5u);
  EXPECT_EQ(decoded->additional.size(), 5u);
  EXPECT_EQ(decoded->authority[0].name, *Name::parse("com"));
  EXPECT_EQ(decoded->additional[2].type, RrType::kA);
}

TEST(Wire, AttackQueryPayloadSizesMatchPaperBins) {
  // The paper identifies the events by RSSAC size bins: the Nov 30 name
  // lands in the 32-47B bin, the Dec 1 name in the 16-31B bin (§3.1).
  const auto q1 = Message::query(1, *Name::parse("www.336901.com"),
                                 RrType::kA, RrClass::kIn);
  const auto q2 = Message::query(1, *Name::parse("www.916yy.com"),
                                 RrType::kA, RrClass::kIn);
  const std::size_t s1 = encode(q1).size();
  const std::size_t s2 = encode(q2).size();
  EXPECT_GE(s1, 32u);
  EXPECT_LT(s1, 48u);
  EXPECT_GE(s2, 16u);
  EXPECT_LT(s2, 32u);
}

TEST(Wire, CompressionShrinksRepeatedNames) {
  Message m = sample_response();
  const auto wire = encode(m);
  // Uncompressed size: sum of full owner names; compression must beat a
  // generous bound. "com" repeats 5x, "gtld-servers.net" suffix 10x.
  std::size_t uncompressed = 12;
  for (const auto& q : m.questions) {
    uncompressed += q.qname.wire_length() + 4;
  }
  auto record_size = [](const ResourceRecord& rr) {
    return rr.name.wire_length() + 10 + rr.rdata.size();
  };
  for (const auto& rr : m.authority) uncompressed += record_size(rr);
  for (const auto& rr : m.additional) uncompressed += record_size(rr);
  EXPECT_LT(wire.size(), uncompressed - 40);
}

TEST(Wire, DecodesCompressedPointers) {
  // Hand-built message with a compression pointer: question for "a.b",
  // answer owner pointing at offset 12.
  const std::vector<std::uint8_t> wire{
      0x00, 0x01, 0x80, 0x00, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
      // question: a.b A IN at offset 12
      1, 'a', 1, 'b', 0, 0x00, 0x01, 0x00, 0x01,
      // answer: pointer to offset 12, A IN ttl=1 rdlen=4
      0xc0, 0x0c, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x04,
      1, 2, 3, 4};
  const auto m = decode(wire);
  ASSERT_TRUE(m.has_value());
  ASSERT_EQ(m->answers.size(), 1u);
  EXPECT_EQ(m->answers[0].name, *Name::parse("a.b"));
}

TEST(Wire, RejectsPointerLoop) {
  std::vector<std::uint8_t> wire{0x00, 0x01, 0x00, 0x00, 0x00, 0x01,
                                 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                                 // qname = pointer to itself
                                 0xc0, 0x0c, 0x00, 0x01, 0x00, 0x01};
  std::string error;
  EXPECT_FALSE(decode(wire, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Wire, RejectsShortHeader) {
  EXPECT_FALSE(decode(std::vector<std::uint8_t>{1, 2, 3}).has_value());
  EXPECT_FALSE(decode(std::vector<std::uint8_t>{}).has_value());
}

TEST(Wire, TruncationAtEveryByteNeverCrashes) {
  // Property: decode() must reject (not crash on) every prefix of a
  // valid message.
  const auto wire = encode(sample_response());
  const auto full = decode(wire);
  ASSERT_TRUE(full.has_value());
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const auto m = decode(std::span(wire.data(), len));
    // Prefixes shorter than the full message must fail (section counts
    // promise more data than present).
    EXPECT_FALSE(m.has_value()) << "prefix length " << len;
  }
}

TEST(Wire, RandomBytesNeverCrash) {
  util::Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> junk(rng.below(160));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    decode(junk);  // must not crash; result irrelevant
  }
  SUCCEED();
}

TEST(Wire, MutatedValidMessageNeverCrashes) {
  const auto wire = encode(sample_response());
  util::Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    auto copy = wire;
    const std::size_t pos = rng.below(copy.size());
    copy[pos] = static_cast<std::uint8_t>(rng.below(256));
    decode(copy);  // must not crash
  }
  SUCCEED();
}

// Property: randomly structured (valid) messages survive an
// encode/decode round trip semantically.
TEST(Wire, RandomMessagesRoundTrip) {
  util::Rng rng(2025);
  const char* label_pool[] = {"a", "zz", "example", "root-servers",
                              "net", "com", "k", "long-label-here"};
  auto random_name = [&]() {
    std::vector<std::string> labels;
    const std::size_t n = 1 + rng.below(4);
    for (std::size_t i = 0; i < n; ++i) {
      labels.emplace_back(label_pool[rng.below(8)]);
    }
    return *Name::from_labels(std::move(labels));
  };
  for (int trial = 0; trial < 500; ++trial) {
    Message m;
    m.header.id = static_cast<std::uint16_t>(rng.below(65536));
    m.header.qr = rng.chance(0.5);
    m.header.aa = rng.chance(0.5);
    m.header.rd = rng.chance(0.5);
    m.header.rcode = static_cast<Rcode>(rng.below(6));
    const std::size_t questions = rng.below(3);
    for (std::size_t i = 0; i < questions; ++i) {
      m.questions.push_back(
          Question{random_name(), RrType::kA, RrClass::kIn});
    }
    const std::size_t answers = rng.below(5);
    for (std::size_t i = 0; i < answers; ++i) {
      if (rng.chance(0.5)) {
        m.answers.push_back(ResourceRecord::a(
            random_name(), static_cast<std::uint32_t>(rng.below(1u << 20)),
            static_cast<std::uint32_t>(rng.next())));
      } else {
        m.answers.push_back(ResourceRecord::txt(
            random_name(), RrClass::kIn, 60, "some text payload"));
      }
    }
    const auto decoded = decode(encode(m));
    ASSERT_TRUE(decoded.has_value()) << "trial " << trial;
    ASSERT_EQ(decoded->questions.size(), m.questions.size());
    ASSERT_EQ(decoded->answers.size(), m.answers.size());
    EXPECT_EQ(decoded->header.id, m.header.id);
    EXPECT_EQ(decoded->header.qr, m.header.qr);
    EXPECT_EQ(decoded->header.rcode, m.header.rcode);
    for (std::size_t i = 0; i < m.questions.size(); ++i) {
      EXPECT_EQ(decoded->questions[i].qname, m.questions[i].qname);
    }
    for (std::size_t i = 0; i < m.answers.size(); ++i) {
      EXPECT_EQ(decoded->answers[i].name, m.answers[i].name);
      EXPECT_EQ(decoded->answers[i].type, m.answers[i].type);
      EXPECT_EQ(decoded->answers[i].ttl, m.answers[i].ttl);
      EXPECT_EQ(decoded->answers[i].rdata, m.answers[i].rdata);
    }
  }
}

// Property: queries with randomized names and EDNS buffer sizes (with
// and without ECS options) survive the wire round trip byte-faithfully,
// and mutations of them decode or fail — never crash.
TEST(Wire, RandomizedEdnsQueriesRoundTrip) {
  util::Rng rng(4242);
  auto random_name = [&]() {
    std::vector<std::string> labels;
    const std::size_t n = 1 + rng.below(5);
    for (std::size_t i = 0; i < n; ++i) {
      std::string label;
      const std::size_t len = 1 + rng.below(20);
      for (std::size_t c = 0; c < len; ++c) {
        label += static_cast<char>('a' + rng.below(26));
      }
      labels.push_back(std::move(label));
    }
    return *Name::from_labels(std::move(labels));
  };
  for (int trial = 0; trial < 500; ++trial) {
    Message query = Message::query(
        static_cast<std::uint16_t>(rng.below(65536)), random_name(),
        rng.chance(0.5) ? RrType::kA : RrType::kAaaa, RrClass::kIn);
    const auto udp_size = static_cast<std::uint16_t>(rng.below(65536));
    const bool dnssec = rng.chance(0.5);
    std::optional<ClientSubnet> subnet;
    if (rng.chance(0.5)) {
      subnet = ClientSubnet{
          net::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
          static_cast<std::uint8_t>(1 + rng.below(32)), 0};
    }
    add_edns(query, udp_size, dnssec, subnet);

    const auto wire = encode(query);
    const auto decoded = decode(wire);
    ASSERT_TRUE(decoded.has_value()) << "trial " << trial;
    EXPECT_EQ(decoded->questions[0].qname, query.questions[0].qname);
    const auto info = edns_info(*decoded);
    ASSERT_TRUE(info.has_value()) << "trial " << trial;
    EXPECT_EQ(info->udp_payload_size, udp_size);
    EXPECT_EQ(info->dnssec_ok, dnssec);
    const auto ecs = client_subnet(*decoded);
    if (subnet.has_value()) {
      ASSERT_TRUE(ecs.has_value()) << "trial " << trial;
      EXPECT_EQ(ecs->source_prefix_len, subnet->source_prefix_len);
    } else {
      EXPECT_FALSE(ecs.has_value());
    }

    // Garble a byte: must decode or fail, never crash — and the EDNS
    // accessors must stay total on whatever comes back.
    auto garbled = wire;
    garbled[rng.below(garbled.size())] =
        static_cast<std::uint8_t>(rng.below(256));
    if (const auto m = decode(garbled)) {
      edns_info(*m);
      client_subnet(*m);
    }
  }
}

TEST(Wire, ChaosQueryRoundTrip) {
  const auto wire = encode(make_chaos_query(0x77));
  const auto m = decode(wire);
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(is_chaos_query(*m));
}

// decode_view() must accept exactly the inputs decode() accepts and, on
// each of them, read the same header, section counts and first answer.
::testing::AssertionResult decoders_agree(std::span<const std::uint8_t> wire,
                                          bool* accepted) {
  const auto full = decode(wire);
  const auto view = decode_view(wire);
  *accepted = full.has_value();
  if (full.has_value() != view.has_value()) {
    return ::testing::AssertionFailure()
           << "decode " << (full ? "accepts" : "rejects") << ", decode_view "
           << (view ? "accepts" : "rejects") << " a " << wire.size()
           << "-byte message";
  }
  if (!full) return ::testing::AssertionSuccess();
  const Header& a = full->header;
  const Header& b = view->header;
  if (a.id != b.id || a.qr != b.qr || a.opcode != b.opcode || a.aa != b.aa ||
      a.tc != b.tc || a.rd != b.rd || a.ra != b.ra || a.rcode != b.rcode) {
    return ::testing::AssertionFailure() << "headers differ";
  }
  if (full->questions.size() != view->question_count ||
      full->answers.size() != view->answer_count ||
      full->authority.size() != view->authority_count ||
      full->additional.size() != view->additional_count) {
    return ::testing::AssertionFailure() << "section counts differ";
  }
  if (full->answers.empty() != !view->first_answer.has_value()) {
    return ::testing::AssertionFailure() << "first answer presence differs";
  }
  if (full->answers.empty()) return ::testing::AssertionSuccess();
  const ResourceRecord& rr = full->answers.front();
  const RecordView& rv = *view->first_answer;
  if (rr.type != rv.type || rr.klass != rv.klass || rr.ttl != rv.ttl ||
      !std::equal(rr.rdata.begin(), rr.rdata.end(), rv.rdata.begin(),
                  rv.rdata.end())) {
    return ::testing::AssertionFailure() << "first answers differ";
  }
  if (rr.txt_value() != rv.txt_value()) {
    return ::testing::AssertionFailure() << "TXT values differ";
  }
  return ::testing::AssertionSuccess();
}

using Bytes = std::vector<std::uint8_t>;

// Header + one IN A question whose qname is `qname_wire` (raw octets).
Bytes query_with_raw_qname(const Bytes& qname_wire) {
  Bytes wire(12 + qname_wire.size() + 4, 0);
  wire[0] = 0x12;  // id
  wire[1] = 0x34;
  wire[5] = 1;  // QDCOUNT
  std::copy(qname_wire.begin(), qname_wire.end(), wire.begin() + 12);
  wire[wire.size() - 3] = 1;  // QTYPE A
  wire[wire.size() - 1] = 1;  // QCLASS IN
  return wire;
}

Bytes label_run(std::initializer_list<std::size_t> lengths) {
  Bytes out;
  for (std::size_t len : lengths) {
    out.push_back(static_cast<std::uint8_t>(len));
    out.insert(out.end(), len, 'x');
  }
  out.push_back(0);
  return out;
}

// Differential fuzz loop: the CHAOS replies of all 13 letters and a root
// referral, cut at every length, with bytes flipped and compression
// pointers forged (self-loops, forward and past-the-end targets), plus
// hand-built names at and past the label and name limits. Seeded, so a
// failure reproduces.
TEST(Wire, DecodeViewAgreesWithDecodeOnMutants) {
  std::vector<Bytes> corpus;
  for (char letter = 'A'; letter <= 'M'; ++letter) {
    RootServer server(letter, "AMS", 2);
    corpus.push_back(encode(*server.answer(
        make_chaos_query(static_cast<std::uint16_t>(letter)),
        net::Ipv4Addr(1), net::SimTime(0))));
  }
  RootServer root('A', "IAD", 1);
  corpus.push_back(encode(*root.answer(
      Message::query(7, *Name::parse("www.336901.com"), RrType::kA,
                     RrClass::kIn),
      net::Ipv4Addr(1), net::SimTime(0))));

  // Names at and past the limits: a 63-octet label is fine, length bytes
  // 64 and up carry reserved bits; 255 octets is the longest name.
  corpus.push_back(query_with_raw_qname(label_run({63})));
  corpus.push_back(query_with_raw_qname(label_run({63, 63, 63, 61})));
  corpus.push_back(query_with_raw_qname(label_run({63, 63, 63, 62})));
  corpus.push_back(query_with_raw_qname(label_run({63, 63, 63, 63})));
  for (std::uint8_t len : {64, 65, 127, 128, 191}) {
    Bytes qname{len};
    qname.insert(qname.end(), len, 'x');
    qname.push_back(0);
    corpus.push_back(query_with_raw_qname(qname));
  }
  {
    // An answer name that only passes 255 octets through a pointer back
    // into the 253-octet question name.
    Bytes wire = query_with_raw_qname(label_run({63, 63, 63, 60}));
    wire[7] = 1;  // ANCOUNT
    wire.insert(wire.end(), {0x01, 'y', 0xc0, 0x0c, 0x00, 0x01, 0x00, 0x01,
                             0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 1, 2, 3, 4});
    corpus.push_back(wire);
  }

  util::Rng rng(0x5eed);
  std::size_t accepted_count = 0, rejected_count = 0;
  auto check = [&](const Bytes& wire) {
    bool accepted = false;
    const auto agree = decoders_agree(wire, &accepted);
    (accepted ? accepted_count : rejected_count) += 1;
    return agree;
  };
  for (const Bytes& base : corpus) {
    ASSERT_TRUE(check(base));
    for (std::size_t len = 0; len < base.size(); ++len) {
      ASSERT_TRUE(check(Bytes(base.begin(), base.begin() + len)))
          << "truncated to " << len;
    }
    for (std::size_t pos = 0; pos < base.size(); ++pos) {
      for (int flip = 0; flip < 4; ++flip) {
        Bytes mutant = base;
        mutant[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        ASSERT_TRUE(check(mutant)) << "byte " << pos << " flipped";
      }
    }
    for (std::size_t pos = 12; pos + 1 < base.size(); ++pos) {
      const std::size_t targets[] = {pos,  // self-loop
                                     pos + 2, base.size() - 1,  // forward
                                     base.size(), 0x3fff,  // past the end
                                     12, rng.below(base.size())};
      for (std::size_t target : targets) {
        Bytes mutant = base;
        mutant[pos] = static_cast<std::uint8_t>(0xc0 | (target >> 8));
        mutant[pos + 1] = static_cast<std::uint8_t>(target);
        ASSERT_TRUE(check(mutant))
            << "pointer at " << pos << " to " << target;
      }
    }
  }
  // The loop must exercise both outcomes.
  EXPECT_GT(accepted_count, 1000u);
  EXPECT_GT(rejected_count, 1000u);
}

TEST(Wire, DecodeViewReadsChaosReply) {
  RootServer server('K', "AMS", 2);
  const auto wire = encode(*server.answer(make_chaos_query(0x77),
                                          net::Ipv4Addr(1), net::SimTime(0)));
  const auto view = decode_view(wire);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->header.id, 0x77);
  EXPECT_TRUE(view->header.aa);
  EXPECT_EQ(view->question_count, 1);
  EXPECT_EQ(view->answer_count, 1);
  ASSERT_TRUE(view->first_answer.has_value());
  EXPECT_EQ(view->first_answer->txt_value(), server.identity());
  // The identity is a view into the wire bytes, not a copy.
  const auto txt = *view->first_answer->txt_value();
  EXPECT_GE(reinterpret_cast<const std::uint8_t*>(txt.data()), wire.data());
  EXPECT_LE(reinterpret_cast<const std::uint8_t*>(txt.data() + txt.size()),
            wire.data() + wire.size());
}

}  // namespace
}  // namespace rootstress::dns
