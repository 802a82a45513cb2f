// Fabric wire protocol: every message kind must round-trip encode ->
// parse exactly (including 64-bit keys past 2^53 and NaN summary
// fields), malformed and mutated lines must be rejected rather than crash
// the peer, and LineChannel must frame correctly across partial reads and
// EOF.
#include "sweep/fabric/protocol.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.h"

namespace rootstress::sweep::fabric {
namespace {

RunSummary sample_summary() {
  RunSummary summary;
  summary.config_hash = 0xfeedfacecafebeefull;  // > 2^53: breaks naive JSON
  summary.mean_served_attacked = 1.0 / 3.0;
  summary.worst_letter_loss = 0.1 + 0.2;
  summary.record_count = 849576;
  summary.route_changes = 123776;
  summary.kept_vps = 389;
  summary.rssac_day0_queries = 1.23456789012345e12;
  LetterCellSummary b;
  b.letter = 'B';
  b.attacked = true;
  b.served_fraction = 0.07000000000000001;
  b.baseline_vps = 389;
  b.min_vps = 12;
  b.worst_loss = 1.0 - 12.0 / 389.0;
  b.median_rtt_quiet_ms = 31.25;
  b.median_rtt_event_ms = 1e-308;
  summary.letters.push_back(b);
  return summary;
}

TEST(FabricProtocol, HelloRoundTrips) {
  const auto msg = parse_message(encode_hello(4242));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->kind, MessageKind::kHello);
  EXPECT_EQ(msg->pid, 4242);
  EXPECT_EQ(msg->version, kProtocolVersion);
}

TEST(FabricProtocol, ControlMessagesRoundTrip) {
  auto lease = parse_message(encode_lease(17));
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->kind, MessageKind::kLease);
  EXPECT_EQ(lease->index, 17u);

  auto ack = parse_message(encode_ack(9));
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->kind, MessageKind::kAck);
  EXPECT_EQ(ack->index, 9u);

  auto shutdown = parse_message(encode_shutdown());
  ASSERT_TRUE(shutdown.has_value());
  EXPECT_EQ(shutdown->kind, MessageKind::kShutdown);
}

TEST(FabricProtocol, HeartbeatRoundTrips) {
  const auto msg = parse_message(encode_heartbeat(3, 1234.5));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->kind, MessageKind::kHeartbeat);
  EXPECT_EQ(msg->index, 3u);
  EXPECT_NEAR(msg->elapsed_ms, 1234.5, 1e-3);
}

TEST(FabricProtocol, ErrorFoldsNewlinesIntoOneLine) {
  const std::string line =
      encode_error(5, "engine threw:\nstack line 1\nstack line 2");
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const auto msg = parse_message(line);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->kind, MessageKind::kError);
  EXPECT_EQ(msg->index, 5u);
  EXPECT_EQ(msg->error, "engine threw: stack line 1 stack line 2");
}

TEST(FabricProtocol, ResultRoundTripsBitExactly) {
  WireResult original;
  original.index = 11;
  original.key = 0xfeedfacecafebeefull;  // must survive as a u64, not a double
  original.wall_ms = 1912.0625;
  original.cache_hit = true;
  original.timeline_digest = 0x8000000000000001ull;
  original.timeline_series = 42;
  original.timeline_spans = 7;
  original.summary = sample_summary();

  const std::string line = encode_result(original);
  EXPECT_EQ(line.find('\n'), std::string::npos) << "framing must be one line";
  const auto msg = parse_message(line);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->kind, MessageKind::kResult);
  EXPECT_EQ(msg->result.index, 11u);
  EXPECT_EQ(msg->result.key, 0xfeedfacecafebeefull);
  EXPECT_EQ(msg->result.wall_ms, 1912.0625);
  EXPECT_TRUE(msg->result.cache_hit);
  EXPECT_EQ(msg->result.timeline_digest, 0x8000000000000001ull);
  EXPECT_EQ(msg->result.timeline_series, 42u);
  EXPECT_EQ(msg->result.timeline_spans, 7u);
  // Bit-exact: defaulted operator==, doubles included.
  EXPECT_TRUE(msg->result.summary == original.summary);
}

TEST(FabricProtocol, ResultCarriesNanSummaryFields) {
  WireResult original;
  original.index = 0;
  original.key = 1;
  original.summary = sample_summary();
  original.summary.worst_bin_answered =
      std::numeric_limits<double>::quiet_NaN();
  original.summary.letters[0].median_rtt_event_ms =
      std::numeric_limits<double>::quiet_NaN();

  const auto msg = parse_message(encode_result(original));
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(std::isnan(msg->result.summary.worst_bin_answered));
  EXPECT_TRUE(
      std::isnan(msg->result.summary.letters[0].median_rtt_event_ms));
  EXPECT_TRUE(msg->result.summary == original.summary);  // NaN-aware
}

TEST(FabricProtocol, MalformedLinesAreRejectedNotFatal) {
  EXPECT_FALSE(parse_message("").has_value());
  EXPECT_FALSE(parse_message("BOGUS 1 2 3").has_value());
  EXPECT_FALSE(parse_message("LEASE").has_value());
  EXPECT_FALSE(parse_message("LEASE notanumber").has_value());
  EXPECT_FALSE(parse_message("HELLO 12").has_value());
  EXPECT_FALSE(parse_message("HEARTBEAT 1").has_value());
  EXPECT_FALSE(parse_message("RESULT {not json").has_value());
  EXPECT_FALSE(parse_message("RESULT {\"index\": 1}").has_value());
  // A RESULT whose key is a raw number (would have been rounded) is
  // rejected: the grammar demands the decimal-string convention.
  EXPECT_FALSE(
      parse_message("RESULT {\"index\": 1, \"key\": 123, \"wall_ms\": 1.0}")
          .has_value());
}

TEST(FabricProtocol, MutatedLinesParseOrAreRejected) {
  // Seeded mutation loop over a valid line of every message kind: bytes
  // overwritten, the line truncated, a slice duplicated in place. The
  // parser reads whatever a worker's socket delivers, so every variant
  // must come back as a message or nullopt, never a crash or a throw.
  WireResult result;
  result.index = 3;
  result.key = 0xfeedfacecafebeefull;
  result.wall_ms = 12.5;
  result.summary = sample_summary();
  const std::vector<std::string> valid = {
      encode_hello(4242),         encode_lease(17),
      encode_ack(9),              encode_shutdown(),
      encode_heartbeat(3, 1234.5), encode_result(result),
      encode_error(5, "engine threw"),
  };
  util::Rng rng(20151130);
  int parsed = 0;
  int rejected = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string line = valid[rng.below(valid.size())];
    switch (rng.below(3)) {
      case 0:  // overwrite 1-4 bytes
        for (std::uint64_t n = 1 + rng.below(4); n > 0; --n) {
          line[rng.below(line.size())] = static_cast<char>(rng.below(256));
        }
        break;
      case 1:  // truncate
        line.resize(rng.below(line.size()));
        break;
      default: {  // duplicate a slice in place
        const std::size_t from = rng.below(line.size());
        const std::size_t len = 1 + rng.below(line.size() - from);
        line.insert(from, line.substr(from, len));
        break;
      }
    }
    std::optional<Message> msg;
    ASSERT_NO_THROW(msg = parse_message(line)) << "line: " << line;
    if (msg.has_value()) {
      EXPECT_LE(static_cast<int>(msg->kind),
                static_cast<int>(MessageKind::kError));
      ++parsed;
    } else {
      ++rejected;
    }
  }
  // Both outcomes occur, so the loop reaches past the keyword check.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(FabricLineChannel, FramesLinesAcrossPartialWrites) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  LineChannel writer(sv[0]);
  LineChannel reader(sv[1]);

  ASSERT_TRUE(writer.send_line("LEASE 1"));
  ASSERT_TRUE(writer.send_line("LEASE 2"));
  // A partial line (no newline yet) must stay buffered...
  const char partial[] = "LEA";
  ASSERT_EQ(::send(sv[0], partial, 3, 0), 3);

  std::vector<std::string> lines;
  ASSERT_TRUE(reader.read_lines(lines));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "LEASE 1");
  EXPECT_EQ(lines[1], "LEASE 2");

  // ...and complete once the rest arrives.
  const char tail[] = "SE 3\n";
  ASSERT_EQ(::send(sv[0], tail, 5, 0), 5);
  lines.clear();
  ASSERT_TRUE(reader.read_lines(lines));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "LEASE 3");

  writer.close_fd();
  reader.close_fd();
}

TEST(FabricLineChannel, EofFlushesBufferedLinesThenReportsDead) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  LineChannel writer(sv[0]);
  LineChannel reader(sv[1]);

  ASSERT_TRUE(writer.send_line("HELLO 1 1"));
  writer.close_fd();

  std::vector<std::string> lines;
  // The buffered line is surfaced first (a blocking fd returns as soon
  // as it has bytes)...
  EXPECT_TRUE(reader.read_lines(lines));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "HELLO 1 1");
  // ...and the next read observes EOF and reports the peer dead.
  lines.clear();
  EXPECT_FALSE(reader.read_lines(lines));
  EXPECT_TRUE(lines.empty());
  EXPECT_FALSE(reader.alive());
  // Sends to a dead channel fail without raising SIGPIPE.
  EXPECT_FALSE(reader.send_line("LEASE 1"));
  reader.close_fd();
}

}  // namespace
}  // namespace rootstress::sweep::fabric
