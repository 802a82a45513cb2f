#include "sim/probe_rng.h"

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

namespace rootstress::sim {
namespace {

TEST(ProbeRng, StreamKeyIsAPureFunctionOfItsInputs) {
  const net::SimTime t(123456);
  const std::uint64_t a = probe_stream_key(7, 3, 991, t);
  // Recomputing anywhere, any number of times, gives the same key.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(probe_stream_key(7, 3, 991, t), a);
  }
  // Every component of the identity matters.
  EXPECT_NE(probe_stream_key(8, 3, 991, t), a);
  EXPECT_NE(probe_stream_key(7, 4, 991, t), a);
  EXPECT_NE(probe_stream_key(7, 3, 992, t), a);
  EXPECT_NE(probe_stream_key(7, 3, 991, net::SimTime(123457)), a);
}

TEST(ProbeRng, StreamKeyGoldenValues) {
  // Pinned keys: every probe record depends on them, so a change to
  // util::stream_key that moves one of these changes every replay.
  EXPECT_EQ(probe_stream_key(42, 0, 0, net::SimTime(0)),
            0x126b7212c13d5e99ull);
  EXPECT_EQ(probe_stream_key(42, 3, 117, net::SimTime(3600000)),
            0x3310e0e7f2cae760ull);
  EXPECT_EQ(probe_stream_key(1130, -1, -7, net::SimTime(-5)),
            0xe01eb00eafbf320bull);
}

TEST(ProbeRng, DrawsIndependentOfOtherStreams) {
  // The draws one probe makes must not depend on what other probes drew
  // before it — that is the property that makes probing parallelizable.
  util::Rng alone = probe_rng(42, 1, 10, net::SimTime(1000));
  const double d1 = alone.uniform(0.0, 1.0);
  const double d2 = alone.uniform(0.0, 1.0);

  // Interleave: exercise a bunch of other streams, then redo ours.
  for (int vp = 0; vp < 50; ++vp) {
    util::Rng other = probe_rng(42, 1, vp + 100, net::SimTime(1000));
    (void)other.uniform(0.0, 1.0);
  }
  util::Rng again = probe_rng(42, 1, 10, net::SimTime(1000));
  EXPECT_DOUBLE_EQ(again.uniform(0.0, 1.0), d1);
  EXPECT_DOUBLE_EQ(again.uniform(0.0, 1.0), d2);
}

TEST(ProbeRng, OrderingOfConstructionDoesNotMatter) {
  // Build the same set of streams in two different orders; each stream's
  // first draw must match its counterpart.
  std::vector<double> forward;
  for (int vp = 0; vp < 20; ++vp) {
    util::Rng rng = probe_rng(9, 2, vp, net::SimTime(5000));
    forward.push_back(rng.uniform(0.0, 1.0));
  }
  std::vector<double> backward(20);
  for (int vp = 19; vp >= 0; --vp) {
    util::Rng rng = probe_rng(9, 2, vp, net::SimTime(5000));
    backward[static_cast<std::size_t>(vp)] = rng.uniform(0.0, 1.0);
  }
  EXPECT_EQ(forward, backward);
}

TEST(ProbeRng, NearbyKeysDoNotCollide) {
  // Adjacent (service, vp, time) tuples — the dense case the engine
  // generates — must produce distinct stream keys.
  std::unordered_set<std::uint64_t> keys;
  for (int s = 0; s < 14; ++s) {
    for (int vp = 0; vp < 64; ++vp) {
      for (std::int64_t ms = 0; ms < 4; ++ms) {
        keys.insert(probe_stream_key(1, s, vp, net::SimTime(ms * 240000)));
      }
    }
  }
  EXPECT_EQ(keys.size(), 14u * 64u * 4u);
}

TEST(ProbeRng, SeedZeroAndSeedOneDiffer) {
  EXPECT_NE(probe_stream_key(0, 0, 0, net::SimTime(0)),
            probe_stream_key(1, 0, 0, net::SimTime(0)));
}

}  // namespace
}  // namespace rootstress::sim
