// Regression guard for the allocation-free Atlas probe path: an answered
// probe writes its CHAOS reply straight to wire in an inline buffer and
// reads it back through dns::decode_view(), so the profiler's
// atlas-probing phase must charge (almost) no heap allocations per probe
// record, at one thread and at four, and the two runs must record the
// same probes.
#include <gtest/gtest.h>

#include <cstring>

#include "sim/engine.h"
#include "sim/scenario_builder.h"

namespace rootstress {
namespace {

sim::ScenarioConfig small_traced_replay(int threads) {
  // K only, 50 VPs, hours 5-11 of Nov 30: the first event (06:50-09:30)
  // with quiet time on both sides, so probes time out, error and answer.
  return sim::ScenarioBuilder::november_2015()
      .vp_count(50)
      .probe_letters({'K'})
      .span(net::SimTime::from_hours(5), net::SimTime::from_hours(11))
      .threads(threads)
      .telemetry(true)
      .build();
}

struct ProbeCost {
  sim::SimulationResult result;
  std::uint64_t probing_allocs = 0;
};

ProbeCost run_traced(int threads) {
  sim::SimulationEngine engine(small_traced_replay(threads));
  ProbeCost cost{engine.run()};
  for (const auto& phase : cost.result.telemetry.phases) {
    if (phase.name == "atlas-probing") cost.probing_allocs += phase.allocs;
  }
  return cost;
}

TEST(ProbePath, AllocationFreeAtOneAndFourThreads) {
  const ProbeCost serial = run_traced(1);
  const ProbeCost pooled = run_traced(4);

  for (const ProbeCost* cost : {&serial, &pooled}) {
    const auto probes = cost->result.cleaning.total_records;
    ASSERT_GT(probes, 1000u);
    // Before the direct wire writer and decode_view this was ~18.1.
    EXPECT_LT(static_cast<double>(cost->probing_allocs) /
                  static_cast<double>(probes),
              0.01)
        << cost->probing_allocs << " allocations over " << probes
        << " probe records";
  }

  EXPECT_EQ(serial.result.cleaning.total_records,
            pooled.result.cleaning.total_records);
  ASSERT_EQ(serial.result.records.size(), pooled.result.records.size());
  static_assert(sizeof(atlas::ProbeRecord) == 16);
  EXPECT_EQ(std::memcmp(serial.result.records.data(),
                        pooled.result.records.data(),
                        serial.result.records.size() *
                            sizeof(atlas::ProbeRecord)),
            0);
}

}  // namespace
}  // namespace rootstress
