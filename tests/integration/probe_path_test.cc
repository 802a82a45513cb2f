// Regression guards for the Atlas probe path.
//
// Allocation-free: an answered probe writes its CHAOS reply straight to
// wire in an inline buffer and reads it back through dns::decode_view(),
// so the profiler's atlas-probing phase must charge (almost) no heap
// allocations per probe record, at one thread and at four, and the two
// runs must record the same probes.
//
// Block-stepped: the engine captures each step's probe-visible state and
// runs the probes of sim::kProbeBlockSteps steps in one parallel region.
// The record stream must equal the one probing step by step produced
// (golden digests), and the work must be one dispatch per block.
#include <gtest/gtest.h>

#include <cstring>

#include "fault/schedule.h"
#include "sim/engine.h"
#include "sim/scenario_builder.h"
#include "util/hash.h"

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

/// Steps whose probes the engine captures: those overlapping the window.
std::size_t captured_steps(const sim::ScenarioConfig& config) {
  std::size_t steps = 0;
  for (net::SimTime t = config.start; t < config.end; t = t + config.step) {
    if (config.probe_window.begin < t + config.step &&
        t < config.probe_window.end) {
      ++steps;
    }
  }
  return steps;
}

std::size_t blocks_for(std::size_t steps) {
  return (steps + sim::kProbeBlockSteps - 1) / sim::kProbeBlockSteps;
}

double metric(const sim::SimulationResult& result, const char* name) {
  const obs::MetricSample* sample = result.telemetry.find_metric(name);
  return sample == nullptr ? -1.0 : sample->value;
}

// 05:00 to 08:07 of Nov 30 (187 one-minute steps, not a multiple of the
// block length), probing A, J and K from 05:17:30 to 07:41:15. Both window
// edges fall inside a step and away from the run's hours, so the window's
// 145 captured steps split into blocks of 60, 60 and 25. The faults land
// inside blocks: a VP dropout at 05:40-06:10 (block 1), a BGP session
// reset of a K site at 06:33 (block 2), and a hardware failure of another
// K site from 06:50 (block 2, moving its catchment mid-block) to 07:25
// (block 3). The first attack event starts at 06:50 too.
sim::ScenarioConfig block_boundary_scenario(int threads) {
  const auto at = [](int h, int m, int s = 0) {
    return net::SimTime(((h * 60 + m) * 60 + s) * std::int64_t{1000});
  };
  return sim::ScenarioBuilder::november_2015()
      .vp_count(60)
      .probe_letters({'A', 'J', 'K'})
      .span(at(5, 0), at(8, 7))
      .probe_window(net::SimInterval{at(5, 17, 30), at(7, 41, 15)})
      .fault_schedule(
          fault::FaultScheduleBuilder()
              .name("block-boundaries")
              .vp_dropout(fault::VpDropout{
                  net::SimInterval{at(5, 40), at(6, 10)}, 0.3, 7})
              .bgp_reset(fault::BgpReset{'K', 1, at(6, 33),
                                         net::SimTime::from_minutes(4)})
              .site_fault('K', 0, net::SimInterval{at(6, 50), at(7, 25)})
              .build())
      .threads(threads)
      .telemetry(true)
      .build();
}

std::uint64_t record_digest(const atlas::RecordSet& records) {
  std::uint64_t hash = util::kFnvOffset;
  util::fnv1a(hash, records.data(), records.size() * sizeof(atlas::ProbeRecord));
  return hash;
}

TEST(ProbePath, BlockBoundariesMatchPerStepGolden) {
  // Captured from the per-step prober (one parallel region per step)
  // that block-stepped probing replaced, at one and at four threads.
  constexpr std::size_t kGoldenTotalRecords = 4348;
  constexpr std::size_t kGoldenKeptRecords = 4271;
  constexpr std::uint64_t kGoldenDigest = 0x6c7cc1f2dd7c9fcdULL;

  const sim::ScenarioConfig shape = block_boundary_scenario(1);
  const std::size_t steps = captured_steps(shape);
  ASSERT_EQ(steps, 145u);
  ASSERT_NE(steps % sim::kProbeBlockSteps, 0u);

  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    sim::SimulationEngine engine(block_boundary_scenario(threads));
    const sim::SimulationResult result = engine.run();
    EXPECT_EQ(result.cleaning.total_records, kGoldenTotalRecords);
    EXPECT_EQ(result.records.size(), kGoldenKeptRecords);
    EXPECT_EQ(record_digest(result.records), kGoldenDigest);
    EXPECT_EQ(metric(result, "atlas.probe_blocks{component=engine}"),
              static_cast<double>(blocks_for(steps)));

    // The scenario moves a K catchment inside a block, not on its edge.
    const int k = result.service_index('K');
    bool moved_mid_block = false;
    for (const bgp::RouteChange& change : result.route_changes) {
      const std::int64_t step =
          (change.time - shape.start).ms / shape.step.ms;
      const std::int64_t first =
          (shape.probe_window.begin - shape.start).ms / shape.step.ms;
      const std::int64_t in_window = step - first;
      if (change.prefix == k && in_window > 0 &&
          in_window < static_cast<std::int64_t>(steps) &&
          in_window % static_cast<std::int64_t>(sim::kProbeBlockSteps) != 0) {
        moved_mid_block = true;
      }
    }
    EXPECT_TRUE(moved_mid_block);
  }
}

TEST(ProbePath, OneDispatchPerBlockOfCapturedSteps) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const sim::ScenarioConfig config = small_traced_replay(threads);
    sim::SimulationEngine probing(config);
    const sim::SimulationResult probed = probing.run();
    sim::ScenarioConfig silent_config = config;
    silent_config.collect_records = false;
    sim::SimulationEngine silent(silent_config);
    const sim::SimulationResult unprobed = silent.run();

    const std::size_t steps = captured_steps(config);
    ASSERT_GT(steps, sim::kProbeBlockSteps);
    const double blocks = static_cast<double>(blocks_for(steps));
    EXPECT_EQ(metric(probed, "atlas.probe_blocks{component=engine}"), blocks);
    EXPECT_EQ(metric(unprobed, "atlas.probe_blocks{component=engine}"), 0.0);
    // Probing adds one dispatch per block, where stepping it added one
    // per captured step.
    EXPECT_EQ(metric(probed, "parallel.dispatches{component=engine}") -
                  metric(unprobed, "parallel.dispatches{component=engine}"),
              blocks);
  }
}

}  // namespace
}  // namespace rootstress
