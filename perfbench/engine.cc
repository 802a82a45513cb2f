// Engine runs shared by the simulator workloads: one engine constructed
// and run with its phase profiler, and the per-layer report of a set of
// such runs.
#include <algorithm>
#include <string>

#include "common.h"

namespace perfbench {

namespace {

/// Engine phases the profiler names. Each is reported (0 when no run
/// entered it) so every workload prints the same per-layer set.
constexpr const char* kPhases[] = {
    "topology-build",      "fault-injection", "fluid-stepping",
    "resolver-population", "rssac-accounting", "atlas-probing",
    "defense-policy",      "timeline-record", "bgp-convergence",
    "cleaning"};

}  // namespace

EngineRun run_engine(const rootstress::sim::ScenarioConfig& config) {
  EngineRun run;
  const auto begin = Clock::now();
  rootstress::sim::SimulationEngine engine(config);
  run.setup_ms = seconds_since(begin) * 1e3;
  run.result = engine.run();
  run.engine_ms = seconds_since(begin) * 1e3;
  return run;
}

void report_engine_runs(const std::vector<EngineRun>& runs, Report& report) {
  double setup_ms = 0.0;
  double unprofiled_ms = 0.0;
  double reselects = 0.0;
  double resolver_steps = 0.0;
  double probes = 0.0;
  for (const EngineRun& run : runs) {
    const auto& telemetry = run.result.telemetry;
    setup_ms += run.setup_ms;
    double profiled_ms = 0.0;
    for (const auto& phase : telemetry.phases) {
      profiled_ms += static_cast<double>(phase.self_ns) / 1e6;
      if (phase.name == "resolver-population") {
        resolver_steps += static_cast<double>(phase.calls);
      }
    }
    unprofiled_ms += std::max(0.0, run.engine_ms - profiled_ms);
    for (const auto& m : telemetry.metrics) {
      if (m.name == "bgp.incremental_reselects") reselects += m.value;
    }
    probes += static_cast<double>(run.result.cleaning.total_records);
  }
  for (const char* name : kPhases) {
    double ms = 0.0;
    double allocs = 0.0;
    for (const EngineRun& run : runs) {
      for (const auto& phase : run.result.telemetry.phases) {
        if (phase.name != name) continue;
        ms += static_cast<double>(phase.self_ns) / 1e6;
        allocs += static_cast<double>(phase.allocs);
      }
    }
    const std::string prefix = std::string("sim.phase.") + name;
    report.layer(prefix + "_ms", ms);
    report.count(prefix + ".allocs", allocs);
    if (std::string(name) == "atlas-probing" && probes > 0) {
      report.layer("atlas.ns_per_probe", ms * 1e6 / probes);
      report.count("atlas.allocs_per_probe", allocs / probes);
    }
  }
  report.layer("sim.setup_ms",
               setup_ms / static_cast<double>(std::max<std::size_t>(
                              1, runs.size())));
  report.layer("sim.unprofiled_ms", unprofiled_ms);
  report.count("bgp.incremental_reselects", reselects);
  report.count("resolver.steps", resolver_steps);
  report.count("atlas.probe_records", probes);
}

}  // namespace perfbench
