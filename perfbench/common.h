// Shared plumbing of the RootStress benchmark binary: run options, the
// report every workload fills, and small timing/digest helpers.
//
// A workload records three kinds of numbers, kept apart on purpose:
//   samples  — timings (CPU and wall seconds), one value per
//              repetition; run.py reports their median and quartiles;
//   counts   — deterministic counters (probe records, route changes,
//              allocations, ...) that repeat exactly for a seed; those
//              that define the output are gated exactly against
//              perfbench/reference.json;
//   layers   — per-layer metrics of the traced run (phase times, per-unit
//              costs, ratios), printed only with --trace 1.
// Plus named pass/fail output checks and attempted/failed operation
// counts. The binary prints the whole report as one JSON line.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "sim/engine.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  /// Reference digests and counts; empty skips the reference gate.
  std::string reference_path;
  /// Writable directory for run artifacts (the campaign cache).
  std::string scratch_dir = ".";
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

/// CPU seconds used so far by every thread of this process
/// (`CLOCK_PROCESS_CPUTIME_ID`) or by the calling thread
/// (`CLOCK_THREAD_CPUTIME_ID`). Unlike wall time, CPU time excludes the
/// time a shared host's hypervisor steals from the vCPUs, which comes in
/// bursts that slow every wall clock by tens of percent for minutes; the
/// gated end-to-end timings therefore count CPU seconds.
inline double cpu_seconds(clockid_t clock = CLOCK_PROCESS_CPUTIME_ID) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Wall and process CPU time since construction.
struct Stopwatch {
  Clock::time_point wall_begin = Clock::now();
  double cpu_begin = cpu_seconds();

  double wall_s() const { return seconds_since(wall_begin); }
  double cpu_s() const { return cpu_seconds() - cpu_begin; }
};

/// FNV-1a 64 over bytes, as a fixed-width hex string (JSON numbers are
/// doubles and cannot carry 64-bit digests exactly).
std::string digest_hex(std::string_view bytes);

/// Median of `values` (0 when empty).
double median(std::vector<double> values);

class Report {
 public:
  void sample(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  /// Median of a sample series (0 when it has none).
  double sample_median(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : median(it->second);
  }
  void count(const std::string& name, double value) { counts_[name] = value; }
  void layer(const std::string& name, double value) { layers_[name] = value; }
  void digest(const std::string& name, std::string hex) {
    digests_[name] = std::move(hex);
  }
  /// Records an output check; a false check makes the run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail);
  /// One attempted operation (a replay, a campaign cell, a wire query
  /// batch); `failed` when it threw or produced a wrong result.
  void operation(std::uint64_t attempted, std::uint64_t failed = 0) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// Compares digests and counts against the workload's entry of the
  /// reference document, when it lists this seed. Every mismatch is a
  /// failed check.
  void gate_reference(const Options& options);

  rootstress::obs::JsonValue to_json(const Options& options) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> counts_;
  std::map<std::string, double> layers_;
  std::map<std::string, std::string> digests_;
  rootstress::obs::JsonValue checks_ = rootstress::obs::JsonValue::array();
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// One engine constructed and run; `setup_ms` covers construction,
/// `engine_ms` construction plus run.
struct EngineRun {
  double setup_ms = 0.0;
  double engine_ms = 0.0;
  rootstress::sim::SimulationResult result;
};

EngineRun run_engine(const rootstress::sim::ScenarioConfig& config);

/// Per-layer report of telemetry-on engine runs: profiler phase self
/// times and allocations summed over the runs (`sim.phase.*`), time
/// outside every phase, mean construction time, per-probe costs, and the
/// engine's deterministic work counters.
void report_engine_runs(const std::vector<EngineRun>& runs, Report& report);

/// The workloads. Each fills `report`; exceptions escaping them are
/// caught in main and reported as a failed run.
void run_replay(const Options& options, Report& report);
void run_campaign(const Options& options, Report& report);
void run_wire(const Options& options, Report& report);

}  // namespace perfbench
