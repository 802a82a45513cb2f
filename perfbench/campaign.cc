// Workload campaign_whatif: a cold, fluid-only what-if campaign in process
// (4 workers x 1 engine lane), then a warm re-run over the same cache.
//
// Grid: attack_qps {2.5, 5, 10 Mq/s} x playbook {none, withdraw at
// threshold, layered defense} x fault {none, 2015 pulse wave} x resolver
// profile {none, cached SRTT} = 36 cells. Campaign axes cannot express
// "no playbook" or "no resolver profile" (those are the base config
// without the axis), so the grid runs as four campaigns sharing one
// cache: {no playbook, playbook axis} x {no profile, cached profile}.
//
// Untraced run: repeated cold + warm passes until the time budget is
// spent; each pair gives a `job_cpu_s` sample (CPU seconds of all
// threads) and a wall-time sample. Traced run: one pass with a
// ProgressSink recording the executor's queueing and busy time, then the
// expanded cells re-run one at a time, untraced and then with engine
// telemetry on, for the phase profile and the tracing overhead.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "fault/schedule.h"
#include "playbook/rules.h"
#include "sim/scenario_builder.h"
#include "sweep/cache.h"
#include "sweep/runner.h"

namespace perfbench {
namespace {

using namespace rootstress;

constexpr int kWorkers = 4;
constexpr int kSetupsPerJob = 2;

std::vector<sweep::Campaign> whatif_grid(std::uint64_t seed) {
  const sim::ScenarioConfig base = sim::ScenarioBuilder::november_2015()
                                       .fluid_only()
                                       .seed(seed)
                                       .threads(1)
                                       .telemetry(false)
                                       .build();
  resolver::PopulationConfig cached;
  cached.name = "cached-srtt";
  cached.strategy = resolver::Strategy::kSrtt;
  cached.enable_cache = true;

  std::vector<sweep::Campaign> grid;
  for (const bool with_profile : {false, true}) {
    for (const bool with_playbook : {false, true}) {
      sweep::Campaign campaign;
      campaign.name = std::string("whatif") + (with_playbook ? "-pb" : "") +
                      (with_profile ? "-resolver" : "");
      campaign.base = base;
      if (with_profile) campaign.base.resolver_profile = cached;
      campaign.add(sweep::Axis::attack_qps({2.5e6, 5e6, 1e7}));
      if (with_playbook) {
        campaign.add(sweep::Axis::playbook(
            {playbook::Playbook::withdraw_at_threshold(),
             playbook::Playbook::layered_defense()}));
      }
      campaign.add(sweep::Axis::fault_schedule(
          {fault::FaultSchedule{}, fault::FaultSchedule::pulse_wave_2015()}));
      grid.push_back(std::move(campaign));
    }
  }
  return grid;
}

/// Records the executor's per-cell timing for the traced run.
class ExecutorSpans : public sweep::ProgressSink {
 public:
  void cell_started(const sweep::CellProgress&,
                    const sweep::ProgressSnapshot& snapshot) override {
    const std::scoped_lock lock(mutex_);
    queue_wait_ms_.push_back(snapshot.elapsed_ms);
  }
  void cell_finished(const sweep::CellProgress& cell,
                     const sweep::ProgressSnapshot&) override {
    const std::scoped_lock lock(mutex_);
    if (!cell.cached) cell_ms_.push_back(cell.wall_ms);
  }
  void campaign_finished(const sweep::ProgressSnapshot& snapshot) override {
    const std::scoped_lock lock(mutex_);
    execute_ms_ += snapshot.elapsed_ms;
  }

  void report(Report& out) const {
    const std::scoped_lock lock(mutex_);
    std::vector<double> cells = cell_ms_;
    std::sort(cells.begin(), cells.end());
    double busy = 0.0;
    for (const double ms : cells) busy += ms;
    double wait = 0.0;
    for (const double ms : queue_wait_ms_) wait += ms;
    out.layer("sweep.cell_ms.p50", cells.empty() ? 0.0 : cells[cells.size() / 2]);
    out.layer("sweep.cell_ms.max", cells.empty() ? 0.0 : cells.back());
    out.layer("sweep.queue_wait_ms",
              queue_wait_ms_.empty()
                  ? 0.0
                  : wait / static_cast<double>(queue_wait_ms_.size()));
    out.layer("sweep.worker_busy_fraction",
              execute_ms_ > 0.0 ? busy / (kWorkers * execute_ms_) : 0.0);
  }

 private:
  mutable std::mutex mutex_;
  std::vector<double> queue_wait_ms_;
  std::vector<double> cell_ms_;
  double execute_ms_ = 0.0;
};

struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t cells = 0;
  std::size_t executed = 0;
  std::size_t cache_hits = 0;
  std::string cells_digest;  ///< FNV over every cell's RunSummary JSON
  std::uint64_t route_changes = 0;
  std::uint64_t playbook_activations = 0;
  bool served_falls_with_rate = true;
};

/// Runs every campaign of the grid over `cache_dir`.
Pass run_pass(const std::vector<sweep::Campaign>& grid,
              const std::filesystem::path& cache_dir,
              sweep::ProgressSink* sink) {
  sweep::CampaignOptions options;
  options.executor.workers = kWorkers;
  options.executor.lane_budget = kWorkers;
  options.cache_dir = cache_dir;
  options.telemetry = false;
  options.progress_sink = sink;

  Pass pass;
  std::string summaries;
  const Stopwatch watch;
  std::vector<sweep::CampaignResult> results;
  for (const sweep::Campaign& campaign : grid) {
    results.push_back(sweep::run_campaign(campaign, options));
  }
  pass.wall_s = watch.wall_s();
  pass.cpu_s = watch.cpu_s();
  for (const sweep::CampaignResult& result : results) {
    pass.cells += result.cells.size();
    pass.executed += result.executed;
    pass.cache_hits += result.cache_hits;
    for (const sweep::CellOutcome& cell : result.cells) {
      summaries += sweep::summary_to_json(cell.summary).dump();
      summaries += '\n';
      pass.route_changes += cell.summary.route_changes;
      pass.playbook_activations += cell.summary.playbook_activations;
    }
    // Axis 0 is attack_qps everywhere: at every other coordinate, a
    // harder attack must not leave attacked letters better served.
    for (const sweep::CellOutcome& cell : result.cells) {
      if (cell.coords[0] == 0) continue;
      std::vector<std::size_t> lighter = cell.coords;
      --lighter[0];
      const sweep::CellOutcome* other = result.cell_at(lighter);
      if (other != nullptr && cell.summary.mean_served_attacked >
                                  other->summary.mean_served_attacked + 1e-9) {
        pass.served_falls_with_rate = false;
      }
    }
  }
  pass.cells_digest = digest_hex(summaries);
  return pass;
}

/// A fresh cache directory under the scratch dir, unique per process.
std::filesystem::path fresh_cache(const Options& options, int ordinal) {
  const std::filesystem::path dir =
      std::filesystem::path(options.scratch_dir) /
      ("campaign-cache-" + std::to_string(::getpid()) + "-" +
       std::to_string(ordinal));
  std::filesystem::remove_all(dir);
  return dir;
}

/// Runs every expanded cell directly on the engine, one at a time, with
/// telemetry on or off. Serial because the profiler attributes
/// process-wide allocations to phases: overlapping cells would blur the
/// allocation counts.
std::vector<EngineRun> serial_cells(const std::vector<sweep::Campaign>& grid,
                                    bool telemetry) {
  std::vector<EngineRun> runs;
  for (const sweep::Campaign& campaign : grid) {
    for (sweep::CampaignCell& cell : sweep::expand(campaign)) {
      cell.config.telemetry = telemetry;
      runs.push_back(run_engine(cell.config));
    }
  }
  return runs;
}

/// The traced cells: summed engine phases and work counters, plus the
/// tracing overhead against the same cells run untraced.
void traced_cells(const std::vector<sweep::Campaign>& grid, Report& report) {
  auto begin = Clock::now();
  serial_cells(grid, false);
  const double untraced_s = seconds_since(begin);
  begin = Clock::now();
  report_engine_runs(serial_cells(grid, true), report);
  const double traced_s = seconds_since(begin);
  report.layer("obs.trace_overhead_pct",
               100.0 * (traced_s - untraced_s) / untraced_s);
}

/// One set-up sample: what run_campaign does before any cell executes —
/// build the grid, expand it, and fingerprint every cell into its cache
/// key.
void sample_setup(std::uint64_t seed, Report& report) {
  const Stopwatch watch;
  std::size_t cells = 0;
  std::uint64_t keys = 0;
  for (const sweep::Campaign& campaign : whatif_grid(seed)) {
    for (const sweep::CampaignCell& cell : sweep::expand(campaign)) {
      keys ^= sweep::config_hash(cell.config);
      ++cells;
    }
  }
  report.sample("setup_s", watch.cpu_s());
  report.digest("cell_keys", digest_hex(std::to_string(keys)));
  if (cells != 36) {
    report.check("campaign.grid_size", false,
                 std::to_string(cells) + " cells, want 36");
  }
}

}  // namespace

void run_campaign(const Options& options, Report& report) {
  const std::vector<sweep::Campaign> grid = whatif_grid(options.seed);

  ExecutorSpans spans;
  const auto budget_begin = Clock::now();
  std::string first_digest;
  int ordinal = 0;
  do {
    // Set-up samples are spread over the run, like the jobs.
    for (int i = 0; i < kSetupsPerJob; ++i) sample_setup(options.seed, report);
    const std::filesystem::path cache = fresh_cache(options, ordinal++);
    Pass cold;
    Pass warm;
    try {
      cold = run_pass(grid, cache, options.trace ? &spans : nullptr);
      warm = run_pass(grid, cache, nullptr);
    } catch (const std::exception& e) {
      std::filesystem::remove_all(cache);
      report.operation(1, 1);
      report.check("campaign.no_exception", false, e.what());
      break;
    }
    std::filesystem::remove_all(cache);
    report.operation(cold.cells + warm.cells);
    report.sample("job_cpu_s", cold.cpu_s + warm.cpu_s);
    report.sample("job_wall_s", cold.wall_s + warm.wall_s);

    report.check("campaign.cold_executes_all",
                 cold.executed == cold.cells && cold.cells == 36,
                 std::to_string(cold.executed) + "/" +
                     std::to_string(cold.cells) + " executed");
    report.check("campaign.warm_executes_none",
                 warm.executed == 0 && warm.cache_hits == warm.cells,
                 std::to_string(warm.executed) + " executed, " +
                     std::to_string(warm.cache_hits) + " cache hits");
    report.check("campaign.warm_matches_cold",
                 warm.cells_digest == cold.cells_digest,
                 cold.cells_digest + " vs " + warm.cells_digest);
    report.check("shape.served_falls_with_rate", cold.served_falls_with_rate,
                 "mean served fraction never rises with attack rate");
    if (first_digest.empty()) {
      first_digest = cold.cells_digest;
      report.digest("cells", cold.cells_digest);
      report.count("bgp.route_changes",
                   static_cast<double>(cold.route_changes));
      report.count("playbook.activations",
                   static_cast<double>(cold.playbook_activations));
    } else {
      report.check("campaign.deterministic", cold.cells_digest == first_digest,
                   cold.cells_digest + " vs " + first_digest);
    }
    if (options.trace) {
      report.layer("sweep.warm_pass_ms", warm.wall_s * 1e3);
    }
  } while (!options.trace && seconds_since(budget_begin) < options.seconds);

  if (options.trace) {
    spans.report(report);
    traced_cells(grid, report);
  }
}

}  // namespace perfbench
