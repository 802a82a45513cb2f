// Subsystem gates: the checks that the engine stays cheap, deterministic
// and thread-invariant while it reproduces the paper, from one registry
// of named legs.
//
//   bench_gates [--json PATH] [leg...]
//
// Names select legs (`obs`, `netio`, ...); none runs every leg except
// `scale-full`, the full scale ladder, which runs only when named. Every
// requested leg runs even after an earlier one fails, and one verdict
// table closes the run. --json writes every leg's record, with the host
// it ran on, as one JSON document.
//
// A leg gates one measured value against a fixed bar, plus named checks
// that do not depend on timing (bit identity, digests, the cache
// contract). The four overhead legs (obs, playbook, fault, enduser)
// share one A/B runner: A is the baseline, B the instrumented variant,
// and the two alternate with the first side switching every pair, so
// host drift lands on both. The gate decides on min-of-N per side; the
// median paired B/A ratio, its MAD and the pair count are recorded
// beside it so estimators can be compared from run to run.
//
// ROOTSTRESS_VPS overrides the VP population of the engine legs that
// take an env-overridable count (obs, fault, enduser, parallel).
//
// Exit status: 0 when every leg passes, 1 when any fails, 2 on an
// unknown leg (the valid names are listed on stderr).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bgp/catchment.h"
#include "netio/calibration.h"
#include "netio/generator.h"
#include "netio/server.h"
#include "obs/runtime.h"
#include "rootstress.h"
#include "sim/scenario_2016.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

using namespace rootstress;

namespace {

// --- The record ---------------------------------------------------------

enum class Cmp { kBelow, kAtMost, kAtLeast };

const char* to_string(Cmp cmp) {
  switch (cmp) {
    case Cmp::kBelow: return "<";
    case Cmp::kAtMost: return "<=";
    case Cmp::kAtLeast: return ">=";
  }
  return "?";
}

/// One leg's outcome, in the one shape every leg shares.
struct LegRecord {
  std::string metric;             ///< what `measured` is, unit in the name
  double measured = 0.0;
  std::optional<double> bar;      ///< nullopt: reported, not gated
  Cmp cmp = Cmp::kAtMost;
  obs::JsonValue samples = obs::JsonValue::object();  ///< name -> [values]
  std::vector<std::pair<std::string, bool>> checks;
  obs::JsonValue counters = obs::JsonValue::object();

  void check(std::string name, bool ok) {
    checks.emplace_back(std::move(name), ok);
  }
  void count(std::string name, obs::JsonValue value) {
    counters.set(std::move(name), std::move(value));
  }
  void sample(std::string name, const std::vector<double>& values) {
    obs::JsonValue array = obs::JsonValue::array();
    for (const double v : values) array.push_back(v);
    samples.set(std::move(name), std::move(array));
  }

  bool bar_met() const {
    if (!bar) return true;
    switch (cmp) {
      case Cmp::kBelow: return measured < *bar;
      case Cmp::kAtMost: return measured <= *bar;
      case Cmp::kAtLeast: return measured >= *bar;
    }
    return false;
  }
  std::string bar_text() const {
    if (!bar) return "(reported)";
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s %g", to_string(cmp), *bar);
    return buf;
  }
  bool pass() const {
    return bar_met() &&
           std::all_of(checks.begin(), checks.end(),
                       [](const auto& c) { return c.second; });
  }

  obs::JsonValue to_json(std::string_view leg) const {
    obs::JsonValue doc = obs::JsonValue::object();
    doc.set("leg", obs::JsonValue(std::string(leg)));
    doc.set("pass", obs::JsonValue(pass()));
    doc.set("metric", obs::JsonValue(metric));
    doc.set("cmp", bar ? obs::JsonValue(to_string(cmp)) : obs::JsonValue());
    doc.set("bar", bar ? obs::JsonValue(*bar) : obs::JsonValue());
    doc.set("measured", obs::JsonValue(measured));
    doc.set("samples", samples);
    obs::JsonValue checks_json = obs::JsonValue::object();
    for (const auto& [name, ok] : checks) checks_json.set(name, ok);
    doc.set("checks", std::move(checks_json));
    doc.set("counters", counters);
    return doc;
  }
};

std::string hex64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

double ms_since(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - begin)
      .count();
}

// --- Shared runners -----------------------------------------------------

struct EngineRun {
  double setup_ms = 0.0;  ///< engine construction; instruments attach here
  double run_ms = 0.0;
  sim::SimulationResult result;
};

EngineRun run_engine(const sim::ScenarioConfig& config) {
  EngineRun run;
  const auto begin = std::chrono::steady_clock::now();
  sim::SimulationEngine engine(config);
  run.setup_ms = ms_since(begin);
  const auto run_begin = std::chrono::steady_clock::now();
  run.result = engine.run();
  run.run_ms = ms_since(run_begin);
  return run;
}

/// The A/B runner of the overhead legs. Runs `reps` pairs, A first in
/// even pairs and B first in odd ones; `run(b_side)` performs one run and
/// returns its wall time in ms. Gates on min-of-N per side (overhead_pct
/// = B over A), and records the samples and the median paired ratio.
void run_ab(LegRecord& rec, int reps,
            const std::function<double(bool b_side)>& run) {
  std::vector<double> a_ms, b_ms, ratios;
  for (int pair = 0; pair < reps; ++pair) {
    const bool b_first = pair % 2 == 1;
    const double first = run(b_first);
    const double second = run(!b_first);
    a_ms.push_back(b_first ? second : first);
    b_ms.push_back(b_first ? first : second);
    ratios.push_back(a_ms.back() > 0.0 ? b_ms.back() / a_ms.back() : 0.0);
  }
  const double min_a = *std::min_element(a_ms.begin(), a_ms.end());
  const double min_b = *std::min_element(b_ms.begin(), b_ms.end());
  const double median_ratio = util::median(ratios);
  std::vector<double> deviations;
  for (const double r : ratios) deviations.push_back(std::abs(r - median_ratio));

  rec.metric = "overhead_pct";
  rec.measured = min_a > 0.0 ? 100.0 * (min_b - min_a) / min_a : 0.0;
  rec.sample("a_ms", a_ms);
  rec.sample("b_ms", b_ms);
  rec.count("min_a_ms", min_a);
  rec.count("min_b_ms", min_b);
  rec.count("paired_ratio_median", median_ratio);
  rec.count("paired_ratio_mad", util::median(deviations));
  rec.count("pairs", reps);
  std::printf("  A (baseline) min %.1f ms, B (instrumented) min %.1f ms "
              "-> %+.2f%%; paired B/A median %.4f over %d pairs\n",
              min_a, min_b, rec.measured, median_ratio, reps);
}

bool same_series(const util::BinnedSeries& a, const util::BinnedSeries& b) {
  if (a.bin_count() != b.bin_count()) return false;
  for (std::size_t bin = 0; bin < a.bin_count(); ++bin) {
    if (a.sum(bin) != b.sum(bin) || a.count(bin) != b.count(bin)) return false;
  }
  return true;
}

bool same_records(const atlas::RecordSet& a, const atlas::RecordSet& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(atlas::ProbeRecord)) == 0);
}

// --- obs: full telemetry, flight recorder included, vs. a dark run -------

void obs_leg(LegRecord& rec) {
  // The June 2016 event scenario, the same shape as
  // `paper_report event_2016`.
  sim::ScenarioConfig config =
      sim::june_2016_scenario(sim::vp_count_from_env(200));
  std::size_t route_changes[2] = {0, 0};
  sim::SimulationResult instrumented;
  run_ab(rec, 3, [&](bool b_side) {
    config.telemetry = b_side;
    EngineRun run = run_engine(config);
    route_changes[b_side] = run.result.route_changes.size();
    if (b_side) instrumented = std::move(run.result);
    return run.setup_ms + run.run_ms;
  });
  rec.bar = 5.0;
  rec.cmp = Cmp::kAtMost;
  rec.check("route_changes_identical", route_changes[0] == route_changes[1]);

  const obs::TimelineData& tl = instrumented.telemetry.timeline;
  rec.count("route_changes", route_changes[1]);
  rec.count("trace_events", instrumented.telemetry.trace.emitted);
  rec.count("metrics", instrumented.telemetry.metrics.size());
  rec.count("timeline_series", tl.series.size());
  rec.count("timeline_spans", tl.spans.size());
  rec.count("timeline_digest", hex64(tl.empty() ? 0 : tl.digest()));
}

// --- playbook: the absorb-only controller vs. no controller --------------

sim::ScenarioConfig playbook_config(bool with_playbook) {
  sim::ScenarioBuilder builder = sim::ScenarioBuilder::november_2015()
                                     .fluid_only()
                                     .topology_stubs(300)
                                     .duration(net::SimTime::from_hours(10))
                                     .threads(1);
  if (with_playbook) builder.playbook(playbook::Playbook::absorb_only());
  return builder.build();
}

void playbook_leg(LegRecord& rec) {
  // Absorb-only runs the full signal pipeline with zero actuations, so
  // the difference is pure controller cost. Only engine.run() is timed:
  // the controller lives in the per-step defense phase.
  std::uint64_t detections = 0;
  run_ab(rec, 5, [&](bool b_side) {
    EngineRun run = run_engine(playbook_config(b_side));
    if (b_side) detections = run.result.playbook.detections;
    return run.run_ms;
  });
  rec.bar = 3.0;
  rec.cmp = Cmp::kBelow;
  // A dormant loop would make the overhead number meaningless.
  rec.check("controller_observed_event", detections > 0);
  rec.count("detections", detections);
}

// --- fault: an outcome-neutral schedule vs. no schedule ------------------

/// A schedule that changes nothing: each base event re-expressed as a
/// single full-on square pulse with identical stream parameters. The
/// engine synthesizes the attack from the envelope instead of reading the
/// base schedule, so the timing delta is pure fault-layer evaluation.
fault::FaultSchedule neutral_schedule(const attack::AttackSchedule& base) {
  fault::FaultSchedule schedule;
  schedule.name = "neutral-full-on-pulse";
  for (const attack::AttackEvent& event : base.events()) {
    fault::PulseWave pulse;
    pulse.window = event.when;
    pulse.period = event.when.end - event.when.begin;
    pulse.duty = 1.0;
    pulse.shape = fault::PulseShape::kSquare;
    pulse.peak_qps = event.per_letter_qps;
    pulse.floor_scale = 0.0;
    pulse.query_payload_bytes = event.query_payload_bytes;
    pulse.response_payload_bytes = event.response_payload_bytes;
    pulse.duplicate_fraction = event.duplicate_fraction;
    pulse.spillover_fraction = event.spillover_fraction;
    schedule.pulses.push_back(pulse);
  }
  return schedule;
}

bool identical_outputs(const sim::SimulationResult& bare,
                       const sim::SimulationResult& faulted) {
  if (!same_records(bare.records, faulted.records)) return false;
  if (bare.route_changes.size() != faulted.route_changes.size()) return false;
  if (bare.service_offered_qps.size() != faulted.service_offered_qps.size()) {
    return false;
  }
  for (std::size_t s = 0; s < bare.service_offered_qps.size(); ++s) {
    if (!same_series(bare.service_offered_qps[s],
                     faulted.service_offered_qps[s]) ||
        !same_series(bare.service_served_legit_qps[s],
                     faulted.service_served_legit_qps[s])) {
      return false;
    }
  }
  return true;
}

void fault_leg(LegRecord& rec) {
  const sim::ScenarioConfig bare =
      sim::november_2015_scenario(sim::vp_count_from_env(200));
  sim::ScenarioConfig faulted = bare;
  faulted.fault_schedule = neutral_schedule(bare.schedule);
  sim::SimulationResult last[2];
  run_ab(rec, 5, [&](bool b_side) {
    EngineRun run = run_engine(b_side ? faulted : bare);
    last[b_side] = std::move(run.result);
    return run.setup_ms + run.run_ms;
  });
  rec.bar = 3.0;
  rec.cmp = Cmp::kAtMost;
  rec.check("neutral_schedule_bit_identical",
            identical_outputs(last[0], last[1]));
  rec.count("pulses", faulted.fault_schedule.pulses.size());
}

// --- enduser: the in-loop resolver population vs. none -------------------

/// Order-sensitive FNV-1a over the bit patterns of the offered/served/
/// failed series: one integer that moves if the population feeds back
/// into the fluid model in any way.
std::uint64_t server_side_digest(const sim::SimulationResult& result) {
  std::uint64_t h = util::kFnvOffset;
  for (std::size_t s = 0; s < result.service_offered_qps.size(); ++s) {
    const auto& offered = result.service_offered_qps[s];
    for (std::size_t b = 0; b < offered.bin_count(); ++b) {
      util::fnv1a(h, offered.sum(b));
      util::fnv1a(h, result.service_served_legit_qps[s].sum(b));
      util::fnv1a(h, result.service_failed_legit_qps[s].sum(b));
    }
  }
  return h;
}

void enduser_leg(LegRecord& rec) {
  // The paper-realistic November 30 scenario (full topology + atlas
  // probes), not a stripped fluid toy: the gate measures the population
  // against the workload it will actually ride along with.
  sim::ScenarioConfig off =
      sim::november_2015_scenario(sim::vp_count_from_env(400));
  off.resolver_profile.reset();
  sim::ScenarioConfig on = off;
  on.resolver_profile = resolver::PopulationConfig{};
  std::uint64_t server_digest[2] = {0, 0};
  std::size_t route_changes[2] = {0, 0};
  resolver::EndUserReport population;
  run_ab(rec, 5, [&](bool b_side) {
    EngineRun run = run_engine(b_side ? on : off);
    server_digest[b_side] = server_side_digest(run.result);
    route_changes[b_side] = run.result.route_changes.size();
    if (b_side) population = std::move(run.result.enduser);
    return run.setup_ms + run.run_ms;
  });
  rec.bar = 5.0;
  rec.cmp = Cmp::kAtMost;
  rec.check("server_side_untouched", server_digest[0] == server_digest[1] &&
                                         route_changes[0] == route_changes[1]);
  rec.count("resolvers", on.resolver_profile->resolvers);
  rec.count("server_digest", hex64(server_digest[1]));
  rec.count("enduser_digest", hex64(population.digest()));
  rec.count("success_rate", population.success_rate());
  rec.count("cache_hit_rate", population.cache_hit_rate());
}

// --- parallel: speedup of the pooled engine over the serial path ---------

void parallel_leg(LegRecord& rec) {
  // Speedup can only come from real cores: on an N-core host the
  // 4-thread run must reach 0.6 * min(4, N)x. On one core no speedup is
  // possible, so only the absence of pool overhead (4 threads within 25%
  // of serial) is required.
  const int cores = std::max(1u, std::thread::hardware_concurrency());
  constexpr int kIterations = 3;
  atlas::RecordSet serial_records;
  std::size_t serial_route_changes = 0;
  double serial_ms = 0.0;
  bool deterministic = true;
  for (const int threads : {1, 2, 4, 8}) {
    sim::ScenarioConfig config =
        sim::november_2015_scenario(sim::vp_count_from_env(300));
    config.probe_letters = {'B', 'D', 'E', 'J', 'K'};
    config.end = net::SimTime::from_hours(12);
    config.probe_window = net::SimInterval{net::SimTime(0), config.end};
    config.telemetry = false;  // measure the bare hot path
    config.threads = threads;
    std::vector<double> ms;
    EngineRun run;
    for (int i = 0; i < kIterations; ++i) {
      run = run_engine(config);
      ms.push_back(run.setup_ms + run.run_ms);
    }
    const double best = *std::min_element(ms.begin(), ms.end());
    if (threads == 1) {
      serial_ms = best;
      serial_records = std::move(run.result.records);
      serial_route_changes = run.result.route_changes.size();
    } else if (!same_records(serial_records, run.result.records) ||
               serial_route_changes != run.result.route_changes.size()) {
      deterministic = false;
      std::printf("  threads=%d diverged from the serial results\n", threads);
    }
    const double speedup = best > 0.0 ? serial_ms / best : 0.0;
    std::printf("  threads=%d: best %.1f ms, speedup %.2fx\n", threads, best,
                speedup);
    const std::string tag = "threads_" + std::to_string(threads);
    rec.sample(tag + "_ms", ms);
    rec.count(tag + "_speedup", speedup);
    if (threads == 4) rec.measured = speedup;
  }
  rec.metric = "speedup_at_4";
  rec.bar = cores >= 2 ? 0.6 * static_cast<double>(std::min(4, cores)) : 0.75;
  rec.cmp = Cmp::kAtLeast;
  rec.check("records_identical_across_threads", deterministic);
  rec.count("cores", cores);
  rec.count("probe_records", serial_records.size());
}

// --- sweep: the content-addressed cache contract -------------------------

double campaign_ms(const sweep::Campaign& campaign,
                   const sweep::CampaignOptions& options,
                   sweep::CampaignResult* out) {
  const auto begin = std::chrono::steady_clock::now();
  *out = sweep::run_campaign(campaign, options);
  return ms_since(begin);
}

void sweep_leg(LegRecord& rec) {
  // A 2x2x2 fluid-only grid, cold (empty cache) then warm. The warm pass
  // must execute zero engine runs and reproduce every summary bit for
  // bit; the speedup is reported but not gated (scenario size sets it).
  sweep::Campaign campaign;
  campaign.name = "bench-sweep";
  campaign.base = sim::ScenarioBuilder::november_2015()
                      .fluid_only()
                      .topology_stubs(300)
                      .duration(net::SimTime::from_hours(10))
                      .build();
  campaign.add(sweep::Axis::attack_qps({2.5e6, 5e6}))
      .add(sweep::Axis::capacity_scale({0.75, 1.0}))
      .add(sweep::Axis::replicate_seeds({1, 2}));

  // A unique temp cache dir so reruns always start cold.
  std::random_device rd;
  sweep::CampaignOptions options;
  options.cache_dir = std::filesystem::temp_directory_path() /
                      ("bench_sweep_cache_" + std::to_string(rd()));
  options.telemetry = false;

  sweep::CampaignResult cold, warm;
  const double cold_ms = campaign_ms(campaign, options, &cold);
  const double warm_ms = campaign_ms(campaign, options, &warm);
  std::filesystem::remove_all(options.cache_dir);

  bool identical = cold.cells.size() == warm.cells.size();
  for (std::size_t i = 0; identical && i < cold.cells.size(); ++i) {
    identical = cold.cells[i].summary == warm.cells[i].summary;
  }
  rec.metric = "cache_hit_speedup";
  rec.measured = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;
  rec.check("warm_executed_nothing", warm.executed == 0);
  rec.check("warm_served_every_cell",
            warm.cache_hits == campaign.cell_count());
  rec.check("warm_summaries_identical", identical);
  rec.sample("cold_ms", {cold_ms});
  rec.sample("warm_ms", {warm_ms});
  rec.count("cells", cold.cells.size());
  rec.count("cells_per_minute",
            cold_ms > 0.0
                ? 60000.0 * static_cast<double>(cold.cells.size()) / cold_ms
                : 0.0);
  std::printf("  cold %.1f ms (executed %zu), warm %.1f ms (executed %zu, "
              "cache hits %zu)\n",
              cold_ms, cold.executed, warm_ms, warm.executed, warm.cache_hits);
}

// --- scale: incremental BGP vs. full recompute, plus population cells ----

struct ChurnMeasurement {
  double churn_ms = 0.0;
  std::vector<bgp::RouteChange> changes;
  std::vector<bgp::RouteChoice> final_routes;
  bgp::CatchmentSizes catchment;
  std::uint64_t recomputes = 0;
  std::uint64_t reselects = 0;
};

/// Replays the same deterministic mutation sequence against a freshly
/// built deployment in `mode`. The op stream is independent of routing
/// output, so both modes see identical inputs.
ChurnMeasurement run_churn(bgp::RecomputeMode mode, int n_ases, int n_sites,
                           int ops) {
  anycast::RootDeployment deployment(sim::ScenarioBuilder()
                                         .synthetic_topology(n_ases, n_sites)
                                         .peek()
                                         .deployment);
  obs::Runtime obs;
  deployment.attach_obs(&obs);
  bgp::AnycastRouting& routing = deployment.routing();
  routing.set_mode(mode);
  // The timed loop measures pure recompute cost; equivalence is asserted
  // by the caller's stream/table diff, not the sampled cross-check.
  routing.set_cross_check_interval(1 << 30);
  const int prefix = deployment.services().front().prefix;

  ChurnMeasurement m;
  util::Rng rng(2015);
  const auto begin = std::chrono::steady_clock::now();
  for (int i = 0; i < ops; ++i) {
    const int site =
        static_cast<int>(rng.below(static_cast<std::size_t>(n_sites)));
    const net::SimTime now(i);
    std::vector<bgp::RouteChange> step;
    switch (rng.below(3)) {
      case 0:
        step = routing.set_origin_state(prefix, site,
                                        /*announced=*/rng.below(4) != 0,
                                        /*local_only=*/rng.below(4) == 0, now);
        break;
      case 1:
        step = routing.set_prepend(prefix, site,
                                   static_cast<int>(rng.below(4)), now);
        break;
      default:
        step = routing.set_origin_state(prefix, site, /*announced=*/true,
                                        /*local_only=*/false, now);
        break;
    }
    m.changes.insert(m.changes.end(), step.begin(), step.end());
  }
  m.churn_ms = ms_since(begin);

  m.final_routes = routing.routes(prefix);
  m.catchment = bgp::catchment_sizes(m.final_routes, deployment.site_count());
  const obs::Labels labels{{"letter", "A"}};
  m.recomputes = obs.metrics().counter("bgp.recomputes", labels).value();
  m.reselects =
      obs.metrics().counter("bgp.incremental_reselects", labels).value();
  return m;
}

bool churn_identical(const ChurnMeasurement& a, const ChurnMeasurement& b) {
  if (a.changes.size() != b.changes.size()) return false;
  for (std::size_t i = 0; i < a.changes.size(); ++i) {
    if (!(a.changes[i].as_index == b.changes[i].as_index &&
          a.changes[i].old_site == b.changes[i].old_site &&
          a.changes[i].new_site == b.changes[i].new_site &&
          a.changes[i].time == b.changes[i].time)) {
      return false;
    }
  }
  return a.final_routes == b.final_routes &&
         a.catchment.per_site == b.catchment.per_site &&
         a.catchment.unreachable == b.catchment.unreachable;
}

double sum_metric(const obs::Snapshot& snapshot, const char* name) {
  double total = 0.0;
  for (const obs::MetricSample& sample : snapshot.metrics) {
    if (sample.name == name) total += sample.value;
  }
  return total;
}

/// The churn cell gates (a ~10^4-AS topology through hundreds of
/// announce/withdraw/prepend mutations, full vs. incremental: bit-identical
/// output, incremental >= 5x faster); the population cells record
/// end-to-end wall time and records/sec at three growing sizes. `full`
/// runs the big ladder.
void scale_leg(LegRecord& rec, bool full) {
  constexpr int kChurnAses = 10000;
  constexpr int kChurnSites = 64;
  const int churn_ops = full ? 600 : 300;
  std::printf("  churn cell: %d ASes, %d sites, %d ops\n", kChurnAses,
              kChurnSites, churn_ops);
  const ChurnMeasurement full_mode = run_churn(
      bgp::RecomputeMode::kFull, kChurnAses, kChurnSites, churn_ops);
  const ChurnMeasurement incremental = run_churn(
      bgp::RecomputeMode::kIncremental, kChurnAses, kChurnSites, churn_ops);
  std::printf("  full %.1f ms (%llu recomputes), incremental %.1f ms "
              "(%llu reselects)\n",
              full_mode.churn_ms,
              static_cast<unsigned long long>(full_mode.recomputes),
              incremental.churn_ms,
              static_cast<unsigned long long>(incremental.reselects));

  rec.metric = "incremental_speedup";
  rec.measured = incremental.churn_ms > 0.0
                     ? full_mode.churn_ms / incremental.churn_ms
                     : 0.0;
  rec.bar = 5.0;
  rec.cmp = Cmp::kAtLeast;
  rec.check("incremental_identical_to_full",
            churn_identical(full_mode, incremental));
  rec.sample("churn_full_ms", {full_mode.churn_ms});
  rec.sample("churn_incremental_ms", {incremental.churn_ms});
  rec.count("churn_ops", churn_ops);
  rec.count("churn_route_changes", incremental.changes.size());
  rec.count("churn_full_recomputes", full_mode.recomputes);
  rec.count("churn_incremental_reselects", incremental.reselects);

  struct Cell {
    int n_ases, n_sites, vps;
  };
  const std::vector<Cell> cells =
      full ? std::vector<Cell>{{10000, 48, 400}, {20000, 64, 800},
                               {40000, 96, 1600}}
           : std::vector<Cell>{{2000, 24, 150}, {5000, 32, 250},
                               {10000, 48, 400}};
  std::vector<double> wall_ms;
  for (const Cell& cell : cells) {
    const sim::ScenarioConfig config =
        sim::ScenarioBuilder()
            .synthetic_topology(cell.n_ases, cell.n_sites)
            .vp_count(cell.vps)
            .duration(net::SimTime::from_hours(2))
            .probe_window(net::SimInterval{net::SimTime(0),
                                           net::SimTime::from_hours(2)})
            .maintenance_flap(0.05)  // background churn keeps BGP hot
            .build();
    const EngineRun run = run_engine(config);
    const double ms = run.setup_ms + run.run_ms;
    wall_ms.push_back(ms);
    const std::size_t records = run.result.records.size();
    const double per_sec =
        ms > 0.0 ? 1000.0 * static_cast<double>(records) / ms : 0.0;
    std::printf("  population %d ASes, %d sites, %d VPs: %.1f ms, %zu "
                "records (%.0f records/sec)\n",
                cell.n_ases, cell.n_sites, cell.vps, ms, records, per_sec);
    const std::string tag = "population_" + std::to_string(cell.n_ases) +
                            "x" + std::to_string(cell.n_sites) + "x" +
                            std::to_string(cell.vps);
    rec.count(tag + "_records", records);
    rec.count(tag + "_records_per_sec", per_sec);
    rec.count(tag + "_route_changes", run.result.route_changes.size());
    rec.count(tag + "_bgp_recomputes",
              sum_metric(run.result.telemetry, "bgp.recomputes"));
    rec.count(tag + "_bgp_incremental_reselects",
              sum_metric(run.result.telemetry, "bgp.incremental_reselects"));
  }
  rec.sample("population_wall_ms", wall_ms);
}

void scale_smoke_leg(LegRecord& rec) { scale_leg(rec, /*full=*/false); }
void scale_full_leg(LegRecord& rec) { scale_leg(rec, /*full=*/true); }

// --- distributed: the subprocess fabric vs. in-process execution ---------

sweep::CampaignResult run_fabric(sweep::ExecutorMode mode, int workers,
                                 int fail_worker_after = -1) {
  // 2 x 3 = 6 fluid-only cells on a small topology: enough cells that a
  // 4-worker fleet overlaps, small enough to finish in seconds.
  sweep::Campaign campaign;
  campaign.name = "bench-distributed";
  campaign.base = sim::ScenarioBuilder::november_2015()
                      .fluid_only()
                      .topology_stubs(250)
                      .duration(net::SimTime::from_hours(10))
                      .build();
  campaign.add(sweep::Axis::attack_qps({1e6, 5e6}))
      .add(sweep::Axis::capacity_scale({0.5, 1.0, 2.0}));
  sweep::CampaignOptions options;
  options.telemetry = false;
  options.executor.mode = mode;
  options.executor.workers = workers;
  options.executor.fail_worker_after = fail_worker_after;
  return rootstress::run_campaign(campaign, options);
}

/// Per-cell summaries must be bit-identical (defaulted operator==, every
/// double included). Returns the number of diverging cells.
std::size_t diff_cells(const sweep::CampaignResult& a,
                       const sweep::CampaignResult& b, const char* what) {
  if (a.cells.size() != b.cells.size()) {
    std::printf("  %s cell counts differ (%zu vs %zu)\n", what,
                a.cells.size(), b.cells.size());
    return std::max(a.cells.size(), b.cells.size());
  }
  std::size_t diverged = 0;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    if (a.cells[i].key != b.cells[i].key ||
        !(a.cells[i].summary == b.cells[i].summary)) {
      std::printf("  %s cell '%s' diverged\n", what,
                  a.cells[i].label.c_str());
      ++diverged;
    }
  }
  return diverged;
}

void distributed_leg(LegRecord& rec) {
  const sweep::CampaignResult inproc =
      run_fabric(sweep::ExecutorMode::kInProcess, 4);
  const sweep::CampaignResult fabric1 =
      run_fabric(sweep::ExecutorMode::kSubprocess, 1);
  const sweep::CampaignResult fabric4 =
      run_fabric(sweep::ExecutorMode::kSubprocess, 4);
  // Worker 0 is killed after its first lease; its cells must be re-leased.
  const sweep::CampaignResult crashed =
      run_fabric(sweep::ExecutorMode::kSubprocess, 4, /*fail_worker_after=*/0);

  const std::size_t diverged = diff_cells(inproc, fabric1, "1-worker fabric") +
                               diff_cells(inproc, fabric4, "4-worker fabric") +
                               diff_cells(inproc, crashed, "re-lease fabric");
  std::size_t incomplete = 0;
  for (const sweep::CampaignResult* result : {&fabric1, &fabric4, &crashed}) {
    for (const sweep::CellOutcome& cell : result->cells) {
      if (cell.executed_by.rfind("worker-", 0) != 0) ++incomplete;
    }
  }
  std::printf("  in-process %.0f ms, fabric x1 %.0f ms, x4 %.0f ms, "
              "re-lease run %.0f ms; %zu diverged, %zu incomplete\n",
              inproc.wall_ms, fabric1.wall_ms, fabric4.wall_ms,
              crashed.wall_ms, diverged, incomplete);

  // Forking, leasing, heartbeats and JSON summaries cost something, but
  // on a 6-cell grid the fabric must stay within 3x of in-process.
  rec.metric = "fabric_overhead_ratio";
  rec.measured = inproc.wall_ms > 0.0 ? fabric4.wall_ms / inproc.wall_ms : 0.0;
  rec.bar = 3.0;
  rec.cmp = Cmp::kAtMost;
  rec.check("digests_identical", diverged == 0);
  rec.check("every_cell_completed_on_a_worker", incomplete == 0);
  rec.sample("inproc_ms", {inproc.wall_ms});
  rec.sample("fabric_1_ms", {fabric1.wall_ms});
  rec.sample("fabric_4_ms", {fabric4.wall_ms});
  rec.sample("relet_ms", {crashed.wall_ms});
  rec.count("cells", inproc.cells.size());
  rec.count("diverged_cells", diverged);
  rec.count("incomplete_cells", incomplete);
}

// --- netio: wire throughput, fluid calibration, portable fallback --------

struct WireLoop {
  netio::GeneratorReport report;
  std::uint64_t server_answered = 0;
  bool ok = false;
};

/// One closed loop: loopback server with `capacity_qps`, generator
/// offering `offered_qps` for `duration_s`.
WireLoop run_wire(double offered_qps, double capacity_qps, double duration_s,
                  netio::BatchMode mode, std::size_t batch) {
  WireLoop loop;
  netio::WireServerConfig server_config;
  server_config.capacity_qps = capacity_qps;
  server_config.rrl.enabled = false;
  server_config.batch = batch;
  server_config.batch_mode = mode;
  netio::WireServer server(server_config);
  std::string error;
  if (!server.start(&error)) {
    std::printf("  server start failed: %s\n", error.c_str());
    return loop;
  }

  netio::GeneratorConfig gen_config;
  gen_config.targets = {server.endpoint()};
  gen_config.duration_s = duration_s;
  gen_config.envelope = netio::RateEnvelope::constant(offered_qps);
  gen_config.batch = batch;
  gen_config.batch_mode = mode;
  netio::LoadGenerator generator(gen_config);
  loop.report = generator.run(&error);
  server.stop();
  if (!error.empty()) {
    std::printf("  generator failed: %s\n", error.c_str());
    return loop;
  }
  loop.server_answered = server.stats().answered.load();
  loop.ok = loop.report.sent > 0;
  return loop;
}

void netio_leg(LegRecord& rec) {
  constexpr double kQpsBar = 50e3;
  constexpr double kCalibrationTolerance = 0.10;

  // Throughput: offer 1.4x the bar with no capacity gate; both the
  // achieved send rate and the server's answer rate must clear it.
  const WireLoop a = run_wire(kQpsBar * 1.4, /*capacity=*/0.0,
                              /*duration_s=*/3.0, netio::BatchMode::kAuto,
                              /*batch=*/64);
  const double answer_qps =
      a.report.duration_s > 0.0
          ? static_cast<double>(a.server_answered) / a.report.duration_s
          : 0.0;
  std::printf("  throughput: achieved %.0f q/s, answered %.0f q/s, "
              "answered fraction %.4f (p50 %.3f ms)\n",
              a.report.achieved_qps, answer_qps, a.report.answered_fraction,
              a.report.rtt_p50_ms);

  // Calibration: overload a capacity-gated server at 2x and compare the
  // wire-measured answered fraction with the fluid model's saturation-
  // loss prediction.
  anycast::QueueConfig queue;
  queue.capacity_qps = 15e3;
  const double overload_qps = 30e3;
  const netio::WirePrediction predicted =
      netio::predict_wire_outcome(overload_qps, queue);
  const WireLoop b = run_wire(overload_qps, queue.capacity_qps,
                              /*duration_s=*/3.0, netio::BatchMode::kAuto,
                              /*batch=*/64);
  const double cal_error = netio::calibration_error(
      b.report.answered_fraction, predicted.answered_fraction);
  std::printf("  calibration: predicted %.4f, measured %.4f answered, "
              "error %.1f%%\n",
              predicted.answered_fraction, b.report.answered_fraction,
              cal_error * 100.0);

  // Portable fallback: the single-syscall path must still close the
  // loop (no throughput bar; it exists for non-Linux hosts).
  const WireLoop c = run_wire(5e3, /*capacity=*/0.0, /*duration_s=*/1.0,
                              netio::BatchMode::kPortable, /*batch=*/16);
  std::printf("  portable fallback: achieved %.0f q/s, answered fraction "
              "%.4f\n",
              c.report.achieved_qps, c.report.answered_fraction);

  rec.metric = "answered_qps";
  rec.measured = answer_qps;
  rec.bar = kQpsBar;
  rec.cmp = Cmp::kAtLeast;
  rec.check("throughput_achieved_bar",
            a.ok && a.report.achieved_qps >= kQpsBar);
  rec.check("throughput_answered_99pct",
            a.ok && a.report.answered_fraction >= 0.99);
  rec.check("calibration_within_10pct",
            b.ok && cal_error <= kCalibrationTolerance);
  rec.check("portable_fallback_answers",
            c.ok && c.report.answered_fraction >= 0.99);
  rec.count("syscall_batching", netio::UdpSocket::syscall_batch_supported());
  rec.count("throughput_achieved_qps", a.report.achieved_qps);
  rec.count("throughput_answered_fraction", a.report.answered_fraction);
  rec.count("throughput_rtt_p50_ms", a.report.rtt_p50_ms);
  rec.count("throughput_rtt_p99_ms", a.report.rtt_p99_ms);
  rec.count("calibration_predicted_answered", predicted.answered_fraction);
  rec.count("calibration_measured_answered", b.report.answered_fraction);
  rec.count("calibration_error", cal_error);
  rec.count("portable_achieved_qps", c.report.achieved_qps);
  rec.count("portable_answered_fraction", c.report.answered_fraction);
}

// --- Registry -----------------------------------------------------------

struct Leg {
  std::string_view name;
  void (*run)(LegRecord&);
  bool by_default;  ///< false: runs only when named
};

constexpr Leg kRegistry[] = {
    {"obs", obs_leg, true},
    {"playbook", playbook_leg, true},
    {"fault", fault_leg, true},
    {"enduser", enduser_leg, true},
    {"parallel", parallel_leg, true},
    {"scale", scale_smoke_leg, true},
    {"distributed", distributed_leg, true},
    {"netio", netio_leg, true},
    {"sweep", sweep_leg, true},
    {"scale-full", scale_full_leg, false},
};

/// The host keys perfbench's record uses, so the two formats compare.
obs::JsonValue host_record() {
  std::string describe;
  if (FILE* pipe = popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[256];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) describe += buf;
    pclose(pipe);
  }
  while (!describe.empty() && describe.back() == '\n') describe.pop_back();
  obs::JsonValue host = obs::JsonValue::object();
  host.set("cores", static_cast<int>(std::thread::hardware_concurrency()));
  host.set("compiler", ROOTSTRESS_COMPILER);
  host.set("build_type", ROOTSTRESS_BUILD_TYPE);
  host.set("git_describe",
           describe.empty() ? "unknown (not a git checkout)" : describe);
  return host;
}

int usage(const std::string& complaint) {
  std::cerr << "bench_gates: " << complaint
            << "\nusage: bench_gates [--json PATH] [leg...]\nlegs:";
  for (const Leg& leg : kRegistry) std::cerr << ' ' << leg.name;
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<const Leg*> selected;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      if (i + 1 == argc) return usage("--json needs a path");
      json_path = argv[++i];
      continue;
    }
    const auto* leg =
        std::find_if(std::begin(kRegistry), std::end(kRegistry),
                     [&](const Leg& l) { return l.name == arg; });
    if (leg == std::end(kRegistry)) {
      return usage("unknown leg '" + std::string(arg) + "'");
    }
    selected.push_back(leg);
  }
  if (selected.empty()) {
    for (const Leg& leg : kRegistry) {
      if (leg.by_default) selected.push_back(&leg);
    }
  }

  obs::JsonValue legs = obs::JsonValue::array();
  util::TextTable verdicts(
      {"leg", "verdict", "metric", "measured", "bar", "failed checks"});
  bool all_pass = true;
  for (const Leg* leg : selected) {
    std::printf("== %s\n", std::string(leg->name).c_str());
    std::fflush(stdout);
    LegRecord rec;
    try {
      leg->run(rec);
    } catch (const std::exception& e) {
      std::printf("  leg threw: %s\n", e.what());
      rec.check("ran_to_completion", false);
    }
    std::string failed;
    for (const auto& [name, ok] : rec.checks) {
      if (!ok) failed += (failed.empty() ? "" : ", ") + name;
    }
    all_pass = all_pass && rec.pass();
    verdicts.begin_row();
    verdicts.cell(std::string(leg->name));
    verdicts.cell(rec.pass() ? "PASS" : "FAIL");
    verdicts.cell(rec.metric);
    verdicts.cell(rec.measured, 2);
    verdicts.cell(rec.bar_text());
    verdicts.cell(failed.empty() ? "-" : failed);
    legs.push_back(rec.to_json(leg->name));
    std::fflush(stdout);
  }

  std::printf("\n== Verdicts\n");
  verdicts.print(std::cout);
  std::cout.flush();

  if (!json_path.empty()) {
    obs::JsonValue doc = obs::JsonValue::object();
    doc.set("host", host_record());
    doc.set("pass", all_pass);
    doc.set("legs", std::move(legs));
    std::ofstream out(json_path);
    out << doc.dump() << "\n";
    if (!out) {
      std::printf("FAIL: could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  std::puts(all_pass ? "PASS" : "FAIL");
  return all_pass ? 0 : 1;
}
