// Workload replay_nov2015: the 48 h Nov 30 / Dec 1, 2015 scenario with
// all thirteen letters plus .nl on 4 engine lanes, evaluated (binning and
// letter summaries), followed by the paper-figure analyses.
//
// Untraced run: repeated replays until the time budget is spent; each
// gives a `job_cpu_s` sample (CPU seconds of all threads) and a wall-time
// sample. Set-up (scenario build + engine construction: topology, botnet,
// VP population) is sampled between the replays. Traced run: two replays
// with telemetry off and one with telemetry on, whose profiler phases and
// per-analysis spans become the per-layer metrics.
#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>

#include "analysis/behavior.h"
#include "analysis/collateral.h"
#include "analysis/correlation.h"
#include "analysis/event_size.h"
#include "analysis/flips.h"
#include "analysis/letter_flips.h"
#include "analysis/reachability.h"
#include "analysis/route_changes.h"
#include "analysis/rtt.h"
#include "analysis/servers.h"
#include "analysis/site_series.h"
#include "analysis/site_stability.h"
#include "attack/events2015.h"
#include "common.h"
#include "core/evaluation.h"
#include "dns/chaos.h"
#include "dns/server.h"
#include "dns/wire.h"
#include "sim/scenario_builder.h"
#include "sweep/summary.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace rootstress;

constexpr int kVps = 300;
constexpr int kLanes = 4;
constexpr int kSetupsPerJob = 3;

sim::ScenarioConfig replay_config(std::uint64_t seed, bool telemetry) {
  return sim::ScenarioBuilder::november_2015()
      .seed(seed)
      .vp_count(kVps)
      .threads(kLanes)
      .telemetry(telemetry)
      .build();
}

/// Accumulates wall time per named analysis call.
class Spans {
 public:
  template <typename F>
  auto time(const std::string& name, F&& fn) {
    const auto begin = Clock::now();
    auto out = fn();
    ms_[name] += seconds_since(begin) * 1e3;
    return out;
  }
  const std::map<std::string, double>& ms() const { return ms_; }

 private:
  std::map<std::string, double> ms_;
};

/// Appends "label=value;" to the analysis digest input.
void note(std::string& digest_input, const char* label, double value) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s=%.17g;", label, value);
  digest_input += buf;
}

struct AnalysisOutcome {
  std::string digest_input;  ///< condensed outputs of every analysis
  double l_event2_ratio = 0.0;
};

/// The paper-figure analyses over one evaluated replay (Fig 3-15 and the
/// event-size estimate), each timed as its own span. Their condensed
/// outputs feed a digest so a wrong analysis result fails the reference
/// gate.
AnalysisOutcome paper_analyses(const sim::SimulationResult& result,
                               const std::vector<atlas::LetterBins>& grids,
                               Spans& spans) {
  AnalysisOutcome out;
  std::string& d = out.digest_input;
  const int k = result.service_index('K');
  const auto& k_grid = grids.at(static_cast<std::size_t>(k));
  const std::size_t bins = k_grid.bin_count();
  const net::SimTime begin = result.probe_window.begin;

  // Fig 3: reachability per letter, and sites vs. worst reachability.
  spans.time("analysis.reachability_ms", [&] {
    std::vector<analysis::LetterPoint> points;
    for (std::size_t s = 0; s < result.letter_chars.size(); ++s) {
      const char letter = result.letter_chars[s];
      if (letter == 'N') continue;
      const auto reach =
          analysis::reachability_series(grids[s], letter, 240.0, true);
      analysis::LetterPoint point;
      point.letter = letter;
      point.sites = analysis::observed_site_count(result.records,
                                                  static_cast<int>(s));
      point.min_vps = reach.min_vps;
      points.push_back(point);
      note(d, "reach_min", reach.min_vps);
    }
    const auto corr = analysis::sites_vs_min_reachability(std::move(points));
    note(d, "r2", corr.fit.r_squared);
    return 0;
  });

  // Fig 4 / 7: median RTT series, all of K.
  spans.time("analysis.rtt_series_ms", [&] {
    analysis::RttFilter filter;
    filter.service_index = k;
    const auto rtt = analysis::median_rtt_series(result.records, filter, begin,
                                                 result.bin_width, bins);
    double sum = 0.0;
    for (const double v : rtt) sum += v;
    note(d, "rtt_sum", sum);
    return 0;
  });

  // Fig 5 / 6: per-site stability and catchment series of K.
  spans.time("analysis.site_stability_ms", [&] {
    const auto stability = analysis::site_stability(
        k_grid, result, 'K',
        analysis::stability_threshold(static_cast<int>(result.vps.size())));
    for (const auto& s : stability) note(d, "stab", s.min_norm);
    return 0;
  });
  spans.time("analysis.site_series_ms", [&] {
    const auto series = analysis::site_catchment_series(k_grid, result, 'K');
    note(d, "series", static_cast<double>(series.size()));
    return 0;
  });

  // Fig 8 / 10 / 11: site flips, flip destinations, VP strips.
  spans.time("analysis.flips_ms", [&] {
    const auto flips = analysis::site_flips_per_bin(k_grid);
    int total = 0;
    for (const int f : flips) total += f;
    note(d, "flips", total);
    if (const auto* ams = result.find_site('K', "AMS")) {
      const auto dest = analysis::flip_destinations(
          k_grid, ams->site_id, k_grid.bin_of(attack::kEvent1.begin),
          k_grid.bin_of(attack::kEvent1.end));
      note(d, "dest", static_cast<double>(dest.size()));
    }
    util::Rng rng(7);
    const auto strips = analysis::vp_strips(k_grid, result.sites_of('K'), {},
                                            /*sample=*/100, rng);
    note(d, "strips", static_cast<double>(strips.size()));
    return 0;
  });

  // Fig 9: route changes per bin (ground truth and collector view).
  spans.time("analysis.route_changes_ms", [&] {
    std::uint64_t truth = 0;
    std::uint64_t seen = 0;
    for (const char letter : {'B', 'H', 'K'}) {
      for (const auto v : analysis::route_changes_per_bin(result, letter)) {
        truth += v;
      }
      for (const auto v : analysis::collector_changes_per_bin(result, letter)) {
        seen += v;
      }
    }
    note(d, "rc_truth", static_cast<double>(truth));
    note(d, "rc_seen", static_cast<double>(seen));
    return 0;
  });

  // Fig 12 / 13: per-server breakdown at K-NRT.
  spans.time("analysis.servers_ms", [&] {
    if (const auto* nrt = result.find_site('K', "NRT")) {
      const auto servers = analysis::server_breakdown(
          result.records, result, nrt->site_id, begin, result.bin_width, bins);
      for (const auto& s : servers) {
        int replies = 0;
        for (const int r : s.replies_per_bin) replies += r;
        note(d, "server", replies);
      }
    }
    return 0;
  });

  // Fig 14 / 15 and Table 3: collateral damage (D sites, .nl) and the
  // per-site behaviour inventory of K.
  spans.time("analysis.collateral_ms", [&] {
    const auto event_bins = analysis::event_bins_2015(result);
    const int d_index = result.service_index('D');
    const auto affected = analysis::collateral_sites(
        grids.at(static_cast<std::size_t>(d_index)), result, 'D', event_bins,
        0.10,
        analysis::stability_threshold(static_cast<int>(result.vps.size())));
    note(d, "collateral", static_cast<double>(affected.size()));
    for (const auto& site : analysis::nl_query_rates(result)) {
      double worst = 1e9;
      for (const double v : site.normalized_qps) worst = std::min(worst, v);
      note(d, "nl_worst", worst);
    }
    const auto behaviors =
        analysis::classify_sites(k_grid, result.records, result, 'K',
                                 event_bins);
    note(d, "behaviors", static_cast<double>(behaviors.size()));
    return 0;
  });

  // §3.6 letter flips: L served more than its quiet rate in event 2.
  out.l_event2_ratio = spans.time("analysis.letter_flips_ms", [&] {
    return analysis::letter_flip_evidence(result, 'L').event2_ratio;
  });
  note(d, "l_event2", out.l_event2_ratio);

  // Table 2: event-size estimate from the RSSAC accumulator.
  spans.time("rssac.event_size_ms", [&] {
    const auto estimate = analysis::estimate_event_size(result);
    note(d, "size_rows", static_cast<double>(estimate.rows.size()));
    return 0;
  });
  return out;
}

/// Checks the paper's qualitative shape, which every seed must show: the
/// letters the paper saw barely hurt (D, L, M) stay near full
/// reachability, the heavily hurt ones (B, G, H) lose most VPs, and L
/// serves above its quiet rate during event 2 (the letter-flip effect).
void check_shape(const core::EvaluationReport& report, double l_event2_ratio,
                 Report& out) {
  std::string detail;
  bool ok = true;
  for (const auto& s : report.letters) {
    const bool mild = s.letter == 'D' || s.letter == 'L' || s.letter == 'M';
    const bool heavy = s.letter == 'B' || s.letter == 'G' || s.letter == 'H';
    if (!mild && !heavy) continue;
    char buf[48];
    std::snprintf(buf, sizeof buf, "%c=%.2f ", s.letter, s.worst_loss);
    detail += buf;
    if (mild && s.worst_loss > 0.25) ok = false;
    if (heavy && s.worst_loss < 0.6) ok = false;
  }
  out.check("shape.letter_loss", ok, "worst loss " + detail);
  char buf[64];
  std::snprintf(buf, sizeof buf, "L event2/quiet = %.3f", l_event2_ratio);
  out.check("shape.l_letter_flip", l_event2_ratio > 1.2, buf);
}

/// Mean ns per dns::decode of a real CHAOS identity reply — the decode
/// each Atlas probe performs.
double decode_ns() {
  dns::RootServer server('K', "AMS", 1);
  const auto reply = server.answer(dns::make_chaos_query(0x5eed),
                                   net::Ipv4Addr(192, 0, 2, 1),
                                   net::SimTime(0));
  const std::vector<std::uint8_t> wire = dns::encode(reply.value());
  constexpr int kDecodes = 200000;
  std::size_t answers = 0;
  const auto begin = Clock::now();
  for (int i = 0; i < kDecodes; ++i) {
    answers += dns::decode(wire)->answers.size();
  }
  const double ns = seconds_since(begin) * 1e9 / kDecodes;
  if (answers != static_cast<std::size_t>(kDecodes)) {
    throw std::runtime_error("CHAOS reply decoded without its TXT answer");
  }
  return ns;
}

/// One evaluated replay plus analyses (telemetry off): returns its wall
/// seconds and the summary/analysis digests.
struct Job {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::string summary_digest;
  std::string analysis_digest;
  std::size_t records = 0;
  std::size_t route_changes = 0;
};

Job replay_job(const sim::ScenarioConfig& config, Report& report) {
  Spans spans;
  const Stopwatch watch;
  const core::EvaluationReport evaluated = core::evaluate_scenario(config);
  const AnalysisOutcome analyses =
      paper_analyses(evaluated.result, evaluated.grids, spans);
  Job job;
  job.wall_s = watch.wall_s();
  job.cpu_s = watch.cpu_s();
  job.summary_digest = digest_hex(
      sweep::summary_to_json(sweep::summarize(config, evaluated)).dump());
  job.analysis_digest = digest_hex(analyses.digest_input);
  job.records = evaluated.result.records.size();
  job.route_changes = evaluated.result.route_changes.size();
  check_shape(evaluated, analyses.l_event2_ratio, report);
  return job;
}

/// The traced replay: the same work with the engine's telemetry on, the
/// engine driven directly so its construction and binning are spans of
/// their own. Returns the traced wall seconds.
double traced_replay(std::uint64_t seed, Report& report) {
  const auto begin = Clock::now();
  std::vector<EngineRun> runs;
  runs.push_back(run_engine(replay_config(seed, true)));
  const sim::SimulationResult& result = runs.front().result;
  Spans spans;
  const auto grids = spans.time("atlas.bin_records_ms", [&] {
    const std::size_t bins = static_cast<std::size_t>(
        (result.probe_window.end - result.probe_window.begin).ms /
        result.bin_width.ms);
    return atlas::bin_records(result.records,
                              static_cast<int>(result.letter_chars.size()),
                              static_cast<int>(result.vps.size()),
                              result.probe_window.begin, result.bin_width,
                              bins);
  });
  paper_analyses(result, grids, spans);
  const double total_s = seconds_since(begin);

  report_engine_runs(runs, report);
  for (const auto& [name, ms] : spans.ms()) report.layer(name, ms);
  report.count("bgp.route_changes",
               static_cast<double>(result.route_changes.size()));
  report.layer("dns.decode_ns", decode_ns());
  return total_s;
}

}  // namespace

void run_replay(const Options& options, Report& report) {
  const sim::ScenarioConfig config = replay_config(options.seed, false);
  const auto budget_begin = Clock::now();
  std::vector<Job> jobs;
  do {
    // Set-up samples are spread over the run, like the jobs, so both see
    // the same host conditions.
    for (int i = 0; i < kSetupsPerJob; ++i) {
      const Stopwatch watch;
      sim::SimulationEngine engine(replay_config(options.seed, false));
      report.sample("setup_s", watch.cpu_s());
    }
    try {
      jobs.push_back(replay_job(config, report));
      report.operation(1);
    } catch (const std::exception& e) {
      report.operation(1, 1);
      report.check("replay.no_exception", false, e.what());
      break;
    }
    // The traced run keeps two untraced replays: the second, warm one is
    // the baseline of the tracing overhead.
  } while (options.trace ? jobs.size() < 2
                         : seconds_since(budget_begin) < options.seconds);

  if (jobs.empty()) return;
  const Job& first = jobs.front();
  bool repeatable = true;
  for (const Job& job : jobs) {
    report.sample("job_cpu_s", job.cpu_s);
    report.sample("job_wall_s", job.wall_s);
    repeatable = repeatable && job.summary_digest == first.summary_digest &&
                 job.analysis_digest == first.analysis_digest &&
                 job.records == first.records &&
                 job.route_changes == first.route_changes;
  }
  report.check("replay.deterministic", repeatable,
               std::to_string(jobs.size()) + " replays, summary " +
                   first.summary_digest);
  report.digest("summary", first.summary_digest);
  report.digest("analyses", first.analysis_digest);
  report.count("atlas.records_kept", static_cast<double>(first.records));
  report.count("bgp.route_changes", static_cast<double>(first.route_changes));

  if (options.trace) {
    const double traced_s = traced_replay(options.seed, report);
    report.layer("obs.trace_overhead_pct",
                 100.0 * (traced_s - jobs.back().wall_s) /
                     jobs.back().wall_s);
  }
}

}  // namespace perfbench
