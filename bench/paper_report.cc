// The paper-reproduction report: every table and figure of the paper's
// §3, plus the ablations and follow-up experiments EXPERIMENTS.md records,
// from one registry of emitters.
//
//   paper_report [--csv] [name...]
//
// Names select registry entries (`table1`, `fig5`, ...); none runs every
// entry in registry order. Each entry prints an aligned text table (for
// eyeballing against the paper) or CSV with --csv / ROOTSTRESS_CSV=1.
// ROOTSTRESS_VPS overrides the population of the entries that take an
// env-overridable VP count; EXPERIMENTS.md records the defaults each
// figure was validated at.
//
// Emitters get their replays through one scenario memo keyed by
// sweep::config_hash. The memo holds only the last report, and entries
// that read the same replay sit next to each other in the registry, so
// each distinct configuration runs once and at most one replay is in
// memory at a time.
//
// Exit status: 1 if a Table 1 checklist row FAILs, 2 on an unknown name
// (the valid names are listed on stderr), 0 otherwise.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/behavior.h"
#include "analysis/collateral.h"
#include "analysis/correlation.h"
#include "analysis/distributions.h"
#include "analysis/event_size.h"
#include "analysis/flips.h"
#include "analysis/letter_flips.h"
#include "analysis/proximity.h"
#include "analysis/reachability.h"
#include "analysis/route_changes.h"
#include "analysis/rtt.h"
#include "analysis/servers.h"
#include "analysis/site_series.h"
#include "analysis/site_stability.h"
#include "attack/events2015.h"
#include "attack/events2016.h"
#include "core/evaluation.h"
#include "core/policy_model.h"
#include "core/whatif.h"
#include "sim/scenario.h"
#include "sim/scenario_2016.h"
#include "sweep/cache.h"
#include "util/table.h"

using namespace rootstress;

namespace {

/// Runs scenarios for the emitters and remembers the last report, so
/// consecutive entries reading the same replay share one engine run.
class ScenarioMemo {
 public:
  const core::EvaluationReport& run(sim::ScenarioConfig config) {
    const std::uint64_t key = sweep::config_hash(config);
    if (!report_ || key != key_) {
      report_.reset();  // free the previous replay before the next runs
      report_ = core::evaluate_scenario(std::move(config));
      key_ = key;
    }
    return *report_;
  }

 private:
  std::optional<core::EvaluationReport> report_;
  std::uint64_t key_ = 0;
};

struct Context {
  bool csv = false;
  ScenarioMemo memo;
  int table1_failures = 0;
};

// --- Shared helpers ---------------------------------------------------

/// The standard two-day event scenario restricted to `letters` (empty =
/// all) with `vps` vantage points (env-overridable).
sim::ScenarioConfig event_scenario(std::vector<char> letters, int vps) {
  sim::ScenarioConfig config =
      sim::november_2015_scenario(sim::vp_count_from_env(vps));
  config.probe_letters = std::move(letters);
  return config;
}

/// The fluid-only baseline-week + event-days run: RSSAC accounting and
/// served rates need no probes.
sim::ScenarioConfig baseline_week_scenario() {
  sim::ScenarioConfig config = sim::november_2015_scenario(
      /*vp_count=*/100, /*attack_qps=*/5e6, /*include_baseline_week=*/true);
  config.collect_records = false;
  config.enable_collector = false;
  return config;
}

std::size_t probe_bins(const sim::SimulationResult& result) {
  return static_cast<std::size_t>(
      (result.probe_window.end - result.probe_window.begin).ms /
      result.bin_width.ms);
}

/// "HH:MM+Dd" label for a bin start.
std::string bin_label(net::SimTime start, net::SimTime width,
                      std::size_t bin) {
  const net::SimTime t(start.ms + width.ms * static_cast<std::int64_t>(bin));
  return t.to_string();
}

/// In text mode, print every Nth bin so tables stay readable; in CSV,
/// print everything.
std::size_t bin_stride(bool csv, net::SimTime bin_width) {
  if (csv) return 1;
  const std::size_t per_hour = static_cast<std::size_t>(
      3600000 / bin_width.ms);
  return per_hour == 0 ? 1 : per_hour;
}

/// Renders a small integer series as a bar strip for text figures.
std::string spark(const std::vector<int>& values, double max_value) {
  static const char* kLevels = " .:-=+*#%@";
  std::string out;
  out.reserve(values.size());
  for (const int v : values) {
    const double f = max_value > 0 ? static_cast<double>(v) / max_value : 0.0;
    const int level = std::min(9, static_cast<int>(f * 9.0 + 0.5));
    out += kLevels[level];
  }
  return out;
}

std::string fmt(double v, int precision = 1) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

// --- Table 1: the paper's key observations as a PASS/FAIL checklist ----

void checklist_row(util::TextTable& table, int& failures, const char* section,
                   const char* claim, const std::string& measured,
                   bool pass) {
  table.begin_row();
  table.cell(section);
  table.cell(claim);
  table.cell(measured);
  table.cell(pass ? "PASS" : "FAIL");
  if (!pass) ++failures;
}

void table1(Context& ctx) {
  const auto& report = ctx.memo.run(event_scenario({}, 1000));
  const auto& result = report.result;
  int failures = 0;

  util::TextTable table({"section", "observation (paper)", "measured",
                         "status"});

  // §3.2: letters saw minimal to severe loss (1% to 95%).
  {
    double lo = 1.0, hi = 0.0;
    for (const auto& s : report.letters) {
      if (s.letter == 'A') continue;  // coarse probing, as in the paper
      lo = std::min(lo, s.worst_loss);
      hi = std::max(hi, s.worst_loss);
    }
    checklist_row(table, failures, "3.2",
                  "letters saw minimal to severe loss (1%..95%)",
                  fmt(100 * lo, 0) + "%.." + fmt(100 * hi, 0) + "%",
                  lo < 0.15 && hi > 0.6);
  }

  // §3.3: loss is not uniform across a letter's sites.
  {
    const int k = result.service_index('K');
    const auto stability = analysis::site_stability(
        report.grids[static_cast<std::size_t>(k)], result, 'K',
        analysis::stability_threshold(static_cast<int>(result.vps.size())));
    double site_lo = 1e9, site_hi = 0.0;
    for (const auto& s : stability) {
      if (s.below_threshold) continue;
      site_lo = std::min(site_lo, s.min_norm);
      site_hi = std::max(site_hi, s.min_norm);
    }
    checklist_row(table, failures, "3.3",
                  "per-site damage within one letter is uneven",
                  "K site min/median spans " + fmt(site_lo, 2) + ".." +
                      fmt(site_hi, 2),
                  site_lo < 0.3 && site_hi > 0.9);
  }

  // §3.3.2: surviving overloaded sites show second-scale RTTs.
  {
    const auto* ams = result.find_site('K', "AMS");
    analysis::RttFilter filter;
    filter.service_index = result.service_index('K');
    filter.site_id = ams != nullptr ? ams->site_id : -2;
    const double stressed = analysis::median_rtt_in(
        result.records, filter, attack::kEvent1.begin, attack::kEvent1.end);
    checklist_row(table, failures, "3.3",
                  "degraded absorbers serve at ~1-2s RTT (K-AMS)",
                  fmt(stressed, 0) + " ms during event 1", stressed > 400.0);
  }

  // §3.4: site flips burst during the events.
  {
    const int k = result.service_index('K');
    const auto flips = analysis::site_flips_per_bin(
        report.grids[static_cast<std::size_t>(k)]);
    int event_flips = 0, total = 0;
    for (std::size_t b = 0; b < flips.size(); ++b) {
      const net::SimTime t(result.probe_window.begin.ms +
                           static_cast<std::int64_t>(b) *
                               result.bin_width.ms);
      total += flips[b];
      if (attack::kEvent1.contains(t) || attack::kEvent2.contains(t)) {
        event_flips += flips[b];
      }
    }
    checklist_row(table, failures, "3.4", "users flip sites; bursts during events",
                  std::to_string(event_flips) + " of " +
                      std::to_string(total) +
                      " K flips inside event windows",
                  total > 0 && event_flips > total / 2);
  }

  // §3.5: some servers suffer disproportionately.
  {
    const auto* nrt = result.find_site('K', "NRT");
    bool uneven = false;
    std::string measured = "no data";
    if (nrt != nullptr) {
      const std::size_t bins = probe_bins(result);
      const auto servers = analysis::server_breakdown(
          result.records, result, nrt->site_id, result.probe_window.begin,
          result.bin_width, bins);
      int lo = INT32_MAX, hi = 0;
      for (const auto& s : servers) {
        int replies = 0;
        for (std::size_t b = 0; b < bins; ++b) {
          const net::SimTime t(result.probe_window.begin.ms +
                               static_cast<std::int64_t>(b) *
                                   result.bin_width.ms);
          if (attack::kEvent1.contains(t)) replies += s.replies_per_bin[b];
        }
        lo = std::min(lo, replies);
        hi = std::max(hi, replies);
      }
      measured = "K-NRT per-server event replies " + std::to_string(lo) +
                 ".." + std::to_string(hi);
      uneven = hi > 0 && lo < (hi * 3) / 4;
    }
    checklist_row(table, failures, "3.5", "within a site, some servers suffer more",
                  measured, uneven);
  }

  // §3.6: collateral damage on services not under attack.
  {
    const auto nl = analysis::nl_query_rates(result);
    double worst = 1.0;
    for (const auto& site : nl) {
      for (const double v : site.normalized_qps) worst = std::min(worst, v);
    }
    checklist_row(table, failures, "3.6",
                  "collateral damage on co-located services (.nl ~0)",
                  ".nl worst normalized rate " + fmt(worst, 2), worst < 0.3);
  }

  util::emit(table, "Table 1: key observations, re-verified", ctx.csv,
             std::cout);
  if (failures > 0) {
    std::cout << failures << " observation(s) FAILED\n";
  }
  ctx.table1_failures += failures;
}

// --- Table 2: reported architecture vs. sites observed through CHAOS ---

void table2(Context& ctx) {
  const auto& report = ctx.memo.run(event_scenario({}, 1000));

  const auto letters = anycast::root_letter_table(0);  // operator names only
  util::TextTable table({"letter", "operator", "reported", "(global,local)",
                         "observed"});
  for (const auto& summary : report.letters) {
    const auto& cfg = anycast::find_letter(letters, summary.letter);
    table.begin_row();
    table.cell(std::string(1, summary.letter));
    table.cell(cfg.operator_name);
    table.cell(cfg.reported_sites);
    std::string arch;
    if (cfg.unicast) {
      arch = "(unicast)";
    } else if (cfg.primary_backup) {
      arch = "(pri/back)";
    } else {
      arch = "(" + std::to_string(cfg.reported_global) + ", " +
             std::to_string(cfg.reported_local) + ")";
    }
    table.cell(arch);
    table.cell(summary.observed_sites);
  }
  util::emit(table, "Table 2: root letters, reported vs. observed sites",
             ctx.csv, std::cout);
}

// --- Fig 4: median RTT for letters with visible change (B, C, G, H, K) --

void fig4(Context& ctx) {
  const auto& result = ctx.memo.run(event_scenario({}, 1000)).result;

  const std::vector<char> shown{'B', 'C', 'G', 'H', 'K'};
  const std::size_t bins = probe_bins(result);

  std::vector<std::vector<double>> series;
  for (char letter : shown) {
    analysis::RttFilter filter;
    filter.service_index = result.service_index(letter);
    series.push_back(analysis::median_rtt_series(result.records, filter,
                                                 result.probe_window.begin,
                                                 result.bin_width, bins));
  }

  std::vector<std::string> headers{"time"};
  for (char letter : shown) {
    headers.push_back(std::string(1, letter) + " ms");
  }
  util::TextTable table(std::move(headers));
  const std::size_t stride = bin_stride(ctx.csv, result.bin_width);
  for (std::size_t b = 0; b < bins; b += stride) {
    table.begin_row();
    table.cell(bin_label(result.probe_window.begin, result.bin_width, b));
    for (const auto& s : series) table.cell(s[b], 1);
  }
  util::emit(table, "Fig 4: median RTT per letter (ms)", ctx.csv, std::cout);
}

// --- Fig 3: VPs with successful queries per letter, and the
// sites-vs-worst-reachability correlation (§3.2.1) ----------------------

void fig3(Context& ctx) {
  const auto& report = ctx.memo.run(event_scenario({}, 1200));
  const auto& result = report.result;

  // Reachability series per letter (A scaled for its 30-min cadence).
  const auto letter_table = anycast::root_letter_table(0);
  std::vector<analysis::LetterReachability> series;
  std::vector<char> letters;
  for (char letter = 'A'; letter <= 'M'; ++letter) {
    const int s = result.service_index(letter);
    if (s < 0) continue;
    const auto& cfg = anycast::find_letter(letter_table, letter);
    series.push_back(analysis::reachability_series(
        report.grids[static_cast<std::size_t>(s)], letter,
        cfg.probe_interval_s, /*scale_for_cadence=*/true));
    letters.push_back(letter);
  }

  std::vector<std::string> headers{"time"};
  for (char letter : letters) headers.emplace_back(1, letter);
  util::TextTable table(std::move(headers));
  const std::size_t stride = bin_stride(ctx.csv, result.bin_width);
  const std::size_t bins = series.front().successful_per_bin.size();
  for (std::size_t b = 0; b < bins; b += stride) {
    table.begin_row();
    table.cell(bin_label(result.probe_window.begin, result.bin_width, b));
    for (const auto& s : series) table.cell(s.successful_per_bin[b]);
  }
  util::emit(table, "Fig 3: VPs with successful queries (per 10-min bin)",
             ctx.csv, std::cout);

  // Dips + correlation: attacked letters, excluding A (too coarse).
  util::TextTable dips({"letter", "sites (Table 2)", "min VPs", "min at"});
  std::vector<analysis::LetterPoint> points;
  for (std::size_t i = 0; i < letters.size(); ++i) {
    const auto& cfg = anycast::find_letter(letter_table, letters[i]);
    dips.begin_row();
    dips.cell(std::string(1, letters[i]));
    dips.cell(cfg.reported_sites);
    dips.cell(series[i].min_vps);
    dips.cell(bin_label(result.probe_window.begin, result.bin_width,
                        series[i].min_bin));
    if (cfg.attacked && letters[i] != 'A') {
      points.push_back(analysis::LetterPoint{letters[i], cfg.reported_sites,
                                             series[i].min_vps});
    }
  }
  util::emit(dips, "Fig 3 dips per letter", ctx.csv, std::cout);

  const auto corr = analysis::sites_vs_min_reachability(std::move(points));
  std::cout << "sites vs. worst reachability over attacked letters: R^2 = "
            << corr.fit.r_squared << " (paper: 0.87)\n";
}

// --- Fig 8: site flips per letter per bin ------------------------------

void fig8(Context& ctx) {
  const auto& report = ctx.memo.run(event_scenario({}, 1200));
  const auto& result = report.result;

  const std::vector<char> shown{'C', 'E', 'H', 'I', 'J', 'K'};
  std::vector<std::vector<int>> flips;
  std::vector<std::string> headers{"time"};
  for (char letter : shown) {
    const int s = result.service_index(letter);
    flips.push_back(analysis::site_flips_per_bin(
        report.grids[static_cast<std::size_t>(s)]));
    headers.emplace_back(1, letter);
  }

  util::TextTable table(std::move(headers));
  const std::size_t stride = bin_stride(ctx.csv, result.bin_width);
  for (std::size_t b = 0; b < flips.front().size(); b += stride) {
    table.begin_row();
    table.cell(bin_label(result.probe_window.begin, result.bin_width, b));
    for (const auto& f : flips) table.cell(f[b]);
  }
  util::emit(table, "Fig 8: site flips per letter (per 10-min bin)", ctx.csv,
             std::cout);

  util::TextTable totals({"letter", "total flips"});
  for (std::size_t i = 0; i < shown.size(); ++i) {
    int total = 0;
    for (int f : flips[i]) total += f;
    totals.begin_row();
    totals.cell(std::string(1, shown[i]));
    totals.cell(total);
  }
  util::emit(totals, "Fig 8 totals", ctx.csv, std::cout);
}

// --- Fig 5: per-site min/max VPs normalized to median, E and K ---------

void fig5_letter(const Context& ctx, const core::EvaluationReport& report,
                 char letter) {
  const auto& result = report.result;
  const int s = result.service_index(letter);
  const double threshold = analysis::stability_threshold(
      static_cast<int>(result.vps.size()));
  const auto stability = analysis::site_stability(
      report.grids[static_cast<std::size_t>(s)], result, letter, threshold);

  util::TextTable table({"site", "median VPs", "min", "max", "min/med",
                         "max/med", "low-visibility"});
  for (const auto& site : stability) {
    table.begin_row();
    table.cell(site.label);
    table.cell(site.median_vps, 1);
    table.cell(site.min_vps);
    table.cell(site.max_vps);
    table.cell(site.min_norm, 2);
    table.cell(site.max_norm, 2);
    table.cell(site.below_threshold ? "yes" : "");
  }
  util::emit(table,
             std::string("Fig 5: site stability, ") + letter +
                 "-Root (threshold " + std::to_string(threshold) + " VPs)",
             ctx.csv, std::cout);
}

void fig5(Context& ctx) {
  const auto& report = ctx.memo.run(event_scenario({'E', 'K'}, 2500));
  fig5_letter(ctx, report, 'E');
  fig5_letter(ctx, report, 'K');
}

// --- Fig 6: per-site catchment series for E and K, as density strips
// (text) or full series (CSV) --------------------------------------------

void fig6_letter(const Context& ctx, const core::EvaluationReport& report,
                 char letter) {
  const auto& result = report.result;
  const int s = result.service_index(letter);
  const auto series = analysis::site_catchment_series(
      report.grids[static_cast<std::size_t>(s)], result, letter);

  if (ctx.csv) {
    util::TextTable table({"site", "median", "bin", "vps"});
    for (const auto& site : series) {
      for (std::size_t b = 0; b < site.vps_per_bin.size(); ++b) {
        table.begin_row();
        table.cell(site.label);
        table.cell(site.median, 1);
        table.cell(b);
        table.cell(site.vps_per_bin[b]);
      }
    }
    table.print_csv(std::cout);
    return;
  }
  std::cout << "== Fig 6: catchment series, " << letter
            << "-Root (one strip per site; darker = more VPs vs. median; "
               "events at 06:50-09:30 and 29:10-30:10) ==\n";
  for (const auto& site : series) {
    // Strips at 1 char per 20 minutes: 144 chars across 48h.
    std::vector<int> coarse;
    for (std::size_t b = 0; b + 1 < site.vps_per_bin.size(); b += 2) {
      coarse.push_back((site.vps_per_bin[b] + site.vps_per_bin[b + 1]) / 2);
    }
    std::printf("%-7s (%6.1f) |%s|  critical bins: %zu\n", site.label.c_str(),
                site.median, spark(coarse, site.median * 2.0).c_str(),
                site.critical_bins.size());
  }
  std::cout << '\n';
}

void fig6(Context& ctx) {
  const auto& report = ctx.memo.run(event_scenario({'E', 'K'}, 2500));
  fig6_letter(ctx, report, 'E');
  fig6_letter(ctx, report, 'K');
}

// --- Policy inventory: every E/K site's observed behaviour during the
// events, classified from measurement data alone (§3.3) ------------------

void policy_inventory(Context& ctx) {
  const auto& report = ctx.memo.run(event_scenario({'E', 'K'}, 2500));
  const auto& result = report.result;
  const auto event_bins = analysis::event_bins_2015(result);

  analysis::BehaviorThresholds thresholds;
  thresholds.min_median_vps = analysis::stability_threshold(
      static_cast<int>(result.vps.size()));

  util::TextTable inventory_table({"letter", "unaffected", "withdrew",
                                   "absorbers", "receivers",
                                   "low-visibility"});
  for (const char letter : {'E', 'K'}) {
    const int s = result.service_index(letter);
    const auto reports = analysis::classify_sites(
        report.grids[static_cast<std::size_t>(s)], result.records, result,
        letter, event_bins, thresholds);
    const auto inv = analysis::inventory(reports, letter);
    inventory_table.begin_row();
    inventory_table.cell(std::string(1, letter));
    inventory_table.cell(inv.unaffected);
    inventory_table.cell(inv.withdrew);
    inventory_table.cell(inv.absorbers);
    inventory_table.cell(inv.receivers);
    inventory_table.cell(inv.low_visibility);

    util::TextTable detail({"site", "behaviour", "median VPs",
                            "event min/med", "event max/med",
                            "RTT quiet->event ms"});
    for (const auto& r : reports) {
      if (r.behavior == analysis::SiteBehavior::kLowVisibility) continue;
      detail.begin_row();
      detail.cell(r.label);
      detail.cell(analysis::to_string(r.behavior));
      detail.cell(r.median_vps, 1);
      detail.cell(r.event_min_fraction, 2);
      detail.cell(r.event_max_fraction, 2);
      std::string rtt = std::to_string(static_cast<int>(r.rtt_quiet_ms)) +
                        " -> " +
                        std::to_string(static_cast<int>(r.rtt_event_ms));
      detail.cell(rtt);
    }
    util::emit(detail,
               std::string("Observed behaviour, ") + letter + "-Root sites",
               ctx.csv, std::cout);
  }
  util::emit(inventory_table,
             "Policy inventory (paper: E = waterbed/withdraw, "
             "K = mattress/absorb with AMS receiving)",
             ctx.csv, std::cout);
}

// --- Fig 7: median RTT at stressed K-Root sites (§3.3.2) ---------------

void fig7(Context& ctx) {
  const auto& result = ctx.memo.run(event_scenario({'K'}, 2500)).result;
  const int s = result.service_index('K');

  const std::vector<const char*> codes{"AMS", "NRT", "LHR", "FRA"};
  const std::size_t bins = probe_bins(result);

  std::vector<std::vector<double>> series;
  std::vector<std::string> headers{"time"};
  for (const char* code : codes) {
    const auto* site = result.find_site('K', code);
    analysis::RttFilter filter;
    filter.service_index = s;
    filter.site_id = site != nullptr ? site->site_id : -2;
    series.push_back(analysis::median_rtt_series(result.records, filter,
                                                 result.probe_window.begin,
                                                 result.bin_width, bins));
    headers.push_back(std::string("K-") + code + " ms");
  }

  util::TextTable table(std::move(headers));
  const std::size_t stride = bin_stride(ctx.csv, result.bin_width);
  for (std::size_t b = 0; b < bins; b += stride) {
    table.begin_row();
    table.cell(bin_label(result.probe_window.begin, result.bin_width, b));
    for (const auto& sv : series) table.cell(sv[b], 1);
  }
  util::emit(table, "Fig 7: median RTT at stressed K-Root sites", ctx.csv,
             std::cout);

  // Event peaks, the headline numbers of §3.3.2.
  for (std::size_t i = 0; i < codes.size(); ++i) {
    double peak = 0.0;
    for (double v : series[i]) peak = std::max(peak, v);
    std::cout << "K-" << codes[i] << " peak median RTT: " << peak << " ms\n";
  }
}

// --- Fig 10: where K-LHR / K-FRA clients went during event 1, where
// K-AMS's new VPs came from, and the post-event return -------------------

void fig10_map(const Context& ctx, const std::map<int, int>& counts,
               const sim::SimulationResult& result,
               const std::string& title) {
  int total = 0;
  for (const auto& [site, n] : counts) total += n;
  util::TextTable table({"destination", "VPs", "share"});
  for (const auto& [site, n] : counts) {
    table.begin_row();
    table.cell(site < 0 ? std::string("(stayed / no other site)")
                        : result.sites[static_cast<std::size_t>(site)].label);
    table.cell(n);
    table.cell(total > 0 ? 100.0 * n / total : 0.0, 1);
  }
  util::emit(table, title, ctx.csv, std::cout);
}

void fig10(Context& ctx) {
  const auto& report = ctx.memo.run(event_scenario({'K'}, 2500));
  const auto& result = report.result;
  const auto& grid = report.grids[static_cast<std::size_t>(
      result.service_index('K'))];

  const auto bin_of = [&](net::SimTime t) { return grid.bin_of(t); };
  const std::size_t before1 = bin_of(attack::kEvent1.begin) - 1;
  const std::size_t end1 = bin_of(attack::kEvent1.end - net::SimTime(1));
  const std::size_t after1 = std::min(grid.bin_count() - 1, end1 + 12);

  for (const char* code : {"LHR", "FRA"}) {
    const auto* site = result.find_site('K', code);
    if (site == nullptr) continue;
    fig10_map(ctx,
              analysis::flip_destinations(grid, site->site_id, before1, end1),
              result,
              std::string("Fig 10: K-") + code +
                  " VPs during event 1 (destinations)");
  }
  const auto* ams = result.find_site('K', "AMS");
  if (ams != nullptr) {
    fig10_map(ctx, analysis::flip_origins(grid, ams->site_id, before1, end1),
              result, "Fig 10: new K-AMS VPs during event 1 (came from)");
    fig10_map(ctx,
              analysis::flip_destinations(grid, ams->site_id, end1, after1),
              result, "Fig 10: K-AMS VPs after event 1 (return to)");
  }
}

// --- Fig 11: per-VP site-choice strips for K-Root clients that start at
// K-LHR / K-FRA, in 4-minute bins across 36 hours. Legend:
//   L = K-LHR, F = K-FRA, A = K-AMS, . = other K site,
//   x = no response (timeout/error), ' ' = no probe in bin. -------------

void fig11(Context& ctx) {
  const auto& result = ctx.memo.run(event_scenario({'K'}, 2500)).result;

  // The paper uses 4-minute bins (one probe interval) for this figure.
  const net::SimTime strip_bin = net::SimTime::from_minutes(4);
  const std::size_t bins = static_cast<std::size_t>(
      net::SimTime::from_hours(36).ms / strip_bin.ms);
  atlas::LetterBins grid(static_cast<int>(result.vps.size()),
                         result.probe_window.begin, strip_bin, bins);
  const int k = result.service_index('K');
  for (const auto& record : result.records) {
    if (record.letter_index == k) grid.add(record);
  }

  const auto* lhr = result.find_site('K', "LHR");
  const auto* fra = result.find_site('K', "FRA");
  const auto* ams = result.find_site('K', "AMS");
  std::map<int, char> chars;
  std::vector<int> starts;
  if (lhr != nullptr) {
    chars[lhr->site_id] = 'L';
    starts.push_back(lhr->site_id);
  }
  if (fra != nullptr) {
    chars[fra->site_id] = 'F';
    starts.push_back(fra->site_id);
  }
  if (ams != nullptr) chars[ams->site_id] = 'A';

  util::Rng rng(7);
  const auto strips =
      analysis::vp_strips(grid, starts, chars, /*sample=*/300, rng);

  if (ctx.csv) {
    util::TextTable table({"vp", "strip"});
    for (const auto& strip : strips) {
      table.begin_row();
      table.cell(strip.vp);
      table.cell(strip.states);
    }
    table.print_csv(std::cout);
    return;
  }

  std::cout << "== Fig 11: " << strips.size()
            << " K-Root VPs starting at K-LHR(L)/K-FRA(F); A=K-AMS, "
               ".=other, x=fail ==\n"
            << "   (events at columns ~"
            << (6 * 60 + 50) / 4 << "-" << (9 * 60 + 30) / 4 << " and ~"
            << (29 * 60 + 10) / 4 << "-" << (30 * 60 + 10) / 4 << ")\n";
  // Print a representative sample of 40 strips, as the paper zooms into.
  const std::size_t show = std::min<std::size_t>(40, strips.size());
  for (std::size_t i = 0; i < show; ++i) {
    std::printf("vp%-6d |%s|\n", strips[i].vp, strips[i].states.c_str());
  }

  // Behaviour groups around event 1 (§3.4.2): stuck / flip+return /
  // flip+stay.
  int stuck = 0, flip_return = 0, flip_stay = 0, dark = 0;
  const std::size_t ev_begin = static_cast<std::size_t>((6 * 60 + 50) / 4);
  const std::size_t ev_end = static_cast<std::size_t>((9 * 60 + 30) / 4);
  for (const auto& strip : strips) {
    const char before = strip.states[ev_begin > 0 ? ev_begin - 1 : 0];
    bool moved = false, responded = false;
    for (std::size_t b = ev_begin; b <= ev_end && b < strip.states.size();
         ++b) {
      const char c = strip.states[b];
      if (c != ' ' && c != 'x') responded = true;
      if (c != ' ' && c != 'x' && c != before) moved = true;
    }
    const char after =
        strip.states[std::min(strip.states.size() - 1, ev_end + 30)];
    if (!responded) {
      ++dark;
    } else if (!moved) {
      ++stuck;
    } else if (after == before) {
      ++flip_return;
    } else {
      ++flip_stay;
    }
  }
  std::printf(
      "\ngroups during event 1: stuck=%d  flip-and-return=%d  "
      "flip-and-stay=%d  dark=%d\n",
      stuck, flip_return, flip_stay, dark);
}

// --- Figs 12 and 13: per-server replies and median RTT at K-FRA (the
// balancer concentrates on one surviving server) vs. K-NRT (all servers
// share the congestion) ---------------------------------------------------

void server_figure(const Context& ctx, const sim::SimulationResult& result,
                   const char* code, bool rtt) {
  const auto* site = result.find_site('K', code);
  if (site == nullptr) return;
  const std::size_t bins = probe_bins(result);
  const auto servers = analysis::server_breakdown(
      result.records, result, site->site_id, result.probe_window.begin,
      result.bin_width, bins);

  std::vector<std::string> headers{"time"};
  for (const auto& s : servers) {
    headers.push_back(std::string("K-") + code + "-S" +
                      std::to_string(s.server) + (rtt ? " ms" : ""));
  }
  util::TextTable table(std::move(headers));
  const std::size_t stride = bin_stride(ctx.csv, result.bin_width);
  for (std::size_t b = 0; b < bins; b += stride) {
    table.begin_row();
    table.cell(bin_label(result.probe_window.begin, result.bin_width, b));
    for (const auto& s : servers) {
      if (rtt) {
        table.cell(s.median_rtt_per_bin[b], 1);
      } else {
        table.cell(s.replies_per_bin[b]);
      }
    }
  }
  util::emit(table,
             std::string(rtt ? "Fig 13: median RTT per server at K-"
                             : "Fig 12: replies per server at K-") +
                 code,
             ctx.csv, std::cout);
}

void fig12(Context& ctx) {
  const auto& result = ctx.memo.run(event_scenario({'K'}, 2500)).result;
  server_figure(ctx, result, "FRA", /*rtt=*/false);
  server_figure(ctx, result, "NRT", /*rtt=*/false);
}

void fig13(Context& ctx) {
  const auto& result = ctx.memo.run(event_scenario({'K'}, 2500)).result;
  server_figure(ctx, result, "FRA", /*rtt=*/true);
  server_figure(ctx, result, "NRT", /*rtt=*/true);
}

// --- Fig 9: BGP route changes per letter at the collector peers ---------

void fig9(Context& ctx) {
  // Probing is irrelevant to this figure; keep the VP count minimal and
  // let the fluid/BGP layers do the work.
  sim::ScenarioConfig config = event_scenario({'K'}, 200);
  config.collect_records = false;
  const auto& result = ctx.memo.run(std::move(config)).result;

  std::vector<char> shown{'C', 'E', 'F', 'G', 'H', 'J', 'K'};
  std::vector<std::vector<std::uint64_t>> series;
  std::vector<std::string> headers{"time"};
  for (char letter : shown) {
    series.push_back(analysis::collector_changes_per_bin(result, letter));
    headers.emplace_back(1, letter);
  }

  util::TextTable table(std::move(headers));
  const std::size_t stride = bin_stride(ctx.csv, result.bin_width);
  for (std::size_t b = 0; b < series.front().size(); b += stride) {
    table.begin_row();
    table.cell(bin_label(result.start, result.bin_width, b));
    for (const auto& s : series) table.cell(s[b]);
  }
  util::emit(table,
             "Fig 9: route-change observations at collector peers "
             "(per 10-min bin)",
             ctx.csv, std::cout);
}

// --- Fig 14: collateral damage at D-Root (not attacked, but co-located
// sites lose VPs). Selection per the paper: >= 10% dip, >= 20 VPs median.

void fig14(Context& ctx) {
  const auto& report = ctx.memo.run(event_scenario({'D'}, 2500));
  const auto& result = report.result;
  const auto& grid =
      report.grids[static_cast<std::size_t>(result.service_index('D'))];

  const double min_vps = analysis::stability_threshold(
      static_cast<int>(result.vps.size()));
  const auto affected = analysis::collateral_sites(
      grid, result, 'D', analysis::event_bins_2015(result), /*min_dip=*/0.10,
      min_vps);

  util::TextTable table({"site", "median VPs", "worst event fraction"});
  for (const auto& site : affected) {
    table.begin_row();
    table.cell(site.label);
    table.cell(site.median_vps, 1);
    table.cell(site.worst_fraction, 2);
  }
  util::emit(table,
             "Fig 14: D-Root sites with >=10% reachability dips during "
             "the events (D was not attacked)",
             ctx.csv, std::cout);

  if (!ctx.csv) {
    for (const auto& site : affected) {
      std::vector<int> coarse;
      for (std::size_t b = 0; b + 1 < site.vps_per_bin.size(); b += 2) {
        coarse.push_back((site.vps_per_bin[b] + site.vps_per_bin[b + 1]) / 2);
      }
      std::printf("%-7s |%s|\n", site.label.c_str(),
                  spark(coarse, site.median_vps * 1.5).c_str());
    }
  }
}

// --- Fig 15: normalized query rates at two .nl sites co-located with
// root letters (collateral damage on a service outside the Root DNS) -----

void fig15(Context& ctx) {
  // Fluid-only: Fig 15 is server-side query rates, no probing involved.
  sim::ScenarioConfig config = event_scenario({'K'}, 100);
  config.collect_records = false;
  config.enable_collector = false;
  const auto& result = ctx.memo.run(std::move(config)).result;

  const auto series = analysis::nl_query_rates(result);
  std::vector<std::string> headers{"time"};
  for (const auto& s : series) headers.push_back(s.anonymized_label);
  util::TextTable table(std::move(headers));
  const std::size_t stride = bin_stride(ctx.csv, result.bin_width);
  const std::size_t bins =
      series.empty() ? 0 : series.front().normalized_qps.size();
  for (std::size_t b = 0; b < bins; b += stride) {
    table.begin_row();
    table.cell(bin_label(result.start, result.bin_width, b));
    for (const auto& s : series) table.cell(s.normalized_qps[b], 3);
  }
  util::emit(table,
             ".nl query rates, normalized to each site's median (Fig 15)",
             ctx.csv, std::cout);

  for (const auto& s : series) {
    double worst = 1e9;
    for (double v : s.normalized_qps) worst = std::min(worst, v);
    std::cout << s.anonymized_label << " worst normalized rate: " << worst
              << " (paper: ~0 during both events)\n";
  }
}

// --- Table 3: RSSAC-002 event-size estimation -------------------------

void bound_row(util::TextTable& table, const char* name,
               const analysis::EventCell& d0, const analysis::EventCell& d1) {
  table.begin_row();
  table.cell(name);
  table.cell(d0.dq_mqs, 2);
  table.cell(d0.dq_gbps, 2);
  table.cell("-");
  table.cell(d0.dr_mqs, 2);
  table.cell(d0.dr_gbps, 2);
  table.cell(d1.dq_mqs, 2);
  table.cell(d1.dq_gbps, 2);
  table.cell("-");
  table.cell(d1.dr_mqs, 2);
  table.cell(d1.dr_gbps, 2);
  table.cell("-");
  table.cell("-");
}

void table3(Context& ctx) {
  const auto& result = ctx.memo.run(baseline_week_scenario()).result;
  const analysis::EventSizeEstimate estimate =
      analysis::estimate_event_size(result);

  util::TextTable table({"RSSAC", "d0 dQ Mq/s", "d0 dQ Gb/s", "d0 M IPs(x)",
                         "d0 dR Mq/s", "d0 dR Gb/s", "d1 dQ Mq/s",
                         "d1 dQ Gb/s", "d1 M IPs(x)", "d1 dR Mq/s",
                         "d1 dR Gb/s", "base Mq/s", "base M IPs"});
  for (const auto& row : estimate.rows) {
    table.begin_row();
    std::string name(1, row.letter);
    if (!row.attacked) name += "*";  // not attacked; excluded from bounds
    table.cell(name);
    auto ips = [](const analysis::EventCell& c) {
      char buf[48];
      std::snprintf(buf, sizeof buf, "%.1f(%.0fx)", c.ips_m, c.ips_ratio);
      return std::string(buf);
    };
    table.cell(row.day0.dq_mqs, 2);
    table.cell(row.day0.dq_gbps, 2);
    table.cell(ips(row.day0));
    table.cell(row.day0.dr_mqs, 2);
    table.cell(row.day0.dr_gbps, 2);
    table.cell(row.day1.dq_mqs, 2);
    table.cell(row.day1.dq_gbps, 2);
    table.cell(ips(row.day1));
    table.cell(row.day1.dr_mqs, 2);
    table.cell(row.day1.dr_gbps, 2);
    table.cell(row.baseline_mqs, 3);
    table.cell(row.baseline_ips_m, 2);
  }
  bound_row(table, "lower", estimate.lower_day0, estimate.lower_day1);
  bound_row(table, "(scaled)", estimate.scaled_day0, estimate.scaled_day1);
  bound_row(table, "upper", estimate.upper_day0, estimate.upper_day1);
  util::emit(table, "Table 3: event sizes from RSSAC-002 reports", ctx.csv,
             std::cout);

  if (!ctx.csv) {
    std::cout << "inferred attack query payloads: day0="
              << estimate.query_payload_day0 << "B (paper: 32-47B bin), day1="
              << estimate.query_payload_day1
              << "B (paper: 16-31B bin); responses ~"
              << estimate.response_payload << "B (paper: 480-495B)\n";
  }
}

// --- Letter flips (§3.2.2): not-attacked D, L, M gain queries as
// resolvers retry away from attacked letters ------------------------------

void letter_flips(Context& ctx) {
  const auto& result = ctx.memo.run(baseline_week_scenario()).result;

  util::TextTable table({"letter", "quiet q/s", "event1 q/s", "event2 q/s",
                         "event1 x", "event2 x", "uniq day0 x",
                         "uniq day1 x"});
  for (const char letter : {'D', 'L', 'M'}) {
    const auto ev = analysis::letter_flip_evidence(result, letter);
    table.begin_row();
    table.cell(std::string(1, letter));
    table.cell(ev.quiet_qps, 0);
    table.cell(ev.event1_qps, 0);
    table.cell(ev.event2_qps, 0);
    table.cell(ev.event1_ratio, 2);
    table.cell(ev.event2_ratio, 2);
    table.cell(ev.uniques_day0_ratio, 1);
    table.cell(ev.uniques_day1_ratio, 1);
  }
  util::emit(table,
             "Letter flips: served rates at not-attacked letters "
             "(paper: L at 1.66x in event 2, 6-13x unique IPs)",
             ctx.csv, std::cout);
}

// --- §2.2 "Policies in Action": the five-case withdraw-vs-absorb model
// for s1 = s2, S3 = 10*s1, sweeping attack strength A0 = A1 (analytic) ---

void policy_model(Context& ctx) {
  util::TextTable table({"A0=A1", "case", "H(no-change)", "H(ISP1->s2)",
                         "H(s1->s2)", "H(s1+s2->S3)", "H(ISP1->S3)",
                         "best strategy", "best H"});
  // Sweep across all five regimes: s1 = s2 = 1, S3 = 10.
  for (const double a : {0.25, 0.49, 0.6, 0.9, 1.2, 2.0, 4.0, 4.9, 5.5, 8.0,
                         10.5, 20.0}) {
    core::PolicyScenario sc;
    sc.A0 = a;
    sc.A1 = a;
    table.begin_row();
    table.cell(a, 2);
    table.cell(core::classify_case(sc));
    for (const auto strategy : core::all_strategies()) {
      table.cell(core::evaluate(sc, strategy).happiness);
    }
    const auto best = core::best_strategy(sc);
    table.cell(core::to_string(best));
    table.cell(core::evaluate(sc, best).happiness);
  }
  util::emit(table,
             "S2.2 policy model: happiness per strategy (s1=s2=1, S3=10)",
             ctx.csv, std::cout);

  std::cout << "paper's cases: 1 (absorbed, H=4), 2 (shed ISP1, H=4), "
               "3 (all to S3, H=4), 4 (reroute ISP1, H=3), "
               "5 (degraded absorber, H=2)\n";
}

// --- Ablation: the historical policy mix vs. forced all-absorb and
// all-withdraw regimes (the §2.2 trade-off, quantified), at a moderate
// and at the historical attack rate -----------------------------------------

void ablation_policy(Context& ctx) {
  for (const double rate_mqps : {1.0, 5.0}) {
    sim::ScenarioConfig config = sim::november_2015_scenario(
        sim::vp_count_from_env(100), rate_mqps * 1e6);
    const auto outcomes = core::compare_policy_regimes(config);

    util::TextTable table({"regime", "mean served e1", "mean served e2",
                           "route changes"});
    for (const auto& outcome : outcomes) {
      table.begin_row();
      table.cell(core::to_string(outcome.regime));
      table.cell(outcome.mean_served_event1, 3);
      table.cell(outcome.mean_served_event2, 3);
      table.cell(outcome.total_route_changes);
    }
    char title[128];
    std::snprintf(title, sizeof title,
                  "Policy ablation at %.0f Mq/s per attacked letter",
                  rate_mqps);
    util::emit(table, title, ctx.csv, std::cout);

    if (rate_mqps == 5.0) {
      util::TextTable per_letter({"letter", "as-deployed e1",
                                  "all-absorb e1", "all-withdraw e1",
                                  "oracle e1"});
      for (std::size_t i = 0; i < outcomes[0].letters.size(); ++i) {
        const char letter = outcomes[0].letters[i].letter;
        if (letter == 'N') continue;
        per_letter.begin_row();
        per_letter.cell(std::string(1, letter));
        per_letter.cell(outcomes[0].letters[i].served_fraction_event1, 3);
        per_letter.cell(outcomes[1].letters[i].served_fraction_event1, 3);
        per_letter.cell(outcomes[2].letters[i].served_fraction_event1, 3);
        per_letter.cell(outcomes[3].letters[i].served_fraction_event1, 3);
      }
      util::emit(per_letter, "Per-letter served fraction, event 1 (5 Mq/s)",
                 ctx.csv, std::cout);
    }
  }
  std::cout << "expected shape: at moderate attacks rerouting competes "
               "(cases 2/3); at 5 Mq/s absorption dominates and reactive "
               "withdrawal only churns routes (case 5) -- the paper's "
               "'absorption is a good default' conclusion.\n";
}

// --- Ablation: sweep the attack rate and watch each letter class tip
// over (the §2.2 model's cases on the full deployment) --------------------

/// Worst legit served fraction across event-1 bins for one letter.
double worst_served(const sim::SimulationResult& result, char letter) {
  const int s = result.service_index(letter);
  const auto& served =
      result.service_served_legit_qps[static_cast<std::size_t>(s)];
  const auto& failed =
      result.service_failed_legit_qps[static_cast<std::size_t>(s)];
  double worst = 1.0;
  for (std::size_t b = 0; b < served.bin_count(); ++b) {
    const net::SimTime begin(served.bin_start(b));
    const net::SimTime end(begin.ms + served.bin_ms());
    if (!(attack::kEvent1.begin < end && begin < attack::kEvent1.end)) {
      continue;
    }
    const double sv = served.mean(b);
    const double fl = failed.mean(b);
    if (sv + fl > 0.0) worst = std::min(worst, sv / (sv + fl));
  }
  return worst;
}

void ablation_attack(Context& ctx) {
  const std::vector<char> shown{'A', 'B', 'C', 'E', 'H', 'J', 'K'};
  const std::vector<double> rates_mqps{0.25, 0.5, 1.0, 2.0, 5.0, 10.0};

  std::vector<std::string> headers{"attack Mq/s"};
  for (char letter : shown) headers.emplace_back(1, letter);
  util::TextTable table(std::move(headers));

  for (const double rate : rates_mqps) {
    sim::ScenarioConfig config = sim::november_2015_scenario(
        /*vp_count=*/100, rate * 1e6);
    config.end = net::SimTime::from_hours(10);  // event 1 only
    config.collect_records = false;
    config.enable_collector = false;
    config.collect_rssac = false;
    const auto& result = ctx.memo.run(std::move(config)).result;
    table.begin_row();
    table.cell(rate, 2);
    for (char letter : shown) table.cell(worst_served(result, letter), 3);
  }
  util::emit(table,
             "Attack-rate sweep: worst legit served fraction during "
             "event 1",
             ctx.csv, std::cout);
  std::cout << "expected shape: A stays ~1.0 throughout; B collapses "
               "first; multi-site letters degrade gradually with rate.\n";
}

// --- §3.3.1 control: the catchment swings of Fig 5 are event-driven. On
// quiet days K sites show essentially no per-site variation and E only
// minor variation (the paper's "mostly within 8%" for 13 E sites) --------

void normal_days_letter(const Context& ctx, char letter,
                        const std::vector<analysis::SiteStability>& event_stab,
                        const std::vector<analysis::SiteStability>& quiet_stab) {
  util::TextTable table({"site", "event min/med", "event max/med",
                         "quiet min/med", "quiet max/med"});
  for (const auto& es : event_stab) {
    if (es.below_threshold) continue;
    const analysis::SiteStability* qs = nullptr;
    for (const auto& candidate : quiet_stab) {
      if (candidate.label == es.label) {
        qs = &candidate;
        break;
      }
    }
    table.begin_row();
    table.cell(es.label);
    table.cell(es.min_norm, 2);
    table.cell(es.max_norm, 2);
    table.cell(qs != nullptr ? qs->min_norm : 0.0, 2);
    table.cell(qs != nullptr ? qs->max_norm : 0.0, 2);
  }
  util::emit(table,
             std::string("Normal-days control, ") + letter +
                 "-Root (paper: quiet-day variation ~none for K, within "
                 "~8% for E)",
             ctx.csv, std::cout);
}

void normal_days(Context& ctx) {
  const int vps = sim::vp_count_from_env(2000);
  sim::ScenarioConfig event_cfg = sim::november_2015_scenario(vps);
  event_cfg.probe_letters = {'E', 'K'};
  sim::ScenarioConfig quiet_cfg = sim::quiet_days_scenario(vps);
  quiet_cfg.probe_letters = {'E', 'K'};

  const auto stability = [](const core::EvaluationReport& report,
                            char letter, double threshold) {
    const auto& result = report.result;
    return analysis::site_stability(
        report.grids[static_cast<std::size_t>(result.service_index(letter))],
        result, letter, threshold);
  };
  // The memo holds one report: keep the event run's stability tables
  // before the quiet run replaces it. Both use the event run's threshold.
  const auto& event_rep = ctx.memo.run(std::move(event_cfg));
  const double threshold = analysis::stability_threshold(
      static_cast<int>(event_rep.result.vps.size()));
  const auto event_e = stability(event_rep, 'E', threshold);
  const auto event_k = stability(event_rep, 'K', threshold);
  const auto& quiet_rep = ctx.memo.run(std::move(quiet_cfg));
  normal_days_letter(ctx, 'E', event_e, stability(quiet_rep, 'E', threshold));
  normal_days_letter(ctx, 'K', event_k, stability(quiet_rep, 'K', threshold));
}

// --- The June 25, 2016 follow-up event (§2.3): per-letter damage and
// RTT CDF shifts (quiet vs. event) as Kolmogorov-Smirnov distances --------

void event_2016(Context& ctx) {
  const auto& report = ctx.memo.run(
      sim::june_2016_scenario(sim::vp_count_from_env(800)));
  const auto& result = report.result;

  util::TextTable table({"letter", "typ VPs", "min VPs", "worst loss",
                         "RTT KS(quiet,event)"});
  for (const auto& summary : report.letters) {
    // RTT CDF shift: quiet vs. event window samples.
    std::vector<double> quiet, stressed;
    const int s = result.service_index(summary.letter);
    for (const auto& record : result.records) {
      if (record.letter_index != s ||
          record.outcome != atlas::ProbeOutcome::kSite) {
        continue;
      }
      if (attack::kEvent2016.contains(record.time())) {
        stressed.push_back(static_cast<double>(record.rtt_ms));
      } else {
        quiet.push_back(static_cast<double>(record.rtt_ms));
      }
    }
    const double ks =
        quiet.empty() || stressed.empty()
            ? 0.0
            : analysis::ks_distance(analysis::EmpiricalCdf(quiet),
                                    analysis::EmpiricalCdf(stressed));
    table.begin_row();
    table.cell(std::string(1, summary.letter));
    table.cell(summary.baseline_vps);
    table.cell(summary.min_vps);
    table.cell(summary.worst_loss, 2);
    table.cell(ks, 3);
  }
  util::emit(table,
             "June 2016 event: per-letter damage and RTT-distribution "
             "shift (same operational choices, different event)",
             ctx.csv, std::cout);
}

// --- Proximity: how far past their closest site BGP routes clients, and
// how much worse it gets when the events displace catchments --------------

void proximity(Context& ctx) {
  const auto& result =
      ctx.memo.run(event_scenario({'E', 'K', 'J'}, 1500)).result;

  util::TextTable table({"letter", "window", "probes", "median infl ms",
                         "p90 infl ms", "at-best-site"});
  for (const char letter : {'E', 'K', 'J'}) {
    struct Window {
      const char* name;
      net::SimTime from, to;
    };
    const Window windows[] = {
        {"quiet", net::SimTime(0), attack::kEvent1.begin},
        {"event1", attack::kEvent1.begin, attack::kEvent1.end},
    };
    for (const auto& window : windows) {
      const auto sample = analysis::proximity_inflation(
          result, letter, window.from, window.to);
      table.begin_row();
      table.cell(std::string(1, letter));
      table.cell(window.name);
      table.cell(sample.inflation_ms.size());
      table.cell(sample.median_ms, 1);
      table.cell(sample.p90_ms, 1);
      table.cell(sample.optimal_fraction, 2);
    }
  }
  util::emit(table,
             "Anycast proximity: propagation-RTT inflation over the "
             "closest site (quiet vs. event 1)",
             ctx.csv, std::cout);
  std::cout << "expected shape: geographic inflation barely moves even "
               "during the event -- intra-European displacement (LHR/FRA "
               "-> AMS) adds almost no propagation distance. The second-"
               "scale RTTs of Fig 7 are queueing delay, not geography; "
               "H-Root's coast-to-coast failover (Fig 4) is the "
               "exception that is.\n";
}

// --- Registry -----------------------------------------------------------

struct Entry {
  std::string_view name;
  void (*emit)(Context&);
};

// Entries that read the same replay are adjacent, so a full pass runs
// each distinct configuration once: all letters at 1000 VPs (table1,
// table2, fig4) and at 1200 VPs (fig3, fig8); E+K at 2500 VPs (fig5,
// fig6, policy_inventory); K at 2500 VPs (fig7, fig10-13); the fluid-only
// baseline week (table3, letter_flips).
constexpr Entry kRegistry[] = {
    {"table1", table1},
    {"table2", table2},
    {"fig4", fig4},
    {"fig3", fig3},
    {"fig8", fig8},
    {"fig5", fig5},
    {"fig6", fig6},
    {"policy_inventory", policy_inventory},
    {"fig7", fig7},
    {"fig10", fig10},
    {"fig11", fig11},
    {"fig12", fig12},
    {"fig13", fig13},
    {"fig9", fig9},
    {"fig14", fig14},
    {"fig15", fig15},
    {"table3", table3},
    {"letter_flips", letter_flips},
    {"policy_model", policy_model},
    {"ablation_policy", ablation_policy},
    {"ablation_attack", ablation_attack},
    {"normal_days", normal_days},
    {"event_2016", event_2016},
    {"proximity", proximity},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Entry*> selected;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--csv") continue;
    const auto* entry =
        std::find_if(std::begin(kRegistry), std::end(kRegistry),
                     [&](const Entry& e) { return e.name == arg; });
    if (entry == std::end(kRegistry)) {
      std::cerr << "paper_report: unknown name '" << arg
                << "'\nusage: paper_report [--csv] [name...]\nnames:";
      for (const Entry& e : kRegistry) std::cerr << ' ' << e.name;
      std::cerr << '\n';
      return 2;
    }
    selected.push_back(entry);
  }
  if (selected.empty()) {
    for (const Entry& e : kRegistry) selected.push_back(&e);
  }

  Context ctx;
  ctx.csv = util::csv_requested(argc, argv);
  for (const Entry* entry : selected) entry->emit(ctx);
  return ctx.table1_failures > 0 ? 1 : 0;
}
