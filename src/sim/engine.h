// The simulation engine: couples attack traffic, BGP routing, anycast
// sites, Atlas probing, the route collector, and RSSAC accounting into
// one deterministic run, and returns everything the paper's analyses
// consume.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "anycast/deployment.h"
#include "atlas/cleaning.h"
#include "atlas/population.h"
#include "atlas/record.h"
#include "attack/botnet.h"
#include "attack/traffic.h"
#include "bgp/collector.h"
#include "dns/message.h"
#include "fault/runtime.h"
#include "net/geo.h"
#include "obs/runtime.h"
#include "playbook/controller.h"
#include "resolver/population.h"
#include "rssac/metrics.h"
#include "rssac/report.h"
#include "sim/fluid.h"
#include "sim/scenario.h"
#include "util/parallel.h"
#include "util/time_series.h"

namespace rootstress::sim {

/// Captured probe steps per flush. Inside the probe window every step
/// captures what its probes would read (per-site probe state, per-service
/// catchment version); every kProbeBlockSteps captured steps, and once
/// after the last step, one parallel region runs the whole block's
/// probes. 60 one-minute steps (one simulated hour) measured faster than
/// blocks of 10 on replay_nov2015 (DESIGN.md, "Performance & threading
/// model"); records are identical for any block length.
inline constexpr std::size_t kProbeBlockSteps = 60;

/// Immutable description of one site, copied out of the deployment so
/// analyses do not need the live engine.
struct SiteMeta {
  int site_id = -1;
  char letter = '?';
  std::string code;
  std::string label;  ///< "K-AMS"
  int facility = -1;
  double capacity_qps = 0.0;
  bool global = true;
  net::GeoPoint location{};
  int servers = 0;
};

/// Everything a run produces.
struct SimulationResult {
  net::SimTime start{};
  net::SimTime end{};
  net::SimTime bin_width{};
  net::SimInterval probe_window{};

  /// Letter characters by service index ('A'..'M', then 'N' for .nl).
  std::vector<char> letter_chars;
  std::vector<SiteMeta> sites;
  std::vector<atlas::VantagePoint> vps;

  /// Cleaned measurement records (cleaning stats alongside).
  atlas::RecordSet records;
  atlas::CleaningStats cleaning{};

  /// Per-service fluid series over the whole span (value = q/s means).
  std::vector<util::BinnedSeries> service_offered_qps;
  std::vector<util::BinnedSeries> service_served_qps;
  std::vector<util::BinnedSeries> service_served_legit_qps;
  std::vector<util::BinnedSeries> service_failed_legit_qps;

  /// Per-site fluid series (q/s means) over the whole span.
  std::vector<util::BinnedSeries> site_served_qps;
  std::vector<util::BinnedSeries> site_offered_attack_qps;
  std::vector<util::BinnedSeries> site_loss_fraction;

  /// Full route-change log plus the collector's per-service series.
  std::vector<bgp::RouteChange> route_changes;
  std::vector<util::BinnedSeries> collector_series;

  /// RSSAC accounting (letters only; .nl is not a root letter).
  rssac::DailyAccumulator rssac{13};
  std::vector<rssac::Publisher> rssac_publishers;
  double resolver_pool = 0.0;

  /// What the reactive playbook controller did (all zeros / -1 when the
  /// scenario ran without one): detections, activations, vetoes, and
  /// time-to-first-action, per rule and in total.
  playbook::PlaybookRunStats playbook;

  /// User-experience report from the in-loop resolver population
  /// (enabled == false when the scenario had no resolver_profile). Binned
  /// on the same grid as the fluid series; digests are bit-identical for
  /// any thread count.
  resolver::EndUserReport enduser;

  /// Final telemetry snapshot (empty when ScenarioConfig::telemetry is
  /// off): metrics, phase profile, trace stats. core::write_telemetry()
  /// exports it as JSON.
  obs::Snapshot telemetry;

  /// Service index for a letter char; -1 if absent. O(1) once run() has
  /// built the lookup tables; linear fallback on hand-built results.
  int service_index(char letter) const noexcept;
  /// Site metadata by (letter, code); nullptr if absent. O(1) once run()
  /// has built the lookup tables (analyses call this per record).
  const SiteMeta* find_site(char letter, std::string_view code) const noexcept;
  /// All site ids of one letter.
  std::vector<int> sites_of(char letter) const;

  /// (Re)builds the constant-time lookup tables behind service_index and
  /// find_site from letter_chars/sites. run() calls this once metadata
  /// is final; call it again after mutating either by hand.
  void build_lookup_tables();

 private:
  /// Packs (letter, code) into one key; 0 when the code is too long to
  /// pack (no deployment site is — codes are 3-letter airport codes).
  static std::uint64_t pack_site_key(char letter,
                                     std::string_view code) noexcept;

  /// letter -> service index (256 entries, -1 absent); empty until built.
  std::vector<int> service_lookup_;
  /// packed (letter, code) -> index into `sites`; empty until built.
  std::unordered_map<std::uint64_t, std::size_t> site_lookup_;
};

/// Runs one scenario. Doubles as the playbook controller's actuation
/// backend: the controller decides, the engine applies (scope changes,
/// RRL toggles, capacity scaling, prepends) against the live deployment.
class SimulationEngine : private playbook::ActuationBackend {
 public:
  explicit SimulationEngine(ScenarioConfig config);

  /// Executes the run; call once per engine.
  SimulationResult run();

  const anycast::RootDeployment& deployment() const noexcept {
    return *deployment_;
  }

  /// The run's telemetry runtime; null when ScenarioConfig::telemetry is
  /// off. Valid for the engine's lifetime (e.g. to inspect the trace or
  /// profiler after run()).
  obs::Runtime* telemetry_runtime() noexcept { return obs_.get(); }

  /// Worker lanes the run resolved to (config threads / env / hardware).
  int thread_count() const noexcept { return threads_; }

 private:
  struct PendingReannounce {
    int site_id = -1;
    net::SimTime when{};
  };

  /// One unit of parallel probing: one service over one VP range, with
  /// its own output records for every step of a probe block (merged step
  /// by step, then in task order, after the barrier, so the record stream
  /// is identical to the serial step->service->VP->time iteration for any
  /// thread count). Cache-line aligned: neighbouring shards run on
  /// different cores.
  struct alignas(64) ProbeShard {
    int service = -1;
    std::size_t probed_index = 0;  ///< position of `service` in probed_services_
    std::size_t vp_begin = 0;
    std::size_t vp_end = 0;
    /// SoA staging lanes for a whole block, sized in run() for the most
    /// records kProbeBlockSteps steps can produce; packed to AoS
    /// ProbeRecords at the deterministic merge.
    atlas::RecordSoA records;
    /// records.size() after each block step (kProbeBlockSteps entries).
    std::vector<std::uint32_t> step_end;
  };

  /// Heterogeneous string hash so CHAOS identity lookups take a
  /// string_view and never build a temporary std::string.
  struct IdentityHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  void apply_policy_step(net::SimTime now, SimulationResult& result);
  void apply_adaptive_defense(net::SimTime now);
  /// Registers the flight recorder's series and schedule-derived spans
  /// (telemetry on only) and caches the handles the per-step recording
  /// phase uses.
  void setup_timeline();
  /// Serial per-step recording phase: folds this step's published loads,
  /// site states, and playbook signals into the timeline. Pure reads of
  /// already-computed state — nothing in the simulation reads the
  /// timeline back, so recording cannot perturb results.
  void record_timeline_step(net::SimTime t);
  /// Advances the fault runtime to `t` and applies whatever injections
  /// came due (site failures/recoveries, BGP session flaps). Serial
  /// phase, before any defense layer runs, so holds are current.
  void apply_fault_step(net::SimTime t);
  /// Builds this step's operator-view observations and runs the playbook
  /// controller (serial phase; decisions are thread-count-invariant).
  void run_playbook_step(net::SimTime now);
  /// playbook::ActuationBackend: applies one due action to the world,
  /// enforcing the last-global-site withdrawal veto.
  playbook::ActuationOutcome actuate(int site_id,
                                     const playbook::Action& action,
                                     net::SimTime now) override;
  /// The last-global-site guard shared by the static policy and the
  /// playbook: refuses to withdraw a letter's last globally announced
  /// site (primary/backup letters exempt). On a veto, tells the site's
  /// policy state, counts it and traces it, and returns true.
  bool veto_last_global_withdrawal(anycast::AnycastSite& site,
                                   net::SimTime now);
  void update_h_root_backup(net::SimTime now);
  void run_fluid_step(net::SimTime t, SimulationResult& result,
                      const std::vector<obs::Gauge*>& g_offered,
                      const std::vector<obs::Gauge*>& g_served,
                      const std::vector<obs::Gauge*>& g_failed_legit);
  /// Steps the in-loop resolver population (no-op when the scenario has
  /// no resolver_profile): builds the letters' answered fractions and
  /// offered-weighted RTTs from the fluid step just completed, applies
  /// the fault schedule's legit demand scale, and advances every
  /// resolver one step. Purely observational for the server side.
  void run_resolver_step(net::SimTime t);
  /// Serial probe capture: records, for the step starting at
  /// `step_begin`, every site's probe state and each probed service's
  /// catchment version, as the next step of the open probe block.
  void capture_probe_step(net::SimTime step_begin);
  /// Runs the open (non-empty) block's probes in one parallel region
  /// over probe_shards_ and appends their records to `raw` in step, then
  /// shard order; empties the block.
  void flush_probes(atlas::RecordSet& raw);
  /// One shard's probes over every step of the open block.
  void probe_block(ProbeShard& shard);
  void record_rssac(net::SimTime now, SimulationResult& result);
  /// One probe against captured state: `site_of` is the service's
  /// catchment (site per dense AS index, site_count when unreachable)
  /// and `states` the sites' probe states of the probe's step.
  void probe_once(const atlas::VantagePoint& vp, int service_index,
                  const std::int32_t* site_of,
                  const anycast::SiteProbeState* states, net::SimTime when,
                  atlas::RecordSoA& out);

  ScenarioConfig config_;
  int threads_ = 1;
  std::unique_ptr<obs::Runtime> obs_;
  std::unique_ptr<anycast::RootDeployment> deployment_;
  attack::Botnet botnet_;
  attack::LegitTraffic legit_;
  std::vector<atlas::VantagePoint> vps_;
  std::optional<bgp::RouteCollector> collector_;
  util::Rng rng_;
  /// Fixed-worker pool for the per-step parallel phases. Always present;
  /// with threads_ == 1 it spawns no workers and parallel_for runs
  /// inline (the exact legacy path).
  std::unique_ptr<util::ThreadPool> pool_;

  // Per-letter legit failures from the previous step (drives retries /
  // letter flips).
  std::vector<double> prev_failed_legit_;
  std::vector<PendingReannounce> pending_reannounce_;
  std::vector<int> probed_services_;           ///< service indices probed
  std::vector<std::int64_t> probe_interval_ms_;  ///< per service
  /// Per-service load buffers, preallocated once in run() and rewritten
  /// in place every step (pass 1 writes them in parallel).
  std::vector<ServiceLoad> current_loads_;
  /// Per-service (facility, Gb/s) contributions staged by pass 1 and
  /// merged into the facility table in service order — the merge order,
  /// and therefore every floating-point sum, is thread-count-invariant.
  std::vector<std::vector<std::pair<int, double>>> facility_contrib_;
  /// Parallel probing shards, service-major then VP-ascending.
  std::vector<ProbeShard> probe_shards_;
  /// The open probe block: captured steps so far, and per step its begin
  /// time, every site's probe state (site_count per step) and, per probed
  /// service, the route_versions_ slot of its catchment. Sized in run()
  /// for kProbeBlockSteps steps.
  std::size_t block_steps_ = 0;
  std::vector<net::SimTime> block_step_begin_;
  std::vector<anycast::SiteProbeState> block_site_states_;
  std::vector<std::uint32_t> block_route_slot_;
  /// Copies of AnycastRouting::site_of(prefix): kProbeBlockSteps ring
  /// slots of probe_as_count_ entries per probed service. A copy is made
  /// only when the prefix's catchment_epoch moved since the newest one.
  /// A block of kProbeBlockSteps steps references at most that many
  /// versions of a service, so the ring never overwrites one still in
  /// use.
  std::vector<std::int32_t> route_versions_;
  std::size_t probe_as_count_ = 0;
  /// Per probed service: epoch and ring slot of the newest copy.
  std::vector<std::uint64_t> route_version_epoch_;
  std::vector<std::uint32_t> route_version_slot_;
  /// Probe flushes run (telemetry: atlas.probe_blocks).
  std::uint64_t probe_blocks_ = 0;
  /// Cached decoded CHAOS query per service: built (encode + decode wire
  /// once) at construction instead of per probe. The message id is fixed
  /// per service; replies echo it but nothing downstream reads it.
  std::vector<dns::Message> chaos_query_;
  const attack::AttackEvent* active_event_ = nullptr;
  /// CHAOS identity text -> (site id << 8 | server index): one entry per
  /// deployed server, interned at construction so mapping a reply back
  /// to its site is a single allocation-free hash lookup (replaces the
  /// per-probe "X-CODE" key string + parse).
  std::unordered_map<std::string, std::uint32_t, IdentityHash,
                     std::equal_to<>>
      site_by_identity_;
  /// Adaptive defense: last meaningful offered load per site, used as the
  /// would-be load of withdrawn sites (slowly decayed) so the controller
  /// does not flap between withdraw and re-announce.
  std::vector<double> adaptive_last_offered_;
  /// Per-site time of the controller's last scope change (20-min
  /// cool-down between decisions).
  std::vector<net::SimTime> adaptive_last_change_;
  /// Reactive playbook controller (null when the scenario has none) and
  /// its per-step observation buffer (reused; indexed by site id).
  std::unique_ptr<playbook::PlaybookController> playbook_;
  std::vector<playbook::SiteObservation> playbook_obs_;
  /// Fault/chaos runtime (null when the scenario's fault schedule is
  /// empty). Mutated only in the serial fault-injection phase.
  std::unique_ptr<fault::FaultRuntime> fault_;
  /// In-loop resolver population (null when the scenario has no
  /// resolver_profile). Stepped in a serial phase right after the fluid
  /// pass; internally parallel over a thread-count-independent shard
  /// layout.
  std::unique_ptr<resolver::ResolverPopulation> resolver_pop_;
  /// Reused per-step input buffers for the population (letters only).
  std::array<double, resolver::kLetterCount> resolver_success_{};
  std::array<double, resolver::kLetterCount> resolver_rtt_ms_{};
  /// Whether the last step sat inside a hot pulse window (edge detector
  /// for the pulse-on/pulse-off trace instants; telemetry-only).
  bool fault_pulse_hot_ = false;

  /// Flight recorder (owned by obs_; null when telemetry is off) and the
  /// series handles setup_timeline() registered. tl_site_* / tl_pb_loss_
  /// are indexed by site id, the rest by service / rule index.
  obs::Timeline* timeline_ = nullptr;
  std::vector<std::size_t> tl_letter_offered_;
  std::vector<std::size_t> tl_letter_served_;
  std::vector<std::size_t> tl_letter_answered_;
  std::vector<std::size_t> tl_letter_delay_;
  std::vector<std::size_t> tl_letter_announced_;
  std::vector<std::size_t> tl_site_answered_;
  std::vector<std::size_t> tl_site_offered_;
  std::vector<std::size_t> tl_site_state_;
  std::vector<std::size_t> tl_pb_loss_;
  std::vector<std::size_t> tl_pb_rule_fired_;
  std::size_t tl_pb_detected_ = 0;
  /// End-user (resolver population) series; registered only when both
  /// telemetry and a resolver profile are on.
  std::size_t tl_eu_success_ = 0;
  std::size_t tl_eu_cache_hit_ = 0;
  std::size_t tl_eu_root_qps_ = 0;
  std::size_t tl_eu_latency_ = 0;
  std::size_t tl_eu_retries_ = 0;
  /// Last-seen per-rule fired totals (rule firings are recorded as
  /// per-step deltas into a kSum series).
  std::vector<std::uint64_t> tl_prev_rule_fired_;
  /// Open playbook hold-window span per site (Timeline::npos = none).
  std::vector<std::size_t> tl_hold_span_;
  /// Per-service step aggregates staged by fluid pass 2 (lane-private
  /// writes) for the serial recording phase. Sized in run() regardless of
  /// telemetry so pass 2 stays branchless.
  std::vector<double> step_offered_;
  std::vector<double> step_served_;
  std::vector<double> step_served_legit_;
};

}  // namespace rootstress::sim
