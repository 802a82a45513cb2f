#include "sim/engine.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "dns/chaos.h"
#include "dns/rrl.h"
#include "dns/wire.h"
#include "anycast/defense.h"
#include "obs/exporters.h"
#include "sim/probe_rng.h"
#include "util/logging.h"

namespace rootstress::sim {

namespace {

constexpr int kHeavyHitters = 200;

std::size_t bins_for(net::SimTime start, net::SimTime end,
                     net::SimTime width) {
  const auto span = (end - start).ms;
  return static_cast<std::size_t>((span + width.ms - 1) / width.ms);
}

}  // namespace

std::uint64_t SimulationResult::pack_site_key(char letter,
                                              std::string_view code) noexcept {
  if (code.size() > 7) return 0;
  std::uint64_t key = static_cast<unsigned char>(letter);
  for (const char c : code) {
    key = (key << 8) | static_cast<unsigned char>(c);
  }
  return key;
}

void SimulationResult::build_lookup_tables() {
  service_lookup_.assign(256, -1);
  for (std::size_t i = 0; i < letter_chars.size(); ++i) {
    service_lookup_[static_cast<unsigned char>(letter_chars[i])] =
        static_cast<int>(i);
  }
  site_lookup_.clear();
  site_lookup_.reserve(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const std::uint64_t key = pack_site_key(sites[i].letter, sites[i].code);
    if (key == 0) {
      // A code too long to pack (never true for deployment sites): keep
      // every lookup on the linear fallback rather than miss entries.
      service_lookup_.clear();
      site_lookup_.clear();
      return;
    }
    site_lookup_.emplace(key, i);
  }
}

int SimulationResult::service_index(char letter) const noexcept {
  if (!service_lookup_.empty()) {
    return service_lookup_[static_cast<unsigned char>(letter)];
  }
  for (std::size_t i = 0; i < letter_chars.size(); ++i) {
    if (letter_chars[i] == letter) return static_cast<int>(i);
  }
  return -1;
}

const SiteMeta* SimulationResult::find_site(
    char letter, std::string_view code) const noexcept {
  if (!site_lookup_.empty()) {
    const std::uint64_t key = pack_site_key(letter, code);
    const auto it = site_lookup_.find(key);
    return it == site_lookup_.end() ? nullptr : &sites[it->second];
  }
  for (const auto& site : sites) {
    if (site.letter == letter && site.code == code) return &site;
  }
  return nullptr;
}

std::vector<int> SimulationResult::sites_of(char letter) const {
  std::vector<int> out;
  for (const auto& site : sites) {
    if (site.letter == letter) out.push_back(site.site_id);
  }
  return out;
}

SimulationEngine::SimulationEngine(ScenarioConfig config)
    : config_(std::move(config)), rng_(config_.seed ^ 0xe6917e) {
  if (const std::string problem = validate(config_); !problem.empty()) {
    throw std::invalid_argument("invalid scenario: " + problem);
  }
  threads_ = util::resolve_thread_count(config_.threads);
  pool_ = std::make_unique<util::ThreadPool>(threads_);
  if (config_.telemetry) obs_ = std::make_unique<obs::Runtime>();
  obs::PhaseProfiler::Scope build_phase(
      obs_ ? &obs_->profiler() : nullptr, "topology-build");

  anycast::RootDeployment::Config dep = config_.deployment;
  dep.seed = config_.seed;
  deployment_ = std::make_unique<anycast::RootDeployment>(dep);

  attack::BotnetConfig bot = config_.botnet;
  bot.seed = config_.seed ^ 0xb07;
  botnet_ = attack::Botnet::build(deployment_->topology(), bot);

  attack::LegitConfig leg = config_.legit;
  leg.seed = config_.seed ^ 0x1e617;
  legit_ = attack::LegitTraffic::build(deployment_->topology(), leg);

  atlas::PopulationConfig pop = config_.population;
  pop.seed = config_.seed ^ 0xa71a5;
  vps_ = atlas::make_population(deployment_->topology(), pop);

  // Which services do Atlas VPs probe?
  const auto& services = deployment_->services();
  for (std::size_t s = 0; s < services.size(); ++s) {
    const char letter = services[s].letter;
    if (letter == 'N') continue;  // .nl is not probed by the root mesh
    if (!config_.probe_letters.empty() &&
        std::find(config_.probe_letters.begin(), config_.probe_letters.end(),
                  letter) == config_.probe_letters.end()) {
      continue;
    }
    probed_services_.push_back(static_cast<int>(s));
  }
  probe_interval_ms_.assign(services.size(), 240'000);
  for (std::size_t s = 0; s < services.size(); ++s) {
    if (services[s].letter_index >= 0) {
      const auto& cfg = deployment_->letters()[static_cast<std::size_t>(
          services[s].letter_index)];
      probe_interval_ms_[s] =
          static_cast<std::int64_t>(cfg.probe_interval_s * 1000.0);
    }
  }

  // Intern every deployed server's CHAOS identity once: replies map back
  // to (site, server) with one hash lookup, no per-probe parsing.
  for (int id = 0; id < deployment_->site_count(); ++id) {
    auto& site = deployment_->site(id);
    for (int srv = 0; srv < site.server_count(); ++srv) {
      site_by_identity_.emplace(
          site.server(srv).dns().identity(),
          (static_cast<std::uint32_t>(id) << 8) |
              static_cast<std::uint32_t>(site.server(srv).index() & 0xff));
    }
  }

  // Cache the CHAOS query per service: encoded to wire and decoded back
  // exactly once, instead of per probe. The fixed per-service message id
  // is echoed in replies but consumed by nothing.
  chaos_query_.reserve(services.size());
  for (std::size_t s = 0; s < services.size(); ++s) {
    const auto wire = dns::encode(dns::make_chaos_query(
        static_cast<std::uint16_t>(0x5250u + s)));
    auto decoded = dns::decode(wire);
    chaos_query_.push_back(std::move(*decoded));
  }

  if (config_.enable_collector) {
    bgp::CollectorConfig cc = config_.collector;
    cc.seed = config_.seed ^ 0xc011ec;
    collector_.emplace(deployment_->topology(), cc,
                       static_cast<int>(services.size()), config_.start,
                       config_.bin_width,
                       bins_for(config_.start, config_.end, config_.bin_width));
  }
  prev_failed_legit_.assign(services.size(), 0.0);

  if (config_.playbook.has_value()) {
    playbook_ = std::make_unique<playbook::PlaybookController>(
        *config_.playbook,
        static_cast<std::size_t>(deployment_->site_count()));
  }

  if (!config_.fault_schedule.empty()) {
    fault_ = std::make_unique<fault::FaultRuntime>(config_.fault_schedule,
                                                   *deployment_);
  }

  if (config_.resolver_profile.has_value()) {
    resolver_pop_ = std::make_unique<resolver::ResolverPopulation>(
        *config_.resolver_profile, config_.seed, config_.start, config_.end,
        config_.step, config_.bin_width);
  }

  if (obs_) {
    deployment_->attach_obs(obs_.get());
    if (collector_) collector_->attach_obs(obs_.get());
    if (playbook_) playbook_->attach_obs(obs_.get());
  }
}

SimulationResult SimulationEngine::run() {
  obs::PhaseProfiler* const prof = obs_ ? &obs_->profiler() : nullptr;
  // Route log lines into the trace while the run is live, so a flushed
  // trace interleaves structured events with whatever was logged.
  if (obs_) obs_->trace().attach_logger();

  SimulationResult result;
  result.start = config_.start;
  result.end = config_.end;
  result.bin_width = config_.bin_width;
  result.probe_window = config_.probe_window;
  result.resolver_pool = config_.legit.resolver_pool;

  const auto& services = deployment_->services();
  const std::size_t bins = bins_for(config_.start, config_.end,
                                    config_.bin_width);
  for (const auto& svc : services) {
    result.letter_chars.push_back(svc.letter);
    result.service_offered_qps.emplace_back(config_.start.ms,
                                            config_.bin_width.ms, bins);
    result.service_served_qps.emplace_back(config_.start.ms,
                                           config_.bin_width.ms, bins);
    result.service_served_legit_qps.emplace_back(config_.start.ms,
                                                 config_.bin_width.ms, bins);
    result.service_failed_legit_qps.emplace_back(config_.start.ms,
                                                 config_.bin_width.ms, bins);
  }
  for (int id = 0; id < deployment_->site_count(); ++id) {
    const auto& site = deployment_->site(id);
    SiteMeta meta;
    meta.site_id = id;
    meta.letter = site.letter();
    meta.code = site.code();
    meta.label = site.label();
    meta.facility = site.facility();
    meta.capacity_qps = site.spec().capacity_qps;
    meta.global = site.spec().global;
    meta.location = site.location();
    meta.servers = site.server_count();
    result.sites.push_back(std::move(meta));
    result.site_served_qps.emplace_back(config_.start.ms,
                                        config_.bin_width.ms, bins);
    result.site_offered_attack_qps.emplace_back(config_.start.ms,
                                                config_.bin_width.ms, bins);
    result.site_loss_fraction.emplace_back(config_.start.ms,
                                           config_.bin_width.ms, bins);
  }
  result.vps = vps_;
  result.build_lookup_tables();
  for (const auto& cfg : deployment_->letters()) {
    if (cfg.rssac_reporting) {
      result.rssac_publishers.push_back(rssac::Publisher{
          cfg.letter, result.service_index(cfg.letter)});
    }
  }

  // Preallocate the per-step buffers the parallel phases write into;
  // every step reuses them in place (no per-step allocation).
  const auto site_count = static_cast<std::size_t>(deployment_->site_count());
  current_loads_.resize(services.size());
  for (auto& load : current_loads_) {
    // Fresh reuse keys and tallies; site_count + 1: trailing sink lane
    // for the SoA fluid kernels.
    load = ServiceLoad{};
    load.attack_qps.assign(site_count + 1, 0.0);
    load.legit_qps.assign(site_count + 1, 0.0);
  }
  facility_contrib_.resize(services.size());
  step_offered_.assign(services.size(), 0.0);
  step_served_.assign(services.size(), 0.0);
  step_served_legit_.assign(services.size(), 0.0);
  setup_timeline();
  probe_shards_.clear();
  block_steps_ = 0;
  probe_blocks_ = 0;
  if (config_.collect_records && !vps_.empty() && !probed_services_.empty()) {
    // Service-major, VP-ascending: concatenating one step's shard outputs
    // in this order reproduces the serial record stream exactly.
    const std::size_t shard_count = std::min(
        vps_.size(),
        threads_ > 1 ? static_cast<std::size_t>(threads_) * 4 : std::size_t{1});
    const std::int64_t block_ms =
        static_cast<std::int64_t>(kProbeBlockSteps) * config_.step.ms;
    for (std::size_t k = 0; k < probed_services_.size(); ++k) {
      const int s = probed_services_[k];
      // A VP's probe times are `interval` apart, so a block's span holds
      // at most this many of them; staging lanes sized for it never grow
      // while probing.
      const auto interval = probe_interval_ms_[static_cast<std::size_t>(s)];
      const auto per_vp_block =
          static_cast<std::size_t>((block_ms + interval - 1) / interval);
      for (std::size_t shard = 0; shard < shard_count; ++shard) {
        ProbeShard task;
        task.service = s;
        task.probed_index = k;
        task.vp_begin = vps_.size() * shard / shard_count;
        task.vp_end = vps_.size() * (shard + 1) / shard_count;
        if (task.vp_begin == task.vp_end) continue;
        task.records.reserve((task.vp_end - task.vp_begin) * per_vp_block);
        task.step_end.assign(kProbeBlockSteps, 0);
        probe_shards_.push_back(std::move(task));
      }
    }
    // The block buffers, sized once: capturing and flushing allocate
    // nothing.
    const std::size_t probed = probed_services_.size();
    probe_as_count_ =
        static_cast<std::size_t>(deployment_->topology().as_count());
    block_step_begin_.assign(kProbeBlockSteps, net::SimTime{});
    block_site_states_.assign(kProbeBlockSteps * site_count,
                              anycast::SiteProbeState{});
    block_route_slot_.assign(kProbeBlockSteps * probed, 0);
    route_versions_.assign(probed * kProbeBlockSteps * probe_as_count_, 0);
    // No copy yet: the first capture of each service copies its catchment
    // (epochs start at 0 and never reach the sentinel).
    route_version_epoch_.assign(probed, ~std::uint64_t{0});
    route_version_slot_.assign(probed, kProbeBlockSteps - 1);
  }

  // Per-service instruments (cached pointers; null when telemetry is off).
  std::vector<obs::Gauge*> g_offered(services.size(), nullptr);
  std::vector<obs::Gauge*> g_served(services.size(), nullptr);
  std::vector<obs::Gauge*> g_failed_legit(services.size(), nullptr);
  std::vector<obs::Counter*> c_catchment(services.size(), nullptr);
  std::vector<char> prefix_letter(services.size(), '?');
  obs::Counter* c_steps = nullptr;
  if (obs_) {
    auto& metrics = obs_->metrics();
    c_steps = &metrics.counter("sim.steps", {{"component", "engine"}});
    metrics.gauge("parallel.workers", {{"component", "engine"}})
        .set(static_cast<double>(threads_));
    for (std::size_t s = 0; s < services.size(); ++s) {
      const obs::Labels labels{
          {"letter", std::string(1, services[s].letter)}};
      g_offered[s] = &metrics.gauge("service.offered_queries", labels);
      g_served[s] = &metrics.gauge("service.served_queries", labels);
      g_failed_legit[s] =
          &metrics.gauge("service.failed_legit_queries", labels);
      // Catchment instruments are indexed by prefix id (what the routing
      // observer reports), which matches service order by construction
      // but is kept explicit here.
      if (services[s].prefix >= 0 &&
          services[s].prefix < static_cast<int>(prefix_letter.size())) {
        const auto p = static_cast<std::size_t>(services[s].prefix);
        prefix_letter[p] = services[s].letter;
        c_catchment[p] = &metrics.counter("bgp.catchment_moves", labels);
      }
    }
  }

  deployment_->routing().set_observer(
      [this, &result, &c_catchment,
       &prefix_letter](int prefix, const std::vector<bgp::RouteChange>& changes) {
        result.route_changes.insert(result.route_changes.end(),
                                    changes.begin(), changes.end());
        if (collector_) collector_->observe(prefix, changes);
        if (obs_ && prefix >= 0 &&
            prefix < static_cast<int>(prefix_letter.size()) &&
            !changes.empty()) {
          const auto p = static_cast<std::size_t>(prefix);
          if (c_catchment[p] != nullptr) c_catchment[p]->add(changes.size());
          obs_->event(obs::TraceEventType::kCatchmentFlip,
                      changes.front().time, prefix_letter[p],
                      std::string(1, prefix_letter[p]),
                      std::to_string(changes.size()) + " ASes changed site",
                      static_cast<double>(changes.size()));
        }
      });

  atlas::RecordSet raw;
  if (config_.collect_records) {
    // Rough pre-size: probes per (VP, letter) across the probe window.
    const double window_s = (config_.probe_window.end -
                             config_.probe_window.begin).seconds();
    std::size_t expected = 0;
    for (int s : probed_services_) {
      expected += vps_.size() *
                  static_cast<std::size_t>(std::max(
                      1.0, window_s / (static_cast<double>(
                                          probe_interval_ms_[s]) /
                                      1000.0)));
    }
    raw.reserve(expected + expected / 8);
  }

  const net::SimTime step = config_.step;
  for (net::SimTime t = config_.start; t < config_.end; t = t + step) {
    if (c_steps != nullptr) c_steps->add();
    // Scheduled faults land before anything else this step, so every
    // defense layer below sees (and must live with) the injected state,
    // and holds_site() answers for the current step.
    if (fault_) {
      obs::PhaseProfiler::Scope fault_phase(prof, "fault-injection");
      apply_fault_step(t);
    }
    // Maintenance flaps come back up first. Due entries are applied in
    // insertion order (same as the old erase-in-loop scan) and swept out
    // with one stable O(n) pass instead of an O(n^2) vector::erase per
    // due entry.
    if (!pending_reannounce_.empty()) {
      for (const PendingReannounce& pending : pending_reannounce_) {
        if (pending.when > t) continue;
        const int id = pending.site_id;
        auto& site = deployment_->site(id);
        // Sites the playbook withdrew stay down until its restore rule
        // fires — a maintenance timer must not undo a deliberate defense.
        // Likewise sites a hardware fault pins down.
        if (playbook_ && playbook_->holds(id)) continue;
        if (fault_ && fault_->holds_site(id)) continue;
        if (!site.policy_state().withdrawn()) {
          deployment_->apply_scope(id,
                                   site.spec().global
                                       ? anycast::SiteScope::kGlobal
                                       : anycast::SiteScope::kLocalOnly,
                                   t);
        }
      }
      std::erase_if(pending_reannounce_,
                    [t](const PendingReannounce& p) { return p.when <= t; });
    }

    active_event_ =
        fault_ ? fault_->shape(t, config_.schedule) : config_.schedule.active(t);
    deployment_->facilities().begin_step();

    {
      obs::PhaseProfiler::Scope fluid_phase(prof, "fluid-stepping");
      run_fluid_step(t, result, g_offered, g_served, g_failed_legit);
    }

    if (resolver_pop_) {
      // Clients react to the state the fluid pass just published: the
      // letters' live answered fractions and queue delays. Reads only;
      // nothing server-side depends on the population.
      obs::PhaseProfiler::Scope resolver_phase(prof, "resolver-population");
      run_resolver_step(t);
    }

    if (config_.collect_rssac) {
      obs::PhaseProfiler::Scope rssac_phase(prof, "rssac-accounting");
      record_rssac(t, result);
    }

    if (!probe_shards_.empty() && config_.probe_window.begin < t + step &&
        t < config_.probe_window.end) {
      // Serial capture of what this step's probes read; the probes
      // themselves run a block of steps at a time.
      obs::PhaseProfiler::Scope probe_phase(prof, "atlas-probing");
      capture_probe_step(t);
      if (block_steps_ == kProbeBlockSteps) flush_probes(raw);
    }

    {
      obs::PhaseProfiler::Scope policy_phase(prof, "defense-policy");
      // The reactive controller decides first, on this step's
      // observations; the static per-site policies then run over whatever
      // the playbook does not hold.
      if (playbook_) run_playbook_step(t);
      if (config_.adaptive_defense) {
        apply_adaptive_defense(t);
      } else {
        apply_policy_step(t, result);
      }
      update_h_root_backup(t);
    }

    if (timeline_ != nullptr) {
      // After defense-policy, so announce states and playbook signals
      // reflect this step's decisions.
      obs::PhaseProfiler::Scope record_phase(prof, "timeline-record");
      record_timeline_step(t);
    }

    // Background maintenance churn.
    if (rng_.chance(config_.maintenance_flap_per_step)) {
      const int id =
          static_cast<int>(rng_.below(
              static_cast<std::uint64_t>(deployment_->site_count())));
      auto& site = deployment_->site(id);
      const auto normal = site.spec().global ? anycast::SiteScope::kGlobal
                                             : anycast::SiteScope::kLocalOnly;
      if (site.scope() == normal && !site.policy_state().withdrawn()) {
        deployment_->apply_scope(id, anycast::SiteScope::kDown, t);
        pending_reannounce_.push_back(
            PendingReannounce{id, t + net::SimTime::from_minutes(10)});
      }
    }
  }

  if (block_steps_ > 0) {
    // The last, partial block.
    obs::PhaseProfiler::Scope probe_phase(prof, "atlas-probing");
    flush_probes(raw);
  }

  {
    // Data cleaning (§2.4.1): firmware + hijack rules, compacting the raw
    // records in place into the result.
    obs::PhaseProfiler::Scope cleaning_phase(prof, "cleaning");
    const auto keep = atlas::select_vps(vps_, raw, &result.cleaning);
    atlas::filter_records(raw, keep, &result.cleaning);
    result.records = std::move(raw);
  }

  if (collector_) {
    for (std::size_t s = 0; s < services.size(); ++s) {
      result.collector_series.push_back(
          collector_->series(services[s].prefix));
    }
  }

  if (playbook_) {
    result.playbook = playbook_->stats();
    if (obs_) {
      const std::int64_t lag = result.playbook.detection_lag_ms();
      obs_->metrics()
          .gauge("playbook.detection_lag_bins")
          .set(lag < 0 ? -1.0
                       : static_cast<double>(lag) /
                             static_cast<double>(config_.bin_width.ms));
    }
  }

  if (resolver_pop_) {
    result.enduser = resolver_pop_->report();
    if (obs_) {
      auto& metrics = obs_->metrics();
      metrics.gauge("enduser.success_rate").set(result.enduser.success_rate());
      metrics.gauge("enduser.cache_hit_rate")
          .set(result.enduser.cache_hit_rate());
      metrics.gauge("enduser.added_latency_ms")
          .set(result.enduser.added_latency_ms());
      metrics.gauge("enduser.retries_per_query")
          .set(result.enduser.retries_per_query());
    }
  }

  if (obs_) {
    // Pool lifetime counters: one engine runs once, so the totals are
    // this run's totals.
    auto& metrics = obs_->metrics();
    metrics.counter("parallel.tasks", {{"component", "engine"}})
        .add(pool_->tasks_executed());
    metrics.counter("parallel.dispatches", {{"component", "engine"}})
        .add(pool_->dispatches());
    // One probe dispatch per block of captured steps.
    metrics.counter("atlas.probe_blocks", {{"component", "engine"}})
        .add(probe_blocks_);
    // Fluid work: how many service-steps recomputed their per-site loads
    // and how many reused the previous step's (same catchment epoch and
    // rates). Tallied per service lane, so the parallel pass needs no
    // atomics.
    std::uint64_t load_recomputes = 0;
    std::uint64_t load_reuses = 0;
    for (const ServiceLoad& load : current_loads_) {
      load_recomputes += load.recomputes;
      load_reuses += load.reuses;
    }
    metrics.counter("sim.fluid.load_recomputes", {{"component", "engine"}})
        .add(load_recomputes);
    metrics.counter("sim.fluid.load_reuses", {{"component", "engine"}})
        .add(load_reuses);
    // Flush the trace when asked, then snapshot; the snapshot counts the
    // flush log line too, which is fine — telemetry observes itself last.
    if (const char* path = std::getenv("ROOTSTRESS_TRACE");
        path != nullptr && *path != '\0') {
      if (obs_->trace().flush_to_file(path)) {
        RS_LOG_INFO << "trace flushed to " << path;
      } else {
        RS_LOG_ERROR << "could not write trace to " << path;
      }
    }
    obs_->trace().detach_logger();
    result.telemetry = obs_->snapshot(config_.end);

    // External-format exports next to the trace flush. Atomic writes
    // (temp + rename): campaign cells sharing one destination path never
    // leave a torn file, and the last completed run wins.
    if (const char* path = std::getenv("ROOTSTRESS_PERFETTO");
        path != nullptr && *path != '\0') {
      const std::string trace_json = obs::perfetto_trace_json(
          result.telemetry, obs_->trace().events());
      if (obs::write_text_file(path, trace_json)) {
        RS_LOG_INFO << "perfetto trace written to " << path;
      } else {
        RS_LOG_ERROR << "could not write perfetto trace to " << path;
      }
    }
    if (const char* path = std::getenv("ROOTSTRESS_PROM");
        path != nullptr && *path != '\0') {
      if (obs::write_text_file(path,
                               obs::prometheus_text(result.telemetry.metrics))) {
        RS_LOG_INFO << "prometheus metrics written to " << path;
      } else {
        RS_LOG_ERROR << "could not write prometheus metrics to " << path;
      }
    }
  }
  return result;
}

void SimulationEngine::setup_timeline() {
  if (!obs_) return;
  timeline_ =
      &obs_->make_timeline(config_.start, config_.end, config_.bin_width);
  const auto& services = deployment_->services();
  const auto site_count = static_cast<std::size_t>(deployment_->site_count());

  tl_letter_offered_.resize(services.size());
  tl_letter_served_.resize(services.size());
  tl_letter_answered_.resize(services.size());
  tl_letter_delay_.resize(services.size());
  tl_letter_announced_.resize(services.size());
  for (std::size_t s = 0; s < services.size(); ++s) {
    const char letter = services[s].letter;
    tl_letter_offered_[s] = timeline_->add_series(
        "letter.offered_qps", letter, {}, obs::SeriesAgg::kMean);
    tl_letter_served_[s] = timeline_->add_series(
        "letter.served_qps", letter, {}, obs::SeriesAgg::kMean);
    tl_letter_answered_[s] = timeline_->add_series(
        "letter.answered_fraction", letter, {}, obs::SeriesAgg::kMean);
    tl_letter_delay_[s] = timeline_->add_series(
        "letter.queue_delay_ms", letter, {}, obs::SeriesAgg::kMean);
    tl_letter_announced_[s] = timeline_->add_series(
        "letter.announced_sites", letter, {}, obs::SeriesAgg::kLast);
  }

  tl_site_answered_.resize(site_count);
  tl_site_offered_.resize(site_count);
  tl_site_state_.resize(site_count);
  for (std::size_t id = 0; id < site_count; ++id) {
    const auto& site = deployment_->site(static_cast<int>(id));
    tl_site_answered_[id] =
        timeline_->add_series("site.answered_fraction", site.letter(),
                              site.label(), obs::SeriesAgg::kMean);
    tl_site_offered_[id] =
        timeline_->add_series("site.offered_qps", site.letter(), site.label(),
                              obs::SeriesAgg::kMean);
    tl_site_state_[id] =
        timeline_->add_series("site.announce_state", site.letter(),
                              site.label(), obs::SeriesAgg::kLast);
  }

  if (playbook_) {
    tl_pb_detected_ = timeline_->add_series("playbook.detected_sites", 0, {},
                                            obs::SeriesAgg::kLast);
    tl_pb_loss_.resize(site_count);
    for (std::size_t id = 0; id < site_count; ++id) {
      const auto& site = deployment_->site(static_cast<int>(id));
      tl_pb_loss_[id] =
          timeline_->add_series("playbook.loss_ema", site.letter(),
                                site.label(), obs::SeriesAgg::kLast);
    }
    const auto& rules = playbook_->stats().rules;
    tl_pb_rule_fired_.resize(rules.size());
    tl_prev_rule_fired_.assign(rules.size(), 0);
    for (std::size_t r = 0; r < rules.size(); ++r) {
      tl_pb_rule_fired_[r] = timeline_->add_series(
          "playbook.rule_fired", 0, rules[r].name, obs::SeriesAgg::kSum);
    }
  }
  if (resolver_pop_) {
    tl_eu_success_ = timeline_->add_series("enduser.success_fraction", 0, {},
                                           obs::SeriesAgg::kMean);
    tl_eu_cache_hit_ = timeline_->add_series("enduser.cache_hit_fraction", 0,
                                             {}, obs::SeriesAgg::kMean);
    tl_eu_root_qps_ = timeline_->add_series("enduser.root_qps", 0, {},
                                            obs::SeriesAgg::kMean);
    tl_eu_latency_ = timeline_->add_series("enduser.added_latency_ms", 0, {},
                                           obs::SeriesAgg::kMean);
    tl_eu_retries_ = timeline_->add_series("enduser.retries", 0, {},
                                           obs::SeriesAgg::kSum);
  }

  tl_hold_span_.assign(site_count, obs::Timeline::npos);

  // Schedule-derived labels: fault-injector windows plus the base attack
  // events — the ground truth later dataset export labels bins with.
  for (auto& span : fault::timeline_spans(config_.fault_schedule)) {
    timeline_->add_span(std::move(span));
  }
  for (const auto& event : config_.schedule.events()) {
    obs::TimelineSpan span;
    span.category = "attack";
    span.name = event.qname.empty() ? "attack-event" : event.qname;
    span.begin = event.when.begin;
    span.end = event.when.end;
    timeline_->add_span(std::move(span));
  }
}

void SimulationEngine::record_timeline_step(net::SimTime t) {
  const auto& services = deployment_->services();
  for (std::size_t s = 0; s < services.size(); ++s) {
    const auto& svc = services[s];
    const auto& load = current_loads_[s];
    timeline_->record(tl_letter_offered_[s], t, step_offered_[s]);
    timeline_->record(tl_letter_served_[s], t, step_served_[s]);
    // Answered fraction weighs legit traffic only (the paper's user-view
    // reachability); failed includes unrouted legit from pass 2.
    const double denom = step_served_legit_[s] + prev_failed_legit_[s];
    timeline_->record(tl_letter_answered_[s], t,
                      denom > 0.0 ? step_served_legit_[s] / denom : 1.0);
    double weighted_delay = 0.0;
    double offered_across = 0.0;
    int announced = 0;
    for (int id : svc.site_ids) {
      const auto& site = deployment_->site(id);
      const auto idx = static_cast<std::size_t>(id);
      const double offered = load.attack_qps[idx] + load.legit_qps[idx];
      timeline_->record(tl_site_answered_[idx], t,
                        offered > 0.0 ? 1.0 - site.arrival_loss() : 1.0);
      timeline_->record(tl_site_offered_[idx], t, offered);
      timeline_->record(tl_site_state_[idx], t,
                        anycast::scope_level(site.scope()));
      if (site.scope() != anycast::SiteScope::kDown) ++announced;
      weighted_delay += site.outcome().queue_delay_ms * offered;
      offered_across += offered;
    }
    // Offered-weighted mean queue delay: the letter's RTT inflation as
    // its clients experience it.
    timeline_->record(
        tl_letter_delay_[s], t,
        offered_across > 0.0 ? weighted_delay / offered_across : 0.0);
    timeline_->record(tl_letter_announced_[s], t,
                      static_cast<double>(announced));
  }

  if (playbook_) {
    const auto& estimator = playbook_->estimator();
    timeline_->record(tl_pb_detected_, t,
                      static_cast<double>(estimator.detected_count()));
    for (std::size_t id = 0; id < tl_pb_loss_.size(); ++id) {
      timeline_->record(tl_pb_loss_[id], t, estimator.site(id).loss_ema);
    }
    const auto& rules = playbook_->stats().rules;
    for (std::size_t r = 0; r < rules.size(); ++r) {
      const std::uint64_t delta = rules[r].fired - tl_prev_rule_fired_[r];
      if (delta > 0) {
        timeline_->record(tl_pb_rule_fired_[r], t,
                          static_cast<double>(delta));
      }
      tl_prev_rule_fired_[r] = rules[r].fired;
    }
  }

  if (resolver_pop_) {
    const auto& step = resolver_pop_->last_step();
    if (step.client_queries > 0) {
      const double q = static_cast<double>(step.client_queries);
      timeline_->record(tl_eu_success_, t,
                        (q - static_cast<double>(step.failures)) / q);
      timeline_->record(tl_eu_cache_hit_, t,
                        static_cast<double>(step.cache_hits) / q);
      timeline_->record(tl_eu_latency_, t, step.latency_sum_ms / q);
    }
    timeline_->record(tl_eu_root_qps_, t,
                      static_cast<double>(step.root_queries) /
                          (static_cast<double>(config_.step.ms) / 1000.0));
    if (step.retries > 0) {
      timeline_->record(tl_eu_retries_, t,
                        static_cast<double>(step.retries));
    }
  }
}

void SimulationEngine::run_resolver_step(net::SimTime t) {
  // Inputs mirror the flight recorder's letter series exactly: the legit
  // answered fraction and the offered-weighted queue delay of each root
  // letter, read from the fluid step that just published. '.nl' is not a
  // root letter and is skipped.
  constexpr double kBaseRttMs = 60.0;
  const auto& services = deployment_->services();
  resolver_success_.fill(1.0);
  resolver_rtt_ms_.fill(kBaseRttMs);
  for (std::size_t s = 0; s < services.size(); ++s) {
    const auto& svc = services[s];
    const int li = svc.letter_index;
    if (li < 0 || li >= static_cast<int>(resolver::kLetterCount)) continue;
    const auto lane = static_cast<std::size_t>(li);
    const double denom = step_served_legit_[s] + prev_failed_legit_[s];
    resolver_success_[lane] =
        denom > 0.0 ? step_served_legit_[s] / denom : 1.0;
    const auto& load = current_loads_[s];
    double weighted_delay = 0.0;
    double offered_across = 0.0;
    for (int id : svc.site_ids) {
      const auto idx = static_cast<std::size_t>(id);
      const double offered = load.attack_qps[idx] + load.legit_qps[idx];
      weighted_delay +=
          deployment_->site(id).outcome().queue_delay_ms * offered;
      offered_across += offered;
    }
    resolver_rtt_ms_[lane] =
        kBaseRttMs +
        (offered_across > 0.0 ? weighted_delay / offered_across : 0.0);
  }
  // Flash crowds raise client demand exactly as they raise the fluid
  // model's legit rate.
  const double demand_scale = fault_ ? fault_->legit_scale() : 1.0;
  resolver_pop_->step(t, resolver_success_, resolver_rtt_ms_, demand_scale,
                      *pool_);
}

void SimulationEngine::run_fluid_step(
    net::SimTime t, SimulationResult& result,
    const std::vector<obs::Gauge*>& g_offered,
    const std::vector<obs::Gauge*>& g_served,
    const std::vector<obs::Gauge*>& g_failed_legit) {
  const auto& services = deployment_->services();
  // Pass 1 (parallel over services): where does each service's traffic
  // land, and what does it put on shared uplinks? Each lane writes only
  // its own ServiceLoad buffer and facility-contribution list; nothing
  // here reads another service's output.
  // Fault-layer step state, read once before the parallel region (the
  // runtime is mutated only in the serial fault-injection phase).
  const double legit_scale = fault_ ? fault_->legit_scale() : 1.0;
  pool_->parallel_for(services.size(), [&](std::size_t s) {
    const auto& svc = services[s];
    const bool statically_attacked =
        svc.letter_index >= 0 &&
        deployment_->letters()[static_cast<std::size_t>(svc.letter_index)]
            .attacked;
    const bool attacked =
        active_event_ != nullptr &&
        (fault_ ? fault_->letter_attacked(svc.letter, statically_attacked)
                : statically_attacked);
    double attack_qps = attacked ? active_event_->per_letter_qps : 0.0;
    if (!attacked && active_event_ != nullptr && svc.letter_index >= 0) {
      // Spillover: spared letters still see a sliver of the (spoofed)
      // attack stream.
      attack_qps = active_event_->per_letter_qps *
                   active_event_->spillover_fraction;
    }
    // Retries from other letters' failures last step (resolver
    // failover; .nl neither receives nor generates root retries).
    double retry_in = 0.0;
    if (svc.letter != 'N') {
      for (std::size_t o = 0; o < services.size(); ++o) {
        if (o == s || services[o].letter == 'N') continue;
        retry_in += prev_failed_legit_[o] * config_.legit.retry_fraction /
                    12.0;
      }
    }
    // A flash-crowd surge scales the base legitimate rate; retries are
    // already a consequence of load and are not double-scaled.
    const double legit_qps =
        config_.legit.per_letter_qps * legit_scale + retry_in;
    compute_service_load_into(*deployment_, svc, botnet_, legit_, attack_qps,
                              legit_qps, current_loads_[s]);

    const double q_payload = active_event_ != nullptr && attacked
                                 ? active_event_->query_payload_bytes
                                 : config_.legit.query_payload_bytes;
    const double r_payload = active_event_ != nullptr && attacked
                                 ? active_event_->response_payload_bytes
                                 : config_.legit.response_payload_bytes;
    const double suppression =
        attacked
            ? dns::expected_suppression(active_event_->duplicate_fraction)
            : 0.0;
    const auto& load = current_loads_[s];
    auto& contrib = facility_contrib_[s];
    contrib.clear();
    for (int id : svc.site_ids) {
      const double offered =
          load.attack_qps[static_cast<std::size_t>(id)] +
          load.legit_qps[static_cast<std::size_t>(id)];
      const auto& site = deployment_->site(id);
      if (offered > 0.0 && site.facility() >= 0) {
        // Only sites actually running RRL suppress responses on their
        // uplink (a playbook may have toggled it per site).
        contrib.emplace_back(
            site.facility(),
            site_uplink_gbps(site, offered, q_payload, r_payload,
                             site.rrl_enabled() ? suppression : 0.0));
      }
    }
  });

  // Merge facility loads sequentially in (service, site) order: the
  // floating-point accumulation order is fixed, so uplink sums are
  // bit-identical for any thread count.
  for (std::size_t s = 0; s < services.size(); ++s) {
    for (const auto& [facility, gbps] : facility_contrib_[s]) {
      deployment_->facilities().add_load(facility, gbps);
    }
  }

  // Pass 2 (parallel over services): evaluate every site's queue with
  // its facility's shared loss, and record the fluid series. Sites
  // belong to exactly one service, so site state, per-site series, and
  // per-service series/gauges are all lane-private.
  const double step_s = config_.step.seconds();
  pool_->parallel_for(services.size(), [&](std::size_t s) {
    const auto& svc = services[s];
    const auto& load = current_loads_[s];
    double offered_total = load.unrouted_attack + load.unrouted_legit;
    double served_total = 0.0;
    double served_legit = 0.0;
    double failed_legit = load.unrouted_legit;
    for (int id : svc.site_ids) {
      auto& site = deployment_->site(id);
      const double attack = load.attack_qps[static_cast<std::size_t>(id)];
      const double lq = load.legit_qps[static_cast<std::size_t>(id)];
      const double shared = site.facility() >= 0
                                ? deployment_->facilities().shared_loss(
                                      site.facility())
                                : 0.0;
      site.begin_step(attack, lq, shared, t);
      const double offered = attack + lq;
      const double served = offered * (1.0 - site.arrival_loss());
      offered_total += offered;
      served_total += served;
      served_legit += lq * (1.0 - site.arrival_loss());
      failed_legit += lq * site.arrival_loss();
      result.site_served_qps[static_cast<std::size_t>(id)].add(t.ms, served);
      result.site_offered_attack_qps[static_cast<std::size_t>(id)].add(
          t.ms, attack);
      result.site_loss_fraction[static_cast<std::size_t>(id)].add(
          t.ms, site.arrival_loss());
    }
    result.service_offered_qps[s].add(t.ms, offered_total);
    result.service_served_qps[s].add(t.ms, served_total);
    result.service_served_legit_qps[s].add(t.ms, served_legit);
    result.service_failed_legit_qps[s].add(t.ms, failed_legit);
    prev_failed_legit_[s] = failed_legit;
    step_offered_[s] = offered_total;
    step_served_[s] = served_total;
    step_served_legit_[s] = served_legit;
    if (g_offered[s] != nullptr) {
      g_offered[s]->add(offered_total * step_s);
      g_served[s]->add(served_total * step_s);
      g_failed_legit[s]->add(failed_legit * step_s);
    }
  });
}

void SimulationEngine::record_rssac(net::SimTime now,
                                    SimulationResult& result) {
  const auto& services = deployment_->services();
  const double step_s = config_.step.seconds();
  for (std::size_t s = 0; s < services.size(); ++s) {
    const auto& svc = services[s];
    if (svc.letter_index < 0) continue;  // .nl does not publish RSSAC
    const auto& cfg =
        deployment_->letters()[static_cast<std::size_t>(svc.letter_index)];
    const auto& load = current_loads_[s];

    double attack_recv = 0.0, legit_recv = 0.0;
    double attack_recv_rrl = 0.0;  ///< attack arrivals at RRL-enabled sites
    for (int id : svc.site_ids) {
      const auto& site = deployment_->site(id);
      const double pass = 1.0 - site.arrival_loss();
      const double attack_at_site =
          load.attack_qps[static_cast<std::size_t>(id)] * pass;
      attack_recv += attack_at_site;
      if (site.rrl_enabled()) attack_recv_rrl += attack_at_site;
      legit_recv += load.legit_qps[static_cast<std::size_t>(id)] * pass;
    }

    const bool under_attack =
        active_event_ != nullptr &&
        (fault_ ? fault_->letter_attacked(svc.letter, cfg.attacked)
                : cfg.attacked);
    const double metering =
        under_attack ? 1.0 - cfg.rssac_metering_loss : 1.0;

    if (attack_recv > 0.0 && active_event_ != nullptr) {
      rssac::StepTraffic traffic;
      traffic.queries_received = attack_recv * step_s;
      // RRL suppression applies only to the share of arrivals landing at
      // RRL-enabled sites. With RRL on everywhere the share is exactly
      // 1.0, so the product reduces bit-identically to the plain form.
      const double rrl_share = attack_recv_rrl / attack_recv;
      traffic.responses_sent =
          attack_recv *
          (1.0 -
           dns::expected_suppression(active_event_->duplicate_fraction) *
               rrl_share) *
          step_s;
      traffic.random_source_queries =
          attack_recv * botnet_.config().spoof_uniform_fraction * step_s;
      traffic.query_payload_bytes = active_event_->query_payload_bytes;
      traffic.response_payload_bytes = active_event_->response_payload_bytes;
      traffic.metering_factor = metering;
      traffic.heavy_hitter_sources = kHeavyHitters;
      traffic.unique_counter_cap = cfg.unique_counter_cap;
      result.rssac.add_step(svc.letter_index, now, traffic);
    }
    {
      rssac::StepTraffic traffic;
      traffic.queries_received = legit_recv * step_s;
      traffic.responses_sent = legit_recv * step_s;
      traffic.resolver_queries = legit_recv * step_s;
      traffic.query_payload_bytes = config_.legit.query_payload_bytes;
      traffic.response_payload_bytes = config_.legit.response_payload_bytes;
      traffic.metering_factor = metering;
      traffic.unique_counter_cap = cfg.unique_counter_cap;
      result.rssac.add_step(svc.letter_index, now, traffic);
    }
  }
}

void SimulationEngine::capture_probe_step(net::SimTime step_begin) {
  const std::size_t j = block_steps_++;
  block_step_begin_[j] = step_begin;
  const auto site_count = static_cast<std::size_t>(deployment_->site_count());
  anycast::SiteProbeState* states = &block_site_states_[j * site_count];
  for (std::size_t id = 0; id < site_count; ++id) {
    states[id] = deployment_->site(static_cast<int>(id)).probe_state();
  }
  const auto& routing = deployment_->routing();
  const auto& services = deployment_->services();
  const std::size_t probed = probed_services_.size();
  for (std::size_t k = 0; k < probed; ++k) {
    const int prefix =
        services[static_cast<std::size_t>(probed_services_[k])].prefix;
    const std::uint64_t epoch = routing.catchment_epoch(prefix);
    if (epoch != route_version_epoch_[k]) {
      // Equal epochs imply an identical site_of, so only a moved epoch
      // needs a copy. The ring slot after the newest copy is either
      // unused in this block or held only by a version the block no
      // longer references.
      const std::uint32_t slot = static_cast<std::uint32_t>(
          (route_version_slot_[k] + 1) % kProbeBlockSteps);
      const auto site_of = routing.site_of(prefix);
      std::copy(site_of.begin(), site_of.end(),
                route_versions_.begin() +
                    static_cast<std::ptrdiff_t>(
                        (k * kProbeBlockSteps + slot) * probe_as_count_));
      route_version_slot_[k] = slot;
      route_version_epoch_[k] = epoch;
    }
    block_route_slot_[j * probed + k] = static_cast<std::uint32_t>(
        k * kProbeBlockSteps + route_version_slot_[k]);
  }
}

void SimulationEngine::flush_probes(atlas::RecordSet& raw) {
  ++probe_blocks_;
  // The closure captures only `this`, so std::function keeps it inline:
  // dispatching the block allocates nothing.
  pool_->parallel_for(probe_shards_.size(),
                      [this](std::size_t i) { probe_block(probe_shards_[i]); });
  // Deterministic merge: step by step, then shards in service-major,
  // ascending-VP order, each in (VP, time) order within the step. That is
  // the serial (step, service, VP, time) record stream exactly.
  for (std::size_t j = 0; j < block_steps_; ++j) {
    for (const ProbeShard& shard : probe_shards_) {
      shard.records.append_to(raw, j == 0 ? 0 : shard.step_end[j - 1],
                              shard.step_end[j]);
    }
  }
  block_steps_ = 0;
}

void SimulationEngine::probe_block(ProbeShard& shard) {
  shard.records.clear();
  const int s = shard.service;
  const std::int64_t interval =
      probe_interval_ms_[static_cast<std::size_t>(s)];
  const auto site_count = static_cast<std::size_t>(deployment_->site_count());
  const std::size_t probed = probed_services_.size();
  for (std::size_t j = 0; j < block_steps_; ++j) {
    const net::SimTime step_begin = block_step_begin_[j];
    const std::int64_t step_end = step_begin.ms + config_.step.ms;
    const std::int32_t* site_of =
        &route_versions_[block_route_slot_[j * probed + shard.probed_index] *
                         probe_as_count_];
    const anycast::SiteProbeState* states =
        &block_site_states_[j * site_count];
    for (std::size_t v = shard.vp_begin; v < shard.vp_end; ++v) {
      const auto& vp = vps_[v];
      // Per-(VP, letter) phase spread across the whole probing interval,
      // so infrequently probed letters (A at 30 min) still cover every
      // analysis bin with a subset of VPs.
      const std::int64_t phase = static_cast<std::int64_t>(
          util::mix64(static_cast<std::uint64_t>(vp.phase_ms) * 131 +
                      static_cast<std::uint64_t>(s)) %
          static_cast<std::uint64_t>(interval));
      // First probe time >= step_begin on this VP's schedule.
      std::int64_t offset = (step_begin.ms - phase) % interval;
      if (offset < 0) offset += interval;
      std::int64_t tp = step_begin.ms + ((interval - offset) % interval);
      for (; tp < step_end; tp += interval) {
        const net::SimTime when(tp);
        if (!config_.probe_window.contains(when)) continue;
        // A dropped-out VP is silent for the whole dropout window: no
        // record at all, like a real probe going dark. vp_dropped is a
        // pure hash, so this stays thread-order-invariant.
        if (fault_ && fault_->vp_dropped(vp.id, when)) continue;
        probe_once(vp, s, site_of, states, when, shard.records);
      }
    }
    shard.step_end[j] = static_cast<std::uint32_t>(shard.records.size());
  }
}

void SimulationEngine::probe_once(const atlas::VantagePoint& vp,
                                  int service_index,
                                  const std::int32_t* site_of,
                                  const anycast::SiteProbeState* states,
                                  net::SimTime when, atlas::RecordSoA& out) {
  // Every random draw for this probe comes from its own stream keyed on
  // (seed, service, VP, time): probe outcomes are a pure function of the
  // schedule, independent of thread count and execution order.
  util::Rng rng = probe_rng(config_.seed, service_index, vp.id, when);
  atlas::ProbeRecord rec;
  rec.vp = static_cast<std::uint32_t>(vp.id);
  rec.t_s = static_cast<std::uint32_t>(when.ms / 1000);
  rec.letter_index = static_cast<std::uint8_t>(service_index);
  rec.outcome = atlas::ProbeOutcome::kTimeout;
  rec.site_id = -1;

  if (vp.hijacked) {
    // A middlebox answers locally: wrong pattern, implausibly fast.
    rec.outcome = atlas::ProbeOutcome::kError;
    rec.rtt_ms = static_cast<std::uint16_t>(2 + rng.below(4));
    out.push(rec);
    return;
  }

  // Unreachable ASes hold the sink slot site_count.
  const std::int32_t site_id = site_of[vp.as_index];
  if (site_id < 0 || site_id >= deployment_->site_count()) {
    out.push(rec);  // no route: query never arrives
    return;
  }
  auto& site = deployment_->site(site_id);

  const auto reply = site.probe_with(
      states[site_id], vp.address,
      chaos_query_[static_cast<std::size_t>(service_index)], rng);
  if (!reply.answered) {
    out.push(rec);
    return;
  }
  const double base =
      net::base_rtt_ms(vp.location, site.location()) * rng.uniform(0.95, 1.1);
  const double rtt = base + reply.extra_delay_ms;
  if (rtt >= atlas::kTimeoutMs) {
    out.push(rec);  // reply arrived after the Atlas timeout
    return;
  }
  rec.rtt_ms = static_cast<std::uint16_t>(
      std::min(rtt, 65535.0));

  // The reply is validated as a whole message on the wire, but nothing
  // is copied out of it: the TXT identity is a view into reply.wire.
  const auto response = dns::decode_view(reply.wire);
  if (!response || !response->first_answer) {
    rec.outcome = atlas::ProbeOutcome::kError;
    out.push(rec);
    return;
  }
  rec.rcode = static_cast<std::uint8_t>(response->header.rcode);
  const auto txt = response->first_answer->txt_value();
  // The interned table maps the full CHAOS identity text straight to its
  // (site, server): one hash lookup, no key string, no format re-parse.
  // Unknown text (an identity no deployed server owns) stays an error,
  // exactly as the old parse-then-lookup chain classified it.
  const auto it =
      txt ? site_by_identity_.find(*txt) : site_by_identity_.end();
  if (it == site_by_identity_.end()) {
    rec.outcome = atlas::ProbeOutcome::kError;
    out.push(rec);
    return;
  }
  rec.outcome = atlas::ProbeOutcome::kSite;
  rec.site_id = static_cast<std::int16_t>(it->second >> 8);
  rec.server = static_cast<std::uint8_t>(it->second & 0xff);
  out.push(rec);
}

void SimulationEngine::apply_fault_step(net::SimTime t) {
  for (const fault::DueAction& action : fault_->begin_step(t)) {
    auto& site = deployment_->site(action.site_id);
    switch (action.kind) {
      case fault::DueAction::Kind::kSiteDown:
        if (site.scope() != anycast::SiteScope::kDown) {
          deployment_->apply_scope(action.site_id, anycast::SiteScope::kDown,
                                   t);
        }
        break;
      case fault::DueAction::Kind::kSiteRestore: {
        // Hardware is back, but a deliberate defense decision outranks
        // the repair crew: a playbook hold or a policy-withdrawn state
        // keeps the site dark until its own restore path fires.
        if (playbook_ && playbook_->holds(action.site_id)) break;
        if (site.policy_state().withdrawn()) break;
        const auto normal = site.spec().global ? anycast::SiteScope::kGlobal
                                               : anycast::SiteScope::kLocalOnly;
        if (site.scope() != normal) {
          deployment_->apply_scope(action.site_id, normal, t);
        }
        break;
      }
      case fault::DueAction::Kind::kSessionDown:
        deployment_->routing().set_announced(action.prefix, action.site_id,
                                             false, t);
        break;
      case fault::DueAction::Kind::kSessionRestore:
        // Reassert whatever the site's scope currently implies; a site
        // withdrawn (by fault or defense) while the session was down
        // stays withdrawn.
        if (site.scope() != anycast::SiteScope::kDown) {
          deployment_->routing().set_origin_state(
              action.prefix, action.site_id, true,
              site.scope() == anycast::SiteScope::kLocalOnly, t);
        }
        break;
    }
    obs::emit_event(obs_.get(), obs::TraceEventType::kFaultInjection, t,
                    site.letter(), site.label(), fault::to_string(action.kind),
                    static_cast<double>(action.site_id));
  }

  // Pulse-envelope transitions are injections too: a pulse turning on or
  // off changes the world the defenses see, so it gets an instant in the
  // trace (and the Perfetto overlay) like any site-level fault action.
  const fault::PulseWave* pulse = fault_->active_pulse();
  const bool pulse_hot =
      pulse != nullptr && fault::FaultSchedule::envelope(*pulse, t) > 0.0;
  if (pulse_hot != fault_pulse_hot_) {
    fault_pulse_hot_ = pulse_hot;
    obs::emit_event(obs_.get(), obs::TraceEventType::kFaultInjection, t, 0,
                    "", pulse_hot ? "pulse-on" : "pulse-off",
                    pulse != nullptr ? pulse->peak_qps : 0.0);
  }
}

void SimulationEngine::apply_adaptive_defense(net::SimTime now) {
  // The §2.2 reasoning applied live, per letter: withdraw an overloaded
  // site only while the letter's remaining sites have headroom for its
  // catchment; otherwise keep it up as a degraded absorber. Withdrawn
  // sites see no traffic, so their would-be load is remembered from the
  // moment of withdrawal and slowly decayed — the hysteresis that keeps
  // the controller from flapping (the paper's warning that "the effects
  // of route changes are difficult to predict" is real: without this the
  // controller oscillates every step).
  constexpr double kDecayPerStep = 0.995;
  constexpr net::SimTime kCoolDown = net::SimTime::from_minutes(20);
  if (adaptive_last_offered_.empty()) {
    adaptive_last_offered_.assign(
        static_cast<std::size_t>(deployment_->site_count()), 0.0);
    adaptive_last_change_.assign(
        static_cast<std::size_t>(deployment_->site_count()),
        net::SimTime(-3600'000));
  }
  const auto& services = deployment_->services();
  for (std::size_t s = 0; s < services.size(); ++s) {
    const auto& svc = services[s];
    if (svc.letter_index < 0) continue;  // .nl keeps its own policy
    const auto& load = current_loads_[s];
    std::vector<double> capacity, offered;
    capacity.reserve(svc.site_ids.size());
    offered.reserve(svc.site_ids.size());
    for (const int id : svc.site_ids) {
      const auto& site = deployment_->site(id);
      capacity.push_back(site.spec().capacity_qps);
      const double observed =
          load.attack_qps[static_cast<std::size_t>(id)] +
          load.legit_qps[static_cast<std::size_t>(id)];
      auto& remembered = adaptive_last_offered_[static_cast<std::size_t>(id)];
      if (site.scope() == anycast::SiteScope::kDown || observed < remembered) {
        remembered *= kDecayPerStep;  // withdrawn (or shrinking): decay
      }
      remembered = std::max(remembered, observed);
      offered.push_back(remembered);
    }
    const auto advice =
        anycast::advise_observed(capacity, offered, obs_.get(), svc.letter);
    for (const auto& a : advice) {
      const int id = svc.site_ids[static_cast<std::size_t>(a.site_index)];
      auto& site = deployment_->site(id);
      // A fault-held site is physically down; no advice can act on it.
      if (fault_ && fault_->holds_site(id)) continue;
      if (now - adaptive_last_change_[static_cast<std::size_t>(id)] <
          kCoolDown) {
        continue;  // operators do not re-decide every minute
      }
      const auto normal = site.spec().global ? anycast::SiteScope::kGlobal
                                             : anycast::SiteScope::kLocalOnly;
      const auto before = site.scope();
      switch (a.action) {
        case anycast::AdvisedAction::kWithdraw:
          deployment_->apply_scope(id, anycast::SiteScope::kDown, now);
          break;
        case anycast::AdvisedAction::kPartialWithdraw:
          deployment_->apply_scope(
              id,
              site.spec().global ? anycast::SiteScope::kLocalOnly
                                 : anycast::SiteScope::kDown,
              now);
          break;
        case anycast::AdvisedAction::kAbsorb:
        case anycast::AdvisedAction::kNoAction:
          deployment_->apply_scope(id, normal, now);
          break;
      }
      if (site.scope() != before) {
        adaptive_last_change_[static_cast<std::size_t>(id)] = now;
        obs::emit_event(obs_.get(), obs::TraceEventType::kDefenseActivation,
                        now, site.letter(), site.label(),
                        anycast::to_string(a.action) + ": " + a.rationale,
                        a.overload);
      }
    }
  }
}

void SimulationEngine::apply_policy_step(net::SimTime now,
                                         SimulationResult& result) {
  (void)result;
  for (int id = 0; id < deployment_->site_count(); ++id) {
    auto& site = deployment_->site(id);
    // Reactive playbook decisions outrank the static stress policy: a
    // site the playbook holds (withdrew and has not restored) is not
    // re-decided here, whatever regime the scenario forces. Sites a
    // hardware fault pins down are not the policy's to re-announce.
    if (playbook_ && playbook_->holds(id)) continue;
    if (fault_ && fault_->holds_site(id)) continue;
    const auto action = site.policy_state().step(
        site.outcome().utilization, site.arrival_loss(), now, config_.step,
        rng_);
    switch (action) {
      case anycast::PolicyAction::kNone:
        break;
      case anycast::PolicyAction::kWithdraw: {
        if (veto_last_global_withdrawal(site, now)) break;
        const bool partial =
            site.policy_state().policy().partial_withdraw && site.spec().global;
        deployment_->apply_scope(id,
                                 partial ? anycast::SiteScope::kLocalOnly
                                         : anycast::SiteScope::kDown,
                                 now);
        break;
      }
      case anycast::PolicyAction::kReannounce:
        deployment_->apply_scope(id,
                                 site.spec().global
                                     ? anycast::SiteScope::kGlobal
                                     : anycast::SiteScope::kLocalOnly,
                                 now);
        break;
    }
  }
}

void SimulationEngine::run_playbook_step(net::SimTime now) {
  const auto site_count = static_cast<std::size_t>(deployment_->site_count());
  if (fault_ && fault_->telemetry_gap()) {
    // Frozen dashboards: the controller keeps stepping (cooldowns and
    // confirmation streaks still advance) but sees the last pre-gap
    // observations. A gap opening before any observation exists shows
    // clean defaults — no telemetry, no evidence.
    playbook_obs_.resize(site_count);
    playbook_->step(now, playbook_obs_, *this);
    return;
  }
  playbook_obs_.resize(site_count);
  for (std::size_t id = 0; id < site_count; ++id) {
    const auto& site = deployment_->site(static_cast<int>(id));
    playbook::SiteObservation& o = playbook_obs_[id];
    o.offered_qps = site.offered_attack_qps() + site.offered_legit_qps();
    // A dark or idle site produces no evidence: nothing arrives, so the
    // operator reads a clean answered fraction.
    o.answered_fraction =
        o.offered_qps > 0.0 ? 1.0 - site.arrival_loss() : 1.0;
    o.queue_delay_ms = site.outcome().queue_delay_ms;
    o.utilization = site.outcome().utilization;
  }
  playbook_->step(now, playbook_obs_, *this);
}

playbook::ActuationOutcome SimulationEngine::actuate(
    int site_id, const playbook::Action& action, net::SimTime now) {
  using playbook::ActionKind;
  using playbook::ActuationOutcome;
  auto& site = deployment_->site(site_id);
  switch (action.kind) {
    case ActionKind::kWithdrawSite:
    case ActionKind::kPartialWithdraw: {
      if (veto_last_global_withdrawal(site, now)) {
        return ActuationOutcome::kVetoed;
      }
      anycast::SiteScope target;
      if (action.kind == ActionKind::kWithdrawSite) {
        target = anycast::SiteScope::kDown;
      } else if (site.scope() == anycast::SiteScope::kGlobal) {
        target = anycast::SiteScope::kLocalOnly;
      } else {
        return ActuationOutcome::kNoop;  // already partial (or darker)
      }
      if (site.scope() == target) return ActuationOutcome::kNoop;
      deployment_->apply_scope(site_id, target, now);
      if (timeline_ != nullptr &&
          tl_hold_span_[static_cast<std::size_t>(site_id)] ==
              obs::Timeline::npos) {
        // Open a hold window; stays open to run end unless a restore
        // closes it.
        obs::TimelineSpan span;
        span.category = "playbook";
        span.name = "hold";
        span.scope = site.label();
        span.begin = now;
        span.end = config_.end;
        tl_hold_span_[static_cast<std::size_t>(site_id)] =
            timeline_->add_span(std::move(span));
      }
      return ActuationOutcome::kApplied;
    }
    case ActionKind::kRestoreSite: {
      // Restoring a site whose hardware is down does nothing: the fault
      // keeps it withdrawn until its own recovery, which then respects
      // the playbook's (cleared) hold.
      if (fault_ && fault_->holds_site(site_id)) return ActuationOutcome::kNoop;
      const auto normal = site.spec().global ? anycast::SiteScope::kGlobal
                                             : anycast::SiteScope::kLocalOnly;
      if (site.scope() == normal) return ActuationOutcome::kNoop;
      deployment_->apply_scope(site_id, normal, now);
      if (timeline_ != nullptr) {
        std::size_t& open = tl_hold_span_[static_cast<std::size_t>(site_id)];
        if (open != obs::Timeline::npos) {
          timeline_->close_span(open, now);
          open = obs::Timeline::npos;
        }
      }
      return ActuationOutcome::kApplied;
    }
    case ActionKind::kScaleCapacity:
      if (action.amount == 1.0) return ActuationOutcome::kNoop;
      site.scale_capacity(action.amount);
      return ActuationOutcome::kApplied;
    case ActionKind::kEnableRrl:
      if (site.rrl_enabled()) return ActuationOutcome::kNoop;
      site.set_rrl_enabled(true);
      return ActuationOutcome::kApplied;
    case ActionKind::kDisableRrl:
      if (!site.rrl_enabled()) return ActuationOutcome::kNoop;
      site.set_rrl_enabled(false);
      return ActuationOutcome::kApplied;
    case ActionKind::kPrependPath: {
      const auto& svc_of_site = deployment_->service(site.letter());
      const int hops = static_cast<int>(action.amount);
      if (deployment_->routing().prepend(svc_of_site.prefix, site_id) ==
          hops) {
        return ActuationOutcome::kNoop;
      }
      deployment_->apply_prepend(site_id, hops, now);
      return ActuationOutcome::kApplied;
    }
  }
  return ActuationOutcome::kNoop;
}

bool SimulationEngine::veto_last_global_withdrawal(anycast::AnycastSite& site,
                                                   net::SimTime now) {
  // A letter's last globally announced site never withdraws: the operator
  // keeps it up as a degraded absorber (case 5 of §2.2) rather than
  // blackhole the whole service. Primary/backup letters are exempt: their
  // fallback is administratively down by design.
  if (site.scope() != anycast::SiteScope::kGlobal) return false;
  const auto& svc_of_site = deployment_->service(site.letter());
  if (svc_of_site.letter_index >= 0 &&
      deployment_->letters()[static_cast<std::size_t>(
          svc_of_site.letter_index)].primary_backup) {
    return false;
  }
  int global_sites = 0;
  for (int other : svc_of_site.site_ids) {
    if (deployment_->site(other).scope() == anycast::SiteScope::kGlobal) {
      ++global_sites;
    }
  }
  if (global_sites > 1) return false;

  site.policy_state().veto_withdrawal();
  if (obs_) {
    obs_->metrics()
        .counter("policy.withdraw_veto",
                 {{"letter", std::string(1, site.letter())}})
        .add();
    obs_->event(obs::TraceEventType::kWithdrawVeto, now, site.letter(),
                site.label(), "last global site kept as degraded absorber",
                static_cast<double>(site.site_id()));
  }
  return true;
}

void SimulationEngine::update_h_root_backup(net::SimTime now) {
  const auto& services = deployment_->services();
  for (const auto& svc : services) {
    if (svc.letter_index < 0) continue;
    const auto& cfg =
        deployment_->letters()[static_cast<std::size_t>(svc.letter_index)];
    if (!cfg.primary_backup || svc.site_ids.size() < 2) continue;
    auto& primary = deployment_->site(svc.site_ids[0]);
    auto& backup = deployment_->site(svc.site_ids[1]);
    // A fault-held backup cannot be pressed into service.
    if (fault_ && fault_->holds_site(backup.site_id())) continue;
    const bool primary_up = primary.scope() == anycast::SiteScope::kGlobal;
    if (!primary_up && backup.scope() == anycast::SiteScope::kDown) {
      deployment_->apply_scope(backup.site_id(), anycast::SiteScope::kGlobal,
                               now);
    } else if (primary_up && backup.scope() != anycast::SiteScope::kDown) {
      deployment_->apply_scope(backup.site_id(), anycast::SiteScope::kDown,
                               now);
    }
  }
}

}  // namespace rootstress::sim
