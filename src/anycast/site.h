// An anycast site: servers behind a load balancer behind an ingress
// queue, with a stress policy and (optionally) a shared facility.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "anycast/letter.h"
#include "anycast/loadbalancer.h"
#include "anycast/policy.h"
#include "anycast/queue_model.h"
#include "anycast/server.h"
#include "net/clock.h"
#include "net/geo.h"
#include "util/rng.h"

namespace rootstress::obs {
class Counter;
class Runtime;
}  // namespace rootstress::obs

namespace rootstress::anycast {

/// Routing scope of a site's announcement.
enum class SiteScope : std::uint8_t {
  kGlobal,     ///< announced normally
  kLocalOnly,  ///< transit withdrawn; direct peers still routed (partial)
  kDown,       ///< fully withdrawn
};

/// Announce state as a plot level (timeline "site.announce_state"
/// series): 1.0 global, 0.5 local-only, 0.0 down.
constexpr double scope_level(SiteScope scope) noexcept {
  switch (scope) {
    case SiteScope::kGlobal: return 1.0;
    case SiteScope::kLocalOnly: return 0.5;
    case SiteScope::kDown: return 0.0;
  }
  return 0.0;
}

/// A DNS reply held inline. UDP without EDNS caps a message at 512
/// octets, so a probe reply never touches the heap; it reads as a byte
/// span (e.g. `dns::decode(reply.wire)`).
struct ReplyWire {
  std::array<std::uint8_t, 512> bytes;  ///< only [0, size) is written
  std::size_t size = 0;

  operator std::span<const std::uint8_t>() const noexcept {
    return {bytes.data(), size};
  }
};

/// Result of delivering one probe to the site.
struct ProbeReply {
  bool answered = false;
  int server = 0;               ///< 1-based index of the answering server
  double extra_delay_ms = 0.0;  ///< queueing delay beyond propagation
  ReplyWire wire;               ///< encoded DNS response (if answered)
};

/// The per-step site state a probe reads, captured so probes can run
/// after the site has moved on to later steps. Everything else a probe
/// reads (stress mode, server load weights and identities, location) is
/// fixed at construction.
struct SiteProbeState {
  double arrival_loss = 0.0;    ///< AnycastSite::arrival_loss()
  double queue_delay_ms = 0.0;  ///< outcome().queue_delay_ms
  int concentrate_server = 0;   ///< 0-based survivor when concentrating
  bool down = false;            ///< scope() == SiteScope::kDown
  bool overloaded = false;
};

/// Telemetry wiring for one site: a nullable runtime plus cached
/// instrument pointers (shared per letter — see make_queue_instruments).
/// Default-constructed = telemetry off.
struct SiteTelemetry {
  obs::Runtime* runtime = nullptr;
  obs::Counter* withdrawals = nullptr;      ///< per-letter
  obs::Counter* restores = nullptr;         ///< per-letter
  obs::Counter* overload_onsets = nullptr;  ///< per-letter
  QueueInstruments queue;
};

/// One site of one letter.
class AnycastSite {
 public:
  /// `site_id` is the deployment-global id; `host_as` the dense topology
  /// index of the site's host AS; `facility` an index into the
  /// deployment's facility table or -1.
  AnycastSite(int site_id, char letter, SiteSpec spec, net::GeoPoint location,
              int host_as, int facility, const StressPolicy& policy,
              util::Rng& rng);

  int site_id() const noexcept { return site_id_; }
  char letter() const noexcept { return letter_; }
  const SiteSpec& spec() const noexcept { return spec_; }
  net::GeoPoint location() const noexcept { return location_; }
  int host_as() const noexcept { return host_as_; }
  int facility() const noexcept { return facility_; }
  const std::string& code() const noexcept { return spec_.code; }

  /// "X-APT" label as used throughout the paper.
  std::string label() const;

  /// Current announcement scope (engine keeps routing in sync).
  SiteScope scope() const noexcept { return scope_; }
  void set_scope(SiteScope scope) noexcept { scope_ = scope; }

  /// set_scope plus logging, trace events, and counters; returns whether
  /// the scope actually changed. The engine's apply path uses this so
  /// every withdrawal/restore is observable (they used to be silent).
  bool transition_scope(SiteScope scope, net::SimTime now);

  /// Attaches telemetry; also wires each server's RRL instance.
  void attach_obs(const SiteTelemetry& telemetry);

  /// Whether response rate limiting is active at this site. Reactive
  /// defenses toggle it mid-run; the fluid layer consults this when
  /// modelling uplink egress and RSSAC response counts.
  bool rrl_enabled() const noexcept { return rrl_enabled_; }
  /// Flips RRL on every server of the site.
  void set_rrl_enabled(bool on) noexcept;

  /// Multiplies the site's capacity by `factor` (> 0): the "surge
  /// capacity" actuation. Takes effect from the next begin_step().
  void scale_capacity(double factor) noexcept;

  /// Policy state machine (engine drives it each step).
  SitePolicyState& policy_state() noexcept { return policy_state_; }

  /// Starts a simulation step with the given offered load; `shared_loss`
  /// is extra loss imposed by the site's facility uplink.
  void begin_step(double attack_qps, double legit_qps, double shared_loss,
                  net::SimTime now);

  /// The queue outcome of the current step.
  const QueueOutcome& outcome() const noexcept { return outcome_; }
  double offered_attack_qps() const noexcept { return attack_qps_; }
  double offered_legit_qps() const noexcept { return legit_qps_; }
  /// Loss a query experiences arriving at this step (queue + facility).
  double arrival_loss() const noexcept { return arrival_loss_; }

  /// Delivers one probe query (wire bytes) from `source` at `now`. A
  /// probe is a CHAOS hostname.bind query; the answering server writes
  /// its reply straight into `ProbeReply::wire`. Any other query goes
  /// unanswered.
  ProbeReply probe(net::Ipv4Addr source,
                   const std::vector<std::uint8_t>& query_wire,
                   net::SimTime now, util::Rng& rng);

  /// Same, with the query already decoded: probe_with() over the
  /// site's current probe_state().
  ProbeReply probe(net::Ipv4Addr source, const dns::Message& query,
                   net::SimTime now, util::Rng& rng);

  /// This step's probe-visible state (valid after begin_step()).
  SiteProbeState probe_state() const noexcept;

  /// Delivers one decoded probe query against a captured `state`, which
  /// may be from an earlier step: the engine captures each step's states
  /// and probes a block of steps later. Makes the same draws from `rng`
  /// in the same order as probe(). Safe to call concurrently, also while
  /// the site steps on: it reads `state` and construction-time fields
  /// and touches only atomic server counters.
  ProbeReply probe_with(const SiteProbeState& state, net::Ipv4Addr source,
                        const dns::Message& query, util::Rng& rng);

  int server_count() const noexcept { return static_cast<int>(servers_.size()); }
  SiteServer& server(int index_0based) { return servers_[static_cast<std::size_t>(index_0based)]; }

 private:
  int pick_server(net::Ipv4Addr source) const noexcept;

  int site_id_;
  char letter_;
  SiteSpec spec_;
  net::GeoPoint location_;
  int host_as_;
  int facility_;
  SiteScope scope_ = SiteScope::kGlobal;
  SitePolicyState policy_state_;
  std::vector<SiteServer> servers_;
  bool rrl_enabled_ = true;

  // Per-step state.
  double attack_qps_ = 0.0;
  double legit_qps_ = 0.0;
  double arrival_loss_ = 0.0;
  QueueOutcome outcome_{};
  bool overloaded_ = false;
  int concentrate_server_ = 0;  ///< 0-based survivor when concentrating
  util::Rng jitter_rng_;
  SiteTelemetry telemetry_;
};

}  // namespace rootstress::anycast
