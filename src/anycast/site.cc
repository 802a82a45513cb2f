#include "anycast/site.h"

#include <algorithm>

#include "dns/wire.h"
#include "obs/runtime.h"
#include "util/logging.h"

namespace rootstress::anycast {

namespace {
const char* scope_name(SiteScope scope) noexcept {
  switch (scope) {
    case SiteScope::kGlobal: return "global";
    case SiteScope::kLocalOnly: return "local-only";
    case SiteScope::kDown: return "down";
  }
  return "?";
}
}  // namespace

AnycastSite::AnycastSite(int site_id, char letter, SiteSpec spec,
                         net::GeoPoint location, int host_as, int facility,
                         const StressPolicy& policy, util::Rng& rng)
    : site_id_(site_id),
      letter_(letter),
      spec_(std::move(spec)),
      location_(location),
      host_as_(host_as),
      facility_(facility),
      policy_state_(policy),
      jitter_rng_(rng.fork(static_cast<std::uint64_t>(site_id) + 0x51731)) {
  servers_.reserve(static_cast<std::size_t>(spec_.servers));
  for (int i = 1; i <= spec_.servers; ++i) {
    // Uneven load weights: one server in three ends up noticeably hotter,
    // matching the per-server asymmetry the paper observes (§3.5).
    const double weight = (i % 3 == 2) ? 1.4 : jitter_rng_.uniform(0.85, 1.1);
    servers_.emplace_back(letter_, spec_.code, i, weight);
  }
}

std::string AnycastSite::label() const {
  return std::string(1, letter_) + "-" + spec_.code;
}

void AnycastSite::begin_step(double attack_qps, double legit_qps,
                             double shared_loss, net::SimTime now) {
  attack_qps_ = attack_qps;
  legit_qps_ = legit_qps;
  QueueConfig qc;
  qc.capacity_qps = spec_.capacity_qps;
  qc.buffer_packets = spec_.buffer_packets;
  outcome_ = evaluate_queue_observed(attack_qps + legit_qps, qc,
                                     telemetry_.queue);
  arrival_loss_ =
      1.0 - (1.0 - outcome_.loss_fraction) * (1.0 - std::clamp(shared_loss, 0.0, 1.0));

  const bool now_overloaded = outcome_.utilization >= 1.0 || shared_loss > 0.0;
  if (now_overloaded && !overloaded_) {
    // Entering overload: in concentrate mode the balancer collapses
    // visible service onto one surviving server, picked per episode.
    concentrate_server_ =
        static_cast<int>(jitter_rng_.below(servers_.size()));
    if (telemetry_.overload_onsets != nullptr) {
      telemetry_.overload_onsets->add();
    }
    obs::emit_event(telemetry_.runtime, obs::TraceEventType::kQueueOverloadOnset,
                    now, letter_, label(), "ingress queue saturated",
                    outcome_.utilization);
  } else if (!now_overloaded && overloaded_) {
    obs::emit_event(telemetry_.runtime, obs::TraceEventType::kQueueOverloadEnd,
                    now, letter_, label(), "ingress queue drained",
                    outcome_.utilization);
  }
  overloaded_ = now_overloaded;
}

bool AnycastSite::transition_scope(SiteScope scope, net::SimTime now) {
  if (scope == scope_) return false;
  const SiteScope previous = scope_;
  scope_ = scope;
  // Ranks by service reach: any move toward kDown is a withdrawal, any
  // move away from it (or from local-only back to global) is a restore.
  const bool withdrawing =
      static_cast<int>(scope) > static_cast<int>(previous);
  const std::string detail = std::string(scope_name(previous)) + " -> " +
                             scope_name(scope);
  if (withdrawing) {
    RS_LOG_WARN << label() << " withdrawing (" << detail << ") at "
                << now.to_string();
    if (telemetry_.withdrawals != nullptr) telemetry_.withdrawals->add();
    obs::emit_event(telemetry_.runtime, obs::TraceEventType::kSiteWithdraw,
                    now, letter_, label(), detail,
                    static_cast<double>(site_id_));
  } else {
    RS_LOG_INFO << label() << " restoring (" << detail << ") at "
                << now.to_string();
    if (telemetry_.restores != nullptr) telemetry_.restores->add();
    obs::emit_event(telemetry_.runtime, obs::TraceEventType::kSiteRestore,
                    now, letter_, label(), detail,
                    static_cast<double>(site_id_));
  }
  return true;
}

void AnycastSite::attach_obs(const SiteTelemetry& telemetry) {
  telemetry_ = telemetry;
  for (auto& server : servers_) {
    server.dns().rrl().attach_obs(telemetry.runtime, letter_, label());
  }
}

void AnycastSite::set_rrl_enabled(bool on) noexcept {
  rrl_enabled_ = on;
  for (auto& server : servers_) {
    server.dns().rrl().set_enabled(on);
  }
}

void AnycastSite::scale_capacity(double factor) noexcept {
  if (factor <= 0.0) return;
  spec_.capacity_qps *= factor;
}

int AnycastSite::pick_server(net::Ipv4Addr source) const noexcept {
  return ecmp_pick(source, static_cast<int>(servers_.size()),
                   static_cast<std::uint64_t>(site_id_));
}

ProbeReply AnycastSite::probe(net::Ipv4Addr source,
                              const std::vector<std::uint8_t>& query_wire,
                              net::SimTime now, util::Rng& rng) {
  const auto query = dns::decode(query_wire);
  if (!query) return {};
  return probe(source, *query, now, rng);
}

ProbeReply AnycastSite::probe(net::Ipv4Addr source, const dns::Message& query,
                              net::SimTime /*now: CHAOS is exempt from RRL*/,
                              util::Rng& rng) {
  return probe_with(probe_state(), source, query, rng);
}

SiteProbeState AnycastSite::probe_state() const noexcept {
  return SiteProbeState{arrival_loss_, outcome_.queue_delay_ms,
                        concentrate_server_, scope_ == SiteScope::kDown,
                        overloaded_};
}

ProbeReply AnycastSite::probe_with(const SiteProbeState& state,
                                   net::Ipv4Addr source,
                                   const dns::Message& query, util::Rng& rng) {
  ProbeReply reply;
  if (state.down) return reply;

  int server_index = pick_server(source);
  double loss = state.arrival_loss;
  double delay_ms = state.queue_delay_ms;

  if (state.overloaded) {
    if (spec_.stress_mode == ServerStressMode::kConcentrate) {
      // Only the surviving server answers; probes hashed elsewhere see
      // pure loss. The survivor keeps moderate latency: the balancer
      // steers its queue around the worst congestion.
      if (server_index != state.concentrate_server) {
        return reply;
      }
      delay_ms = std::min(delay_ms, 120.0);
      loss = std::min(loss, 0.6);
    } else {
      // Shared congestion: per-server weights skew loss and delay.
      const double w =
          servers_[static_cast<std::size_t>(server_index)].load_weight();
      loss = std::clamp(loss * w, 0.0, 0.98);
      delay_ms *= w;
    }
  }

  if (rng.chance(loss)) return reply;

  reply.wire.size =
      servers_[static_cast<std::size_t>(server_index)].dns().write_chaos_reply(
          query, reply.wire.bytes);
  if (reply.wire.size == 0) return reply;

  reply.answered = true;
  reply.server = server_index + 1;
  reply.extra_delay_ms = delay_ms * rng.uniform(0.85, 1.1);
  return reply;
}

}  // namespace rootstress::anycast
