#include "sim/fluid.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "net/packet.h"

namespace rootstress::sim {

ServiceLoad compute_service_load(const anycast::RootDeployment& deployment,
                                 const anycast::ServiceInfo& service,
                                 const attack::Botnet& botnet,
                                 const attack::LegitTraffic& legit,
                                 double attack_total_qps,
                                 double legit_total_qps) {
  ServiceLoad load;
  compute_service_load_into(deployment, service, botnet, legit,
                            attack_total_qps, legit_total_qps, load);
  return load;
}

void compute_service_load_into(const anycast::RootDeployment& deployment,
                               const anycast::ServiceInfo& service,
                               const attack::Botnet& botnet,
                               const attack::LegitTraffic& legit,
                               double attack_total_qps,
                               double legit_total_qps, ServiceLoad& out) {
  const auto& routing = deployment.routing();
  const auto site_count = static_cast<std::size_t>(deployment.site_count());
  if (routing.unrouted_slot() != static_cast<std::int32_t>(site_count)) {
    throw std::logic_error(
        "compute_service_load_into: routing has no sink slot at the site "
        "count");
  }
  // Same catchment and same rates bit for bit: the kernels below would
  // write exactly what `out` already holds.
  const std::uint64_t epoch = routing.catchment_epoch(service.prefix);
  const auto attack_bits = std::bit_cast<std::uint64_t>(attack_total_qps);
  const auto legit_bits = std::bit_cast<std::uint64_t>(legit_total_qps);
  if (epoch == out.epoch_ && attack_bits == out.attack_bits_ &&
      legit_bits == out.legit_bits_) {
    ++out.reuses;
    return;
  }
  ++out.recomputes;
  out.attack_qps.resize(site_count + 1);
  out.legit_qps.resize(site_count + 1);
  // Per-AS site slots feed branch-free accumulation with routeless
  // traffic landing in the trailing sink lane, drained here.
  const std::span<const std::int32_t> slots = routing.site_of(service.prefix);
  if (attack_total_qps > 0.0) {
    botnet.attack_by_site_into(slots, attack_total_qps, out.attack_qps);
  } else {
    std::fill(out.attack_qps.begin(), out.attack_qps.end(), 0.0);
  }
  legit.legit_by_site_into(slots, legit_total_qps, out.legit_qps);
  out.unrouted_attack = out.attack_qps[site_count];
  out.unrouted_legit = out.legit_qps[site_count];
  out.attack_qps[site_count] = 0.0;
  out.legit_qps[site_count] = 0.0;
  out.epoch_ = epoch;
  out.attack_bits_ = attack_bits;
  out.legit_bits_ = legit_bits;
}

double site_uplink_gbps(const anycast::AnycastSite& site, double offered_qps,
                        double query_payload_bytes,
                        double response_payload_bytes,
                        double response_suppression) {
  const double ingress_bps =
      offered_qps *
      static_cast<double>(net::wire_bytes(
          static_cast<std::size_t>(query_payload_bytes))) *
      8.0;
  const double served = std::min(offered_qps, site.spec().capacity_qps);
  const double egress_bps =
      served * (1.0 - std::clamp(response_suppression, 0.0, 1.0)) *
      static_cast<double>(net::wire_bytes(
          static_cast<std::size_t>(response_payload_bytes))) *
      8.0;
  return (ingress_bps + egress_bps) / 1e9;
}

}  // namespace rootstress::sim
