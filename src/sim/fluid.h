// Fluid (rate-based) per-step load computation.
//
// Aggregate traffic is far too large to simulate per packet (5 Mq/s per
// letter for hours); loads are computed as rates per step and fed to the
// queue model, while individual Atlas probes sample the resulting
// loss/delay. These helpers compute per-site loads and facility uplink
// pressure for one service in one step.
#pragma once

#include <cstdint>
#include <vector>

#include "anycast/deployment.h"
#include "attack/botnet.h"
#include "attack/schedule.h"
#include "attack/traffic.h"

namespace rootstress::sim {

/// Per-site offered load of one service for one step.
///
/// The per-site vectors are sized site_count + 1: the trailing element is
/// the sink lane the SoA kernels accumulate routeless traffic into (see
/// AnycastRouting::set_unrouted_slot). compute_service_load_into drains
/// the sink into unrouted_* and zeroes it before returning, so consumers
/// indexing by global site id never observe it.
///
/// A ServiceLoad also remembers the inputs of its last computation (the
/// service's catchment epoch and the bit patterns of both rates): when a
/// step repeats all three, compute_service_load_into leaves it untouched.
/// One ServiceLoad therefore belongs to one (deployment, service) pair.
struct ServiceLoad {
  std::vector<double> attack_qps;  ///< indexed by global site id
  std::vector<double> legit_qps;
  double unrouted_attack = 0.0;    ///< traffic with no route (blackholed)
  double unrouted_legit = 0.0;

  /// Work tallies of compute_service_load_into on this buffer.
  std::uint64_t recomputes = 0;
  std::uint64_t reuses = 0;

 private:
  friend void compute_service_load_into(const anycast::RootDeployment&,
                                        const anycast::ServiceInfo&,
                                        const attack::Botnet&,
                                        const attack::LegitTraffic&, double,
                                        double, ServiceLoad&);
  /// Inputs of the last computation; the epoch sentinel means "never".
  std::uint64_t epoch_ = ~std::uint64_t{0};
  std::uint64_t attack_bits_ = 0;
  std::uint64_t legit_bits_ = 0;
};

/// Computes where one service's traffic lands given current routing.
/// `attack_total_qps` is 0 when the service is not under attack.
ServiceLoad compute_service_load(const anycast::RootDeployment& deployment,
                                 const anycast::ServiceInfo& service,
                                 const attack::Botnet& botnet,
                                 const attack::LegitTraffic& legit,
                                 double attack_total_qps,
                                 double legit_total_qps);

/// Allocation-free variant: writes into `out`, resizing its per-site
/// vectors only on first use (the engine preallocates one ServiceLoad
/// per service and reuses them every step). Returns early, leaving `out`
/// bit-identical, when the service's catchment epoch and both rates'
/// bit patterns equal those of `out`'s last computation. Safe to call
/// concurrently for different services/outputs; reads only routing
/// state. Throws std::logic_error unless the routing's unrouted slot is
/// the deployment's sink lane (RootDeployment always installs it).
void compute_service_load_into(const anycast::RootDeployment& deployment,
                               const anycast::ServiceInfo& service,
                               const attack::Botnet& botnet,
                               const attack::LegitTraffic& legit,
                               double attack_total_qps,
                               double legit_total_qps, ServiceLoad& out);

/// Estimated Gb/s this site pushes through its facility uplink at the
/// given offered load: query ingress plus (capacity-clamped) response
/// egress after RRL suppression.
double site_uplink_gbps(const anycast::AnycastSite& site, double offered_qps,
                        double query_payload_bytes,
                        double response_payload_bytes,
                        double response_suppression);

}  // namespace rootstress::sim
