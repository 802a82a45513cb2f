// The full 2015 Root DNS deployment: 13 letters, hundreds of sites, their
// host ASes in a synthesized topology, shared facilities, and (optionally)
// the .nl TLD anycast service used in the collateral-damage analysis.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "anycast/facility.h"
#include "anycast/letter.h"
#include "anycast/site.h"
#include "bgp/simulator.h"
#include "bgp/topology.h"

namespace rootstress::anycast {

/// One anycast service (a root letter, or .nl) mapped onto the shared
/// substrate.
struct ServiceInfo {
  char letter = '?';      ///< 'A'..'M'; 'N' for .nl
  int letter_index = -1;  ///< index into letters(), -1 for .nl
  int prefix = -1;        ///< routing prefix id
  std::vector<int> site_ids;  ///< deployment-global site ids
};

/// CDN-scale synthetic deployment family (scale benches and tests).
/// When `RootDeployment::Config::synthetic` is set, the 13-letter root
/// table is replaced by `services` synthetic anycast services whose sites
/// are generated deterministically from the deployment seed: pseudo-codes
/// ("ZA0017"-style, <= 7 chars so packed site keys stay on the fast path)
/// with explicit coordinates sampled from the geo registry, spread across
/// the same regions the topology synthesizer uses. RSSAC reporting is off
/// and `include_nl` is ignored for synthetic deployments.
struct SyntheticDeployment {
  int services = 1;            ///< service count; letters 'A', 'B', ...
  int sites_per_service = 32;
  /// Tiering: fraction of each service's sites announced globally; the
  /// rest are BGP-scoped local sites (NO_EXPORT analog).
  double global_fraction = 0.75;
  double site_capacity_qps = 500e3;
  /// IXP-style direct stub peerings per site (catchment stickiness).
  int peer_stubs_per_site = 2;
};

/// Pseudo-code of synthetic site `ordinal` (>= 0) of service `letter`: "Z",
/// the letter, then the ordinal zero-padded to at least four digits
/// ("ZA0017", "ZA10000", "ZA100000"). Distinct ordinals give distinct
/// codes; codes of ordinals below 100,000 fit packed site keys.
std::string synthetic_site_code(char letter, int ordinal);

/// Builds and owns the simulated world: topology, letters, sites,
/// facilities, and per-service routing.
class RootDeployment {
 public:
  struct Config {
    std::uint64_t seed = 42;
    bgp::TopologyConfig topology{};
    bool include_nl = true;
    /// When set, build the CDN-style synthetic deployment instead of the
    /// root letter table (see SyntheticDeployment above).
    std::optional<SyntheticDeployment> synthetic;
    /// Default uplink for facilities referenced by sites but not in the
    /// default facility table.
    double default_facility_uplink_gbps = 50.0;
    /// Uniform multiplier on every site's capacity_qps — the "what if
    /// sites were provisioned Nx" axis of §5-style capacity sweeps.
    double capacity_scale = 1.0;
    /// When set, every site uses this stress policy (what-if studies),
    /// overriding letter defaults and per-site overrides.
    std::optional<StressPolicy> force_policy;
    /// Whether sites start with response rate limiting active. Reactive
    /// playbooks can flip it per site mid-run (enable_rrl / disable_rrl).
    bool rrl_enabled = true;
  };

  explicit RootDeployment(const Config& config);
  RootDeployment(const RootDeployment&) = delete;
  RootDeployment& operator=(const RootDeployment&) = delete;

  const bgp::AsTopology& topology() const noexcept { return topology_; }
  bgp::AnycastRouting& routing() noexcept { return *routing_; }
  const bgp::AnycastRouting& routing() const noexcept { return *routing_; }

  const std::vector<LetterConfig>& letters() const noexcept { return letters_; }
  const std::vector<ServiceInfo>& services() const noexcept { return services_; }
  /// Service by letter ('A'..'M', 'N' = .nl); throws std::out_of_range.
  const ServiceInfo& service(char letter) const;

  FacilityTable& facilities() noexcept { return facilities_; }
  const FacilityTable& facilities() const noexcept { return facilities_; }

  int site_count() const noexcept { return static_cast<int>(sites_.size()); }
  AnycastSite& site(int id) { return sites_[static_cast<std::size_t>(id)]; }
  const AnycastSite& site(int id) const {
    return sites_[static_cast<std::size_t>(id)];
  }

  /// Global site id for letter+code; nullopt if absent.
  std::optional<int> find_site(char letter, std::string_view code) const;

  /// Changes a site's announcement scope, keeping routing in sync.
  /// Returns the per-AS route changes the transition caused.
  std::vector<bgp::RouteChange> apply_scope(int site_id, SiteScope scope,
                                            net::SimTime now);

  /// Sets the AS-path prepend on a site's announcement (keeps routing in
  /// sync). Returns the per-AS route changes; empty when nothing moved.
  std::vector<bgp::RouteChange> apply_prepend(int site_id, int prepend,
                                              net::SimTime now);

  /// Attaches a telemetry runtime (nullable) to routing and every site
  /// (per-letter withdrawal/restore counters, shared queue instruments,
  /// RRL counters). apply_scope additionally profiles BGP reconvergence
  /// under the "bgp-convergence" phase.
  void attach_obs(obs::Runtime* obs);

 private:
  bgp::AsTopology topology_;
  std::vector<LetterConfig> letters_;
  FacilityTable facilities_;
  std::vector<AnycastSite> sites_;
  std::vector<ServiceInfo> services_;
  std::unique_ptr<bgp::AnycastRouting> routing_;
  obs::Runtime* obs_ = nullptr;
  /// Origin sets staged during construction, registered once the topology
  /// is final (cleared afterwards).
  std::vector<std::vector<bgp::AnycastOrigin>> pending_origins_;
};

}  // namespace rootstress::anycast
