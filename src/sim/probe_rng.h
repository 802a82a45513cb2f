// Counter-based randomness for Atlas probes.
//
// Probing is the one hot path that runs under the engine's thread pool,
// so its random draws cannot come from the engine's single sequential
// Rng: the draw order would depend on thread interleaving and results
// would differ run to run. Instead every probe derives its own stream
// from the probe's identity — (scenario seed, service, VP, probe time) —
// via util::stream_key's stateless mix64 rounds. The draws a probe makes
// are therefore a pure function of that key: bit-identical for any thread
// count, any shard layout, and any execution order.
#pragma once

#include <cstdint>

#include "net/clock.h"
#include "util/rng.h"
#include "util/stream_key.h"

namespace rootstress::sim {

/// The seed a probe's stream is keyed on. Exposed (rather than buried in
/// the engine) so tests can assert the purity contract directly.
inline std::uint64_t probe_stream_key(std::uint64_t seed, int service_index,
                                      int vp_id, net::SimTime when) noexcept {
  return util::stream_key(seed, static_cast<std::uint32_t>(service_index),
                          static_cast<std::uint32_t>(vp_id),
                          static_cast<std::uint64_t>(when.ms));
}

/// Generator for one probe. Draw order inside a probe is fixed by the
/// probe code path; across probes the streams are independent.
inline util::Rng probe_rng(std::uint64_t seed, int service_index, int vp_id,
                           net::SimTime when) noexcept {
  return util::Rng(probe_stream_key(seed, service_index, vp_id, when));
}

}  // namespace rootstress::sim
