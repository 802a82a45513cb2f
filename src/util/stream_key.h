// Counter-based RNG stream keys: the one construction behind every
// parallel hot path's random draws (Atlas probes, resolver steps).
//
// A stream is keyed on the identity of the work it drives, folded through
// chained mix64 rounds, so its draws depend only on that identity: never
// on thread interleaving, shard layout or execution order. Changing any
// constant here changes every probe record and resolver digest.
#pragma once

#include <cstdint>

#include "util/rng.h"

namespace rootstress::util {

/// Key of the stream for (seed, a, b). Callers pass signed ids through
/// uint32_t, so id -1 keys as 0xffffffff, not as a sign-extended word.
inline std::uint64_t stream_key(std::uint64_t seed, std::uint64_t a,
                                std::uint64_t b) noexcept {
  std::uint64_t key = mix64(seed ^ 0x9e3779b97f4a7c15ull);
  key = mix64(key ^ (a * 0x100000001b3ull));
  key = mix64(key ^ (b * 0xc2b2ae3d27d4eb4full));
  return key;
}

/// Key of the stream for (seed, a, b, c): one more round folding `c` in.
inline std::uint64_t stream_key(std::uint64_t seed, std::uint64_t a,
                                std::uint64_t b, std::uint64_t c) noexcept {
  return mix64(stream_key(seed, a, b) ^ c);
}

}  // namespace rootstress::util
