// FNV-1a 64: the one byte-stream hash behind every digest and content key
// (timeline and end-user digests, dns::Name::hash, the campaign cache's
// config_hash). Header-only so the per-byte loop inlines at each caller.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace rootstress::util {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Folds `size` bytes at `data` into `hash` (start from kFnvOffset).
inline void fnv1a(std::uint64_t& hash, const void* data,
                  std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
}

/// Folds the object representation of `value` (e.g. a uint64_t's eight
/// bytes, or a double's bit pattern) into `hash`. Pointers are refused:
/// hashing an address is never what a digest means.
template <typename T>
  requires(std::is_trivially_copyable_v<T> && !std::is_pointer_v<T>)
inline void fnv1a(std::uint64_t& hash, const T& value) noexcept {
  fnv1a(hash, &value, sizeof(value));
}

}  // namespace rootstress::util
