// Resolver-side DNS cache.
//
// The paper attributes the absence of end-user-visible failures to
// caching and retry (§2.3, §6): top-level referrals carry multi-day TTLs,
// so resolvers rarely need the root at all. This is the cache that makes
// that argument quantitative.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/clock.h"

namespace rootstress::resolver {

/// A TTL cache keyed by name hash (the value is implicit: we only track
/// whether the referral is still valid).
///
/// Entries live in a flat open-addressing table: linear probing from
/// home_slot(), backward-shift deletion (no tombstones), grown by
/// doubling so live entries stay at or below half the slots. The table
/// tracks the live count, not `capacity`, so a large bound costs nothing
/// until it is used.
class TtlCache {
 public:
  /// `capacity` bounds memory; inserting beyond it evicts the entry
  /// closest to expiry. A zero capacity stores nothing (every lookup
  /// misses) instead of invoking UB on the empty map.
  explicit TtlCache(std::size_t capacity = 10000);

  /// True if `key` is cached and fresh at `now`. An entry found expired
  /// is erased on the spot (counted in expirations()) so stale entries
  /// never pin capacity until the next sweep().
  bool hit(std::uint64_t key, net::SimTime now);

  /// Inserts/refreshes `key` until now + ttl.
  void put(std::uint64_t key, net::SimTime now, net::SimTime ttl);

  /// Drops expired entries (called opportunistically).
  void sweep(net::SimTime now);

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  /// Entries erased because a lookup found them expired.
  std::uint64_t expirations() const noexcept { return expirations_; }

  /// Slots in the table (0 or a power of two >= 2 * size()).
  std::size_t slot_count() const noexcept { return slots_.size(); }
  /// Where probing for `key` starts in a table of `slot_count` slots (a
  /// power of two). Public so tests can build colliding key sets.
  static std::size_t home_slot(std::uint64_t key,
                               std::size_t slot_count) noexcept {
    // Fibonacci hashing: the multiply spreads sequential name ids, the
    // mask keeps the (well-mixed) low bits.
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> 32) &
           (slot_count - 1);
  }

 private:
  /// One eviction-order record. The heap is lazy: a record whose expiry
  /// no longer matches the live entry (refreshed or already erased) is
  /// skipped when popped, so put() stays amortized O(log n) instead of
  /// the old O(n) full scan.
  struct HeapEntry {
    net::SimTime expiry{};
    std::uint64_t key = 0;
  };

  /// One table slot; `expiry == kEmpty` marks a free slot.
  struct Slot {
    std::uint64_t key = 0;
    net::SimTime expiry{};
  };

  /// Index of `key`'s slot, or slots_.size() when absent.
  std::size_t find(std::uint64_t key) const noexcept;
  /// First free slot on `key`'s probe run (the table must have one).
  std::size_t first_free(std::uint64_t key) const noexcept;
  /// Frees slot `i`, shifting later members of its probe run back so no
  /// lookup ever crosses a hole.
  void erase_at(std::size_t i) noexcept;
  /// Doubles the table (16 slots at first) and reinserts every entry.
  void grow();
  /// Erases the live entry closest to expiry (min-heap pop, skipping
  /// stale records).
  void evict_one();
  /// Rebuilds the heap from the live entries when stale records dominate
  /// (amortized O(1) per operation).
  void maybe_compact();

  std::size_t capacity_;
  std::vector<Slot> slots_;      ///< open-addressing table of expiries
  std::size_t size_ = 0;         ///< live entries
  std::vector<HeapEntry> heap_;  ///< min-heap on expiry, lazily pruned
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t expirations_ = 0;
};

}  // namespace rootstress::resolver
