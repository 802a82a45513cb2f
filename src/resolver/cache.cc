#include "resolver/cache.h"

#include <algorithm>
#include <limits>

namespace rootstress::resolver {

namespace {

/// Free-slot marker. No lookup time is earlier, so an expiry equal to it
/// could never be fresh anyway; put() stores such an expiry one
/// millisecond later to keep the marker unambiguous.
constexpr net::SimTime kEmpty{std::numeric_limits<std::int64_t>::min()};

constexpr std::size_t kInitialSlots = 16;

/// std:: heap algorithms build max-heaps; ordering by *later* expiry
/// keeps the entry closest to expiry on top.
bool expires_later(const net::SimTime a, const net::SimTime b) noexcept {
  return a > b;
}

}  // namespace

TtlCache::TtlCache(std::size_t capacity) : capacity_(capacity) {}

std::size_t TtlCache::find(std::uint64_t key) const noexcept {
  const std::size_t n = slots_.size();
  if (n == 0) return 0;
  const std::size_t mask = n - 1;
  // Load stays <= 1/2, so every probe run ends at a free slot.
  for (std::size_t i = home_slot(key, n);; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.expiry == kEmpty) return n;
    if (slot.key == key) return i;
  }
}

std::size_t TtlCache::first_free(std::uint64_t key) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home_slot(key, slots_.size());
  while (slots_[i].expiry != kEmpty) i = (i + 1) & mask;
  return i;
}

void TtlCache::erase_at(std::size_t i) noexcept {
  const std::size_t mask = slots_.size() - 1;
  // Backward shift: walk the run after the hole; an entry may fill the
  // hole when its home slot does not lie cyclically in (hole, j].
  std::size_t hole = i;
  for (std::size_t j = (i + 1) & mask;; j = (j + 1) & mask) {
    const Slot& slot = slots_[j];
    if (slot.expiry == kEmpty) break;
    const std::size_t home = home_slot(slot.key, slots_.size());
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slot;
      hole = j;
    }
  }
  slots_[hole].expiry = kEmpty;
  --size_;
}

void TtlCache::grow() {
  std::vector<Slot> old = std::move(slots_);
  const std::size_t n = old.empty() ? kInitialSlots : 2 * old.size();
  slots_.assign(n, Slot{0, kEmpty});
  for (const Slot& slot : old) {
    if (slot.expiry != kEmpty) slots_[first_free(slot.key)] = slot;
  }
}

bool TtlCache::hit(std::uint64_t key, net::SimTime now) {
  const std::size_t i = find(key);
  if (i < slots_.size()) {
    if (now < slots_[i].expiry) {
      ++hits_;
      return true;
    }
    // Expired: release the slot immediately instead of letting a dead
    // entry pin capacity (and force a live eviction) until sweep().
    erase_at(i);
    ++expirations_;
  }
  ++misses_;
  return false;
}

void TtlCache::put(std::uint64_t key, net::SimTime now, net::SimTime ttl) {
  if (capacity_ == 0) return;  // a zero-capacity cache stores nothing
  net::SimTime expiry = now + ttl;
  if (expiry == kEmpty) expiry.ms += 1;
  std::size_t i = find(key);
  if (i == slots_.size()) {
    if (size_ >= capacity_) evict_one();
    if (2 * (size_ + 1) > slots_.size()) grow();
    // Eviction and growth both move entries: probe afresh for the hole.
    i = first_free(key);
    slots_[i].key = key;
    ++size_;
  }
  slots_[i].expiry = expiry;
  heap_.push_back(HeapEntry{expiry, key});
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const HeapEntry& a, const HeapEntry& b) {
                   return expires_later(a.expiry, b.expiry);
                 });
  maybe_compact();
}

void TtlCache::evict_one() {
  const auto later = [](const HeapEntry& a, const HeapEntry& b) {
    return expires_later(a.expiry, b.expiry);
  };
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
    const std::size_t i = find(top.key);
    // Stale records (the entry was refreshed to a later expiry, or
    // already erased by hit()/sweep()) are skipped; a match is the live
    // entry closest to expiry.
    if (i < slots_.size() && slots_[i].expiry == top.expiry) {
      erase_at(i);
      return;
    }
  }
  // Every live entry has a heap record, so an exhausted heap means an
  // empty table; nothing to evict.
}

void TtlCache::maybe_compact() {
  if (heap_.size() <= 2 * size_ + 32) return;
  heap_.clear();
  for (const Slot& slot : slots_) {
    if (slot.expiry != kEmpty) {
      heap_.push_back(HeapEntry{slot.expiry, slot.key});
    }
  }
  std::make_heap(heap_.begin(), heap_.end(),
                 [](const HeapEntry& a, const HeapEntry& b) {
                   return expires_later(a.expiry, b.expiry);
                 });
}

void TtlCache::sweep(net::SimTime now) {
  // erase_at() only moves entries backward into the hole, so re-checking
  // slot i after an erase visits every entry; one that wraps from the
  // table's front into its last slot was already checked and is kept.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    while (slots_[i].expiry != kEmpty && slots_[i].expiry <= now) {
      erase_at(i);
    }
  }
}

}  // namespace rootstress::resolver
