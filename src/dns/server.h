// A root name-server process: answers IN queries for the root zone and
// CHAOS diagnostics, applying RRL.
//
// This is the "r_i" box of Figure 1: one physical server at one anycast
// site. Load-balancing across servers and capacity modeling live in the
// anycast module; this class is pure protocol behaviour.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "dns/message.h"
#include "dns/rrl.h"
#include "net/clock.h"
#include "net/ipv4.h"

namespace rootstress::dns {

/// Per-server protocol statistics. Counters are relaxed atomics: the
/// engine's parallel Atlas probing delivers CHAOS queries to the same
/// server from several threads at once, and the CHAOS path touches
/// nothing but these counters.
struct ServerStats {
  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::uint64_t> responses{0};
  std::atomic<std::uint64_t> chaos_queries{0};
  std::atomic<std::uint64_t> rrl_dropped{0};
  std::atomic<std::uint64_t> rrl_slipped{0};
  std::atomic<std::uint64_t> refused{0};

  // Atomics delete the implicit copy/move; value-copy semantics keep
  // RootServer storable in vectors (copies happen only at setup time).
  ServerStats() = default;
  ServerStats(const ServerStats& other) noexcept { *this = other; }
  ServerStats& operator=(const ServerStats& other) noexcept {
    queries.store(other.queries.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    responses.store(other.responses.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    chaos_queries.store(other.chaos_queries.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    rrl_dropped.store(other.rrl_dropped.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    rrl_slipped.store(other.rrl_slipped.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    refused.store(other.refused.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    return *this;
  }
};

/// A single root DNS server instance.
class RootServer {
 public:
  /// `letter` is 'A'..'M'; `site` an airport code; `server_index` 1-based.
  RootServer(char letter, std::string site, int server_index,
             RrlConfig rrl = {});

  /// Handles one query; returns the response message, or nullopt when RRL
  /// drops it (slipped responses come back truncated with no answers).
  std::optional<Message> answer(const Message& query, net::Ipv4Addr source,
                                net::SimTime now);

  /// Answers a CHAOS hostname.bind query straight to wire: writes into
  /// `out` exactly the bytes encode(*answer(query, ...)) produces (id,
  /// opcode, RD and question echoed as received, answer owner compressed
  /// to the question) and bumps the same counters, without building a
  /// response Message. Returns the reply length, or 0 with no counter
  /// touched when `query` is not a CHAOS query or the reply does not fit
  /// in `out` (a 512-octet UDP buffer always holds one).
  std::size_t write_chaos_reply(const Message& query,
                                std::span<std::uint8_t> out);

  /// Builds the root-referral response for an IN query without touching
  /// RRL or the stats counters. The wire-I/O server (netio/) uses this to
  /// populate its packet cache: the encoded referral for a given
  /// (qname, EDNS size) is invariant, so the hot path patches the cached
  /// bytes' message id instead of rebuilding 26 records per packet.
  Message referral_response(const Message& query) const {
    return answer_root_referral(query);
  }

  /// The CHAOS identity string this server embeds in hostname.bind
  /// replies.
  const std::string& identity() const noexcept { return identity_; }

  char letter() const noexcept { return letter_; }
  const std::string& site() const noexcept { return site_; }
  int server_index() const noexcept { return server_index_; }
  const ServerStats& stats() const noexcept { return stats_; }
  ResponseRateLimiter& rrl() noexcept { return rrl_; }

 private:
  Message answer_chaos(const Message& query) const;
  Message answer_root_referral(const Message& query) const;

  char letter_;
  std::string site_;
  int server_index_;
  std::string identity_;
  ResponseRateLimiter rrl_;
  ServerStats stats_;
};

}  // namespace rootstress::dns
