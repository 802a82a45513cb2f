// DNS message model (RFC 1035 subset sufficient for root service and
// CHAOS diagnostics).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dns/name.h"

namespace rootstress::dns {

/// Response codes (RFC 1035 §4.1.1 plus common extensions).
enum class Rcode : std::uint8_t {
  kNoError = 0,
  kFormErr = 1,
  kServFail = 2,
  kNxDomain = 3,
  kNotImp = 4,
  kRefused = 5,
};

/// Query/RR types used by the simulator.
enum class RrType : std::uint16_t {
  kA = 1,
  kNs = 2,
  kSoa = 6,
  kTxt = 16,
  kAaaa = 28,
};

/// Classes: IN for normal traffic, CH for CHAOS diagnostics.
enum class RrClass : std::uint16_t {
  kIn = 1,
  kCh = 3,
};

/// Human-readable names for the enums (for tables and logs).
std::string to_string(Rcode rcode);
std::string to_string(RrType type);
std::string to_string(RrClass klass);

/// Message header flags and counts. Section counts are derived from the
/// Message vectors at encode time; the header carries only flags + id.
struct Header {
  std::uint16_t id = 0;
  bool qr = false;              ///< response flag
  std::uint8_t opcode = 0;      ///< 0 = QUERY
  bool aa = false;              ///< authoritative answer
  bool tc = false;              ///< truncated
  bool rd = false;              ///< recursion desired
  bool ra = false;              ///< recursion available
  Rcode rcode = Rcode::kNoError;
};

/// One question entry.
struct Question {
  Name qname;
  RrType qtype = RrType::kA;
  RrClass qclass = RrClass::kIn;

  bool operator==(const Question&) const = default;
};

/// The first character-string of TXT rdata; nullopt when `rdata` is
/// empty or the string overruns it. The returned view aliases `rdata`.
std::optional<std::string_view> first_character_string(
    std::span<const std::uint8_t> rdata);

/// One resource record. `rdata` is raw wire bytes; TXT convenience
/// accessors handle the character-string framing.
struct ResourceRecord {
  Name name;
  RrType type = RrType::kA;
  RrClass klass = RrClass::kIn;
  std::uint32_t ttl = 0;
  std::vector<std::uint8_t> rdata;

  /// Builds a TXT record; `text` is stored as one character-string
  /// (truncated at 255 octets, per wire limits).
  static ResourceRecord txt(Name name, RrClass klass, std::uint32_t ttl,
                            const std::string& text);

  /// Builds an A record.
  static ResourceRecord a(Name name, std::uint32_t ttl, std::uint32_t addr);

  /// Builds an NS record (rdata = encoded nsdname, uncompressed).
  static ResourceRecord ns(Name name, std::uint32_t ttl, const Name& nsdname);

  /// First TXT character-string, if this is a TXT record; nullopt
  /// otherwise.
  std::optional<std::string> txt_value() const;

  bool operator==(const ResourceRecord&) const = default;
};

/// A full message: header + four sections.
struct Message {
  Header header;
  std::vector<Question> questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authority;
  std::vector<ResourceRecord> additional;

  /// Builds a standard query for (qname, qtype, qclass).
  static Message query(std::uint16_t id, Name qname, RrType qtype,
                       RrClass qclass, bool recursion_desired = false);

  /// Builds a response skeleton echoing the query's id and question.
  static Message response_to(const Message& query, Rcode rcode);
};

}  // namespace rootstress::dns
