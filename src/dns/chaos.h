// CHAOS-class server identification (RFC 4892 "hostname.bind").
//
// Each root letter answers CHAOS TXT hostname.bind with an identifier that
// encodes which site and which physical server answered (§2.1). Formats
// are letter-specific and not standardized; this module defines one
// distinct, parseable format per letter (mirroring the real-world pattern
// diversity) plus the parser the measurement pipeline uses to map probes
// to sites/servers — including rejecting replies that match no known
// pattern (the hijack signal used in data cleaning, §2.4.1).
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "dns/message.h"

namespace rootstress::dns {

/// The well-known CHAOS diagnostic qname, built once.
const Name& hostname_bind();

/// Parsed identity of a responding server.
struct ChaosIdentity {
  char letter = '?';        ///< 'A'..'M'
  std::string site;         ///< airport code, upper-case, e.g. "AMS"
  int server = 0;           ///< 1-based server index within the site

  bool operator==(const ChaosIdentity&) const = default;
};

/// Renders the identity string letter `letter` (A-M) uses in its CHAOS
/// replies, for a server at `site` (airport code, any case) with 1-based
/// index `server`. Each letter has a distinct format.
std::string server_identity(char letter, std::string_view site, int server);

/// Parses an identity string back. `expected_letter` selects the format;
/// returns nullopt when the text does not match that letter's pattern
/// (which data cleaning treats as evidence of interception/hijack).
std::optional<ChaosIdentity> parse_identity(char expected_letter,
                                            std::string_view text);

/// Builds the CHAOS TXT hostname.bind query with the given message id.
Message make_chaos_query(std::uint16_t id);

/// True if `m` is a CHAOS TXT hostname.bind query.
bool is_chaos_query(const Message& m);

}  // namespace rootstress::dns
