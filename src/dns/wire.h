// DNS wire-format codec (RFC 1035 §4) with name compression.
//
// Every simulated Atlas probe carries a real DNS reply on the wire: the
// answering server writes its CHAOS reply straight to wire
// (RootServer::write_chaos_reply, byte-identical to encode(answer())),
// and the prober reads it back through decode_view(), which validates
// the whole message exactly as decode() does without copying it. The
// measurement path thus exercises genuine protocol encode/decode rather
// than an abstract "probe succeeded" flag.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dns/message.h"

namespace rootstress::dns {

/// Encodes a message to wire format. Owner names of records and questions
/// are compressed against earlier occurrences; rdata is emitted verbatim.
std::vector<std::uint8_t> encode(const Message& message);

/// Decodes a wire-format message. Returns nullopt on malformed input
/// (truncation, bad compression pointers, label overruns); when `error`
/// is non-null a short description is stored there.
std::optional<Message> decode(std::span<const std::uint8_t> wire,
                              std::string* error = nullptr);

/// One resource record as it sits on the wire, owner name skipped.
struct RecordView {
  RrType type = RrType::kA;
  RrClass klass = RrClass::kIn;
  std::uint32_t ttl = 0;
  std::span<const std::uint8_t> rdata;  ///< points into the decoded bytes

  /// First TXT character-string, if this is a TXT record (the view
  /// counterpart of ResourceRecord::txt_value()).
  std::optional<std::string_view> txt_value() const {
    if (type != RrType::kTxt) return std::nullopt;
    return first_character_string(rdata);
  }
};

/// What decode_view() reads out of a message.
struct MessageView {
  Header header;
  std::uint16_t question_count = 0;
  std::uint16_t answer_count = 0;
  std::uint16_t authority_count = 0;
  std::uint16_t additional_count = 0;
  std::optional<RecordView> first_answer;  ///< nullopt when answer_count == 0
};

/// Zero-copy validating decode: accepts and rejects exactly the inputs
/// decode() does (same header, name and per-record truncation checks,
/// over every record of every section) but builds no names or record
/// vectors. The view's spans point into `wire`, which must outlive it.
std::optional<MessageView> decode_view(std::span<const std::uint8_t> wire);

}  // namespace rootstress::dns
