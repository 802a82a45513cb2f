#include "dns/message.h"

namespace rootstress::dns {

std::string to_string(Rcode rcode) {
  switch (rcode) {
    case Rcode::kNoError: return "NOERROR";
    case Rcode::kFormErr: return "FORMERR";
    case Rcode::kServFail: return "SERVFAIL";
    case Rcode::kNxDomain: return "NXDOMAIN";
    case Rcode::kNotImp: return "NOTIMP";
    case Rcode::kRefused: return "REFUSED";
  }
  return "RCODE" + std::to_string(static_cast<int>(rcode));
}

std::string to_string(RrType type) {
  switch (type) {
    case RrType::kA: return "A";
    case RrType::kNs: return "NS";
    case RrType::kSoa: return "SOA";
    case RrType::kTxt: return "TXT";
    case RrType::kAaaa: return "AAAA";
  }
  return "TYPE" + std::to_string(static_cast<int>(type));
}

std::string to_string(RrClass klass) {
  switch (klass) {
    case RrClass::kIn: return "IN";
    case RrClass::kCh: return "CH";
  }
  return "CLASS" + std::to_string(static_cast<int>(klass));
}

ResourceRecord ResourceRecord::txt(Name name, RrClass klass, std::uint32_t ttl,
                                   const std::string& text) {
  ResourceRecord rr;
  rr.name = std::move(name);
  rr.type = RrType::kTxt;
  rr.klass = klass;
  rr.ttl = ttl;
  const std::size_t n = text.size() > 255 ? 255 : text.size();
  rr.rdata.reserve(n + 1);
  rr.rdata.push_back(static_cast<std::uint8_t>(n));
  rr.rdata.insert(rr.rdata.end(), text.begin(), text.begin() + static_cast<long>(n));
  return rr;
}

ResourceRecord ResourceRecord::a(Name name, std::uint32_t ttl,
                                 std::uint32_t addr) {
  ResourceRecord rr;
  rr.name = std::move(name);
  rr.type = RrType::kA;
  rr.klass = RrClass::kIn;
  rr.ttl = ttl;
  rr.rdata = {static_cast<std::uint8_t>(addr >> 24),
              static_cast<std::uint8_t>(addr >> 16),
              static_cast<std::uint8_t>(addr >> 8),
              static_cast<std::uint8_t>(addr)};
  return rr;
}

ResourceRecord ResourceRecord::ns(Name name, std::uint32_t ttl,
                                  const Name& nsdname) {
  ResourceRecord rr;
  rr.name = std::move(name);
  rr.type = RrType::kNs;
  rr.klass = RrClass::kIn;
  rr.ttl = ttl;
  for (const auto& label : nsdname.labels()) {
    rr.rdata.push_back(static_cast<std::uint8_t>(label.size()));
    rr.rdata.insert(rr.rdata.end(), label.begin(), label.end());
  }
  rr.rdata.push_back(0);
  return rr;
}

std::optional<std::string_view> first_character_string(
    std::span<const std::uint8_t> rdata) {
  if (rdata.empty()) return std::nullopt;
  const std::size_t n = rdata[0];
  if (rdata.size() < 1 + n) return std::nullopt;
  return std::string_view(reinterpret_cast<const char*>(rdata.data() + 1), n);
}

std::optional<std::string> ResourceRecord::txt_value() const {
  if (type != RrType::kTxt) return std::nullopt;
  const auto text = first_character_string(rdata);
  if (!text) return std::nullopt;
  return std::string(*text);
}

Message Message::query(std::uint16_t id, Name qname, RrType qtype,
                       RrClass qclass, bool recursion_desired) {
  Message m;
  m.header.id = id;
  m.header.qr = false;
  m.header.rd = recursion_desired;
  m.questions.push_back(Question{std::move(qname), qtype, qclass});
  return m;
}

Message Message::response_to(const Message& query, Rcode rcode) {
  Message m;
  m.header.id = query.header.id;
  m.header.qr = true;
  m.header.opcode = query.header.opcode;
  m.header.rd = query.header.rd;
  m.header.rcode = rcode;
  m.questions = query.questions;
  return m;
}

}  // namespace rootstress::dns
