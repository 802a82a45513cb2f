#include "dns/wire.h"

#include <array>
#include <cctype>
#include <map>

namespace rootstress::dns {

namespace {

void put16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put16(out, static_cast<std::uint16_t>(v >> 16));
  put16(out, static_cast<std::uint16_t>(v));
}

// Compression dictionary: maps a name suffix (rendered lowercase) to the
// wire offset of its first occurrence.
using SuffixMap = std::map<std::string, std::size_t>;

std::string suffix_key(const Name& name, std::size_t from_label) {
  std::string key;
  const auto& labels = name.labels();
  for (std::size_t i = from_label; i < labels.size(); ++i) {
    for (char c : labels[i]) {
      key += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    key += '.';
  }
  return key;
}

void encode_name(std::vector<std::uint8_t>& out, const Name& name,
                 SuffixMap& suffixes) {
  const auto& labels = name.labels();
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const std::string key = suffix_key(name, i);
    const auto it = suffixes.find(key);
    if (it != suffixes.end() && it->second <= 0x3fff) {
      put16(out, static_cast<std::uint16_t>(0xc000 | it->second));
      return;
    }
    if (out.size() <= 0x3fff) suffixes.emplace(key, out.size());
    out.push_back(static_cast<std::uint8_t>(labels[i].size()));
    out.insert(out.end(), labels[i].begin(), labels[i].end());
  }
  out.push_back(0);
}

void encode_question(std::vector<std::uint8_t>& out, const Question& q,
                     SuffixMap& suffixes) {
  encode_name(out, q.qname, suffixes);
  put16(out, static_cast<std::uint16_t>(q.qtype));
  put16(out, static_cast<std::uint16_t>(q.qclass));
}

// Parses an uncompressed name from raw rdata bytes (as built by
// ResourceRecord::ns); nullopt if the bytes are not a clean name.
std::optional<Name> rdata_as_name(const std::vector<std::uint8_t>& rdata) {
  std::vector<std::string> labels;
  std::size_t pos = 0;
  while (pos < rdata.size()) {
    const std::uint8_t len = rdata[pos];
    if (len == 0) {
      if (pos + 1 != rdata.size()) return std::nullopt;
      return Name::from_labels(std::move(labels));
    }
    if ((len & 0xc0) != 0 || pos + 1 + len > rdata.size()) return std::nullopt;
    labels.emplace_back(rdata.begin() + static_cast<long>(pos + 1),
                        rdata.begin() + static_cast<long>(pos + 1 + len));
    pos += 1 + len;
  }
  return std::nullopt;
}

void encode_record(std::vector<std::uint8_t>& out, const ResourceRecord& rr,
                   SuffixMap& suffixes) {
  encode_name(out, rr.name, suffixes);
  put16(out, static_cast<std::uint16_t>(rr.type));
  put16(out, static_cast<std::uint16_t>(rr.klass));
  put32(out, rr.ttl);
  // NS rdata holds a domain name; real servers compress it (that is what
  // keeps root referrals near 490 bytes). Note: messages decoded from the
  // wire keep compressed rdata verbatim and must not be re-encoded.
  if (rr.type == RrType::kNs) {
    if (const auto nsdname = rdata_as_name(rr.rdata)) {
      const std::size_t rdlen_pos = out.size();
      put16(out, 0);  // rdlen placeholder
      encode_name(out, *nsdname, suffixes);
      const std::size_t rdlen = out.size() - rdlen_pos - 2;
      out[rdlen_pos] = static_cast<std::uint8_t>(rdlen >> 8);
      out[rdlen_pos + 1] = static_cast<std::uint8_t>(rdlen);
      return;
    }
  }
  put16(out, static_cast<std::uint16_t>(rr.rdata.size()));
  out.insert(out.end(), rr.rdata.begin(), rr.rdata.end());
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> wire) : wire_(wire) {}

  bool u8(std::uint8_t& v) {
    if (pos_ >= wire_.size()) return false;
    v = wire_[pos_++];
    return true;
  }
  bool u16(std::uint16_t& v) {
    std::uint8_t a = 0, b = 0;
    if (!u8(a) || !u8(b)) return false;
    v = static_cast<std::uint16_t>((a << 8) | b);
    return true;
  }
  bool u32(std::uint32_t& v) {
    std::uint16_t a = 0, b = 0;
    if (!u16(a) || !u16(b)) return false;
    v = (static_cast<std::uint32_t>(a) << 16) | b;
    return true;
  }
  bool bytes(std::size_t n, std::span<const std::uint8_t>& out) {
    if (pos_ + n > wire_.size()) return false;
    out = wire_.subspan(pos_, n);
    pos_ += n;
    return true;
  }

  // Walks a possibly compressed name starting at the cursor and hands
  // each label to `on_label(std::span<const std::uint8_t>)`. This one
  // walk holds every name rule both decoders enforce: pointer bounds,
  // the 64-jump loop guard, reserved label bits (which also cap a label
  // at 63 octets) and the 255-octet name limit.
  template <typename OnLabel>
  bool walk_name(OnLabel&& on_label) {
    std::size_t pos = pos_;
    std::size_t name_length = 1;  // the root label
    bool jumped = false;
    std::size_t jumps = 0;
    while (true) {
      if (pos >= wire_.size()) return false;
      const std::uint8_t len = wire_[pos];
      if ((len & 0xc0) == 0xc0) {
        if (pos + 1 >= wire_.size()) return false;
        const std::size_t target =
            (static_cast<std::size_t>(len & 0x3f) << 8) | wire_[pos + 1];
        if (!jumped) pos_ = pos + 2;
        jumped = true;
        if (++jumps > 64 || target >= wire_.size()) return false;  // loop guard
        pos = target;
        continue;
      }
      if ((len & 0xc0) != 0) return false;  // reserved label types
      if (len == 0) {
        if (!jumped) pos_ = pos + 1;
        return true;
      }
      if (pos + 1 + len > wire_.size()) return false;
      name_length += 1 + len;
      if (name_length > kMaxNameWire) return false;
      on_label(wire_.subspan(pos + 1, len));
      pos += 1 + len;
    }
  }

  bool skip_name() {
    return walk_name([](std::span<const std::uint8_t>) {});
  }

  bool name(Name& out) {
    std::vector<std::string> labels;
    const bool ok = walk_name([&labels](std::span<const std::uint8_t> label) {
      labels.emplace_back(label.begin(), label.end());
    });
    if (!ok) return false;
    auto built = Name::from_labels(std::move(labels));
    if (!built) return false;
    out = std::move(*built);
    return true;
  }

 private:
  static constexpr std::size_t kMaxNameWire = 255;

  std::span<const std::uint8_t> wire_;
  std::size_t pos_ = 0;
};

// Header fields and the four section counts (QD, AN, NS, AR).
bool read_header(Reader& reader, Header& h,
                 std::array<std::uint16_t, 4>& counts) {
  std::uint16_t flags = 0;
  if (!reader.u16(h.id) || !reader.u16(flags)) return false;
  for (auto& count : counts) {
    if (!reader.u16(count)) return false;
  }
  h.qr = (flags & 0x8000) != 0;
  h.opcode = static_cast<std::uint8_t>((flags >> 11) & 0xf);
  h.aa = (flags & 0x0400) != 0;
  h.tc = (flags & 0x0200) != 0;
  h.rd = (flags & 0x0100) != 0;
  h.ra = (flags & 0x0080) != 0;
  h.rcode = static_cast<Rcode>(flags & 0xf);
  return true;
}

// Everything of a record after its owner name.
bool read_record_body(Reader& reader, RecordView& rr) {
  std::uint16_t type = 0, klass = 0, rdlen = 0;
  if (!reader.u16(type) || !reader.u16(klass) || !reader.u32(rr.ttl) ||
      !reader.u16(rdlen)) {
    return false;
  }
  rr.type = static_cast<RrType>(type);
  rr.klass = static_cast<RrClass>(klass);
  return reader.bytes(rdlen, rr.rdata);
}

bool decode_record(Reader& reader, ResourceRecord& rr) {
  RecordView body;
  if (!reader.name(rr.name) || !read_record_body(reader, body)) return false;
  rr.type = body.type;
  rr.klass = body.klass;
  rr.ttl = body.ttl;
  rr.rdata.assign(body.rdata.begin(), body.rdata.end());
  return true;
}

}  // namespace

std::vector<std::uint8_t> encode(const Message& message) {
  std::vector<std::uint8_t> out;
  out.reserve(128);
  SuffixMap suffixes;
  const Header& h = message.header;
  put16(out, h.id);
  std::uint16_t flags = 0;
  if (h.qr) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>((h.opcode & 0xf) << 11);
  if (h.aa) flags |= 0x0400;
  if (h.tc) flags |= 0x0200;
  if (h.rd) flags |= 0x0100;
  if (h.ra) flags |= 0x0080;
  flags |= static_cast<std::uint16_t>(h.rcode) & 0xf;
  put16(out, flags);
  put16(out, static_cast<std::uint16_t>(message.questions.size()));
  put16(out, static_cast<std::uint16_t>(message.answers.size()));
  put16(out, static_cast<std::uint16_t>(message.authority.size()));
  put16(out, static_cast<std::uint16_t>(message.additional.size()));
  for (const auto& q : message.questions) encode_question(out, q, suffixes);
  for (const auto& rr : message.answers) encode_record(out, rr, suffixes);
  for (const auto& rr : message.authority) encode_record(out, rr, suffixes);
  for (const auto& rr : message.additional) encode_record(out, rr, suffixes);
  return out;
}

std::optional<Message> decode(std::span<const std::uint8_t> wire,
                              std::string* error) {
  auto fail = [error](const char* what) -> std::optional<Message> {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };
  if (wire.size() < 12) return fail("short header");
  Reader reader(wire);
  Message m;
  std::array<std::uint16_t, 4> counts{};
  if (!read_header(reader, m.header, counts)) return fail("short header");
  for (std::uint16_t i = 0; i < counts[0]; ++i) {
    Question q;
    std::uint16_t type = 0, klass = 0;
    if (!reader.name(q.qname) || !reader.u16(type) || !reader.u16(klass)) {
      return fail("truncated question");
    }
    q.qtype = static_cast<RrType>(type);
    q.qclass = static_cast<RrClass>(klass);
    m.questions.push_back(std::move(q));
  }
  auto read_section = [&](std::uint16_t count,
                          std::vector<ResourceRecord>& section) {
    for (std::uint16_t i = 0; i < count; ++i) {
      ResourceRecord rr;
      if (!decode_record(reader, rr)) return false;
      section.push_back(std::move(rr));
    }
    return true;
  };
  if (!read_section(counts[1], m.answers)) return fail("truncated answer");
  if (!read_section(counts[2], m.authority)) return fail("truncated authority");
  if (!read_section(counts[3], m.additional)) {
    return fail("truncated additional");
  }
  return m;
}

std::optional<MessageView> decode_view(std::span<const std::uint8_t> wire) {
  Reader reader(wire);
  MessageView view;
  std::array<std::uint16_t, 4> counts{};
  if (!read_header(reader, view.header, counts)) return std::nullopt;
  view.question_count = counts[0];
  view.answer_count = counts[1];
  view.authority_count = counts[2];
  view.additional_count = counts[3];
  for (std::uint16_t i = 0; i < counts[0]; ++i) {
    std::uint16_t type = 0, klass = 0;
    if (!reader.skip_name() || !reader.u16(type) || !reader.u16(klass)) {
      return std::nullopt;
    }
  }
  // Every record of every section is walked, so a truncated or malformed
  // tail is rejected exactly as decode() rejects it.
  const int records = counts[1] + counts[2] + counts[3];
  for (int i = 0; i < records; ++i) {
    RecordView rr;
    if (!reader.skip_name() || !read_record_body(reader, rr)) {
      return std::nullopt;
    }
    if (i == 0 && counts[1] > 0) view.first_answer = rr;
  }
  return view;
}

}  // namespace rootstress::dns
