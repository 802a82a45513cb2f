#include "dns/chaos.h"

#include <cctype>
#include <charconv>

namespace rootstress::dns {

namespace {

std::string lower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string upper(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    out += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

// Per-letter identity templates. %S = lowercase site code, %n = server
// index. Distinct shapes per letter mirror the real deployments' format
// diversity and give the parser something meaningful to dispatch on.
struct Format {
  std::string_view prefix;   // before site
  std::string_view mid;      // between site and server index
  std::string_view suffix;   // after server index
  bool site_first;           // site appears before the index
};

Format format_for(char letter) {
  switch (letter) {
    case 'A': return {"rootns-", "-", ".verisign-a.com", true};
    case 'B': return {"b", "-", ".root.isi.edu", false};       // b<n>-<site>
    case 'C': return {"", "", ".c.root-servers.org", true};     // <site><n>
    case 'D': return {"d-", "-s", ".umd.edu", true};
    case 'E': return {"e", ".", ".e.root-servers.org", false};  // e<n>.<site>
    case 'F': return {"", "", ".f.root-servers.org", true};     // <site><n>
    case 'G': return {"g", ".", ".disa.mil", false};
    case 'H': return {"h", ".", ".arl.army.mil", false};
    case 'I': return {"s", ".", ".i.netnod.se", false};          // s<n>.<site>
    case 'J': return {"j-", "-s", ".verisign-j.com", true};
    case 'K': return {"k", ".", ".k.ripe.net", false};           // k<n>.<site>
    case 'L': return {"l-", "-", ".icann.org", true};
    case 'M': return {"m", ".", ".m.wide.ad.jp", false};
    default: return {"?", "?", "?", true};
  }
}

bool consume(std::string_view& text, std::string_view token) {
  if (text.substr(0, token.size()) != token) return false;
  text.remove_prefix(token.size());
  return true;
}

bool consume_suffix(std::string_view& text, std::string_view token) {
  if (text.size() < token.size()) return false;
  if (text.substr(text.size() - token.size()) != token) return false;
  text.remove_suffix(token.size());
  return true;
}

std::optional<int> parse_int(std::string_view text) {
  int v = 0;
  auto [next, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || next != text.data() + text.size() || v <= 0) {
    return std::nullopt;
  }
  return v;
}

bool valid_site(std::string_view site) {
  if (site.size() != 3) return false;
  for (char c : site) {
    if (!std::isalpha(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace

const Name& hostname_bind() {
  static const Name name = *Name::parse("hostname.bind");
  return name;
}

std::string server_identity(char letter, std::string_view site, int server) {
  const Format f = format_for(letter);
  const std::string s = lower(site);
  std::string out;
  out += f.prefix;
  if (f.site_first) {
    out += s;
    out += f.mid;
    out += std::to_string(server);
  } else {
    out += std::to_string(server);
    out += f.mid;
    out += s;
  }
  out += f.suffix;
  return out;
}

std::optional<ChaosIdentity> parse_identity(char expected_letter,
                                            std::string_view text) {
  const Format f = format_for(expected_letter);
  std::string_view rest = text;
  if (!consume(rest, f.prefix)) return std::nullopt;
  if (!consume_suffix(rest, f.suffix)) return std::nullopt;

  std::string_view site_part, index_part;
  if (f.mid.empty()) {
    // <site><n>: site is exactly 3 letters, the rest is the index.
    if (rest.size() < 4) return std::nullopt;
    site_part = rest.substr(0, 3);
    index_part = rest.substr(3);
  } else {
    const std::size_t mid = rest.find(f.mid);
    if (mid == std::string_view::npos) return std::nullopt;
    if (f.site_first) {
      site_part = rest.substr(0, mid);
      index_part = rest.substr(mid + f.mid.size());
    } else {
      index_part = rest.substr(0, mid);
      site_part = rest.substr(mid + f.mid.size());
    }
  }
  if (!valid_site(site_part)) return std::nullopt;
  const auto index = parse_int(index_part);
  if (!index) return std::nullopt;
  ChaosIdentity id;
  id.letter = expected_letter;
  id.site = upper(site_part);
  id.server = *index;
  return id;
}

Message make_chaos_query(std::uint16_t id) {
  return Message::query(id, hostname_bind(), RrType::kTxt, RrClass::kCh);
}

bool is_chaos_query(const Message& m) {
  if (m.header.qr || m.questions.size() != 1) return false;
  const Question& q = m.questions.front();
  return q.qclass == RrClass::kCh && q.qtype == RrType::kTxt &&
         q.qname == hostname_bind();
}

}  // namespace rootstress::dns
