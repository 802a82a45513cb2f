#include "dns/name.h"

#include <cctype>

#include "util/hash.h"

namespace rootstress::dns {

namespace {
constexpr std::size_t kMaxLabel = 63;
constexpr std::size_t kMaxWire = 255;

char lower(char c) noexcept {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}
}  // namespace

std::optional<Name> Name::parse(std::string_view text) {
  if (text == "." || text.empty()) return Name();
  if (text.back() == '.') text.remove_suffix(1);
  std::vector<std::string> labels;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t dot = text.find('.', start);
    const std::string_view label =
        text.substr(start, dot == std::string_view::npos ? std::string_view::npos
                                                         : dot - start);
    if (label.empty() || label.size() > kMaxLabel) return std::nullopt;
    labels.emplace_back(label);
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  return from_labels(std::move(labels));
}

std::optional<Name> Name::from_labels(std::vector<std::string> labels) {
  std::size_t wire = 1;
  for (const auto& label : labels) {
    if (label.empty() || label.size() > kMaxLabel) return std::nullopt;
    wire += 1 + label.size();
  }
  if (wire > kMaxWire) return std::nullopt;
  Name name;
  name.labels_ = std::move(labels);
  return name;
}

std::size_t Name::wire_length() const noexcept {
  std::size_t wire = 1;
  for (const auto& label : labels_) wire += 1 + label.size();
  return wire;
}

std::string Name::to_string() const {
  if (labels_.empty()) return ".";
  std::string out;
  for (const auto& label : labels_) {
    out += label;
    out += '.';
  }
  return out;
}

bool Name::operator==(const Name& other) const noexcept {
  if (labels_.size() != other.labels_.size()) return false;
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    const auto& a = labels_[i];
    const auto& b = other.labels_[i];
    if (a.size() != b.size()) return false;
    for (std::size_t j = 0; j < a.size(); ++j) {
      if (lower(a[j]) != lower(b[j])) return false;
    }
  }
  return true;
}

std::uint64_t Name::hash() const noexcept {
  // FNV-1a over lowercased labels with separators.
  std::uint64_t h = util::kFnvOffset;
  for (const auto& label : labels_) {
    for (char c : label) util::fnv1a(h, lower(c));
    util::fnv1a(h, '.');
  }
  return h;
}

Name Name::parent() const {
  Name p;
  if (labels_.size() > 1) {
    p.labels_.assign(labels_.begin() + 1, labels_.end());
  }
  return p;
}

}  // namespace rootstress::dns
