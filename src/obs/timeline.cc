#include "obs/timeline.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/hash.h"

namespace rootstress::obs {
namespace {

void mix_u64(std::uint64_t& h, std::uint64_t v) noexcept { util::fnv1a(h, v); }

void mix_str(std::uint64_t& h, const std::string& s) noexcept {
  mix_u64(h, s.size());
  util::fnv1a(h, s.data(), s.size());
}

void mix_double(std::uint64_t& h, double v) noexcept {
  mix_u64(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace

const char* to_string(SeriesAgg agg) noexcept {
  switch (agg) {
    case SeriesAgg::kMean: return "mean";
    case SeriesAgg::kSum: return "sum";
    case SeriesAgg::kLast: return "last";
  }
  return "?";
}

double TimelineSeries::value(std::size_t bin) const noexcept {
  if (bin >= sums.size() || counts[bin] == 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  switch (agg) {
    case SeriesAgg::kMean: return sums[bin] / counts[bin];
    case SeriesAgg::kSum: return sums[bin];
    case SeriesAgg::kLast: return sums[bin];
  }
  return std::numeric_limits<double>::quiet_NaN();
}

const TimelineSeries* TimelineData::find(
    std::string_view name, std::string_view scope) const noexcept {
  for (const auto& s : series) {
    if (s.name != name) continue;
    if (!scope.empty() && s.scope != scope) continue;
    return &s;
  }
  return nullptr;
}

std::uint64_t TimelineData::digest() const noexcept {
  std::uint64_t h = util::kFnvOffset;
  mix_u64(h, static_cast<std::uint64_t>(start_ms));
  mix_u64(h, static_cast<std::uint64_t>(bin_ms));
  mix_u64(h, bins);
  mix_u64(h, series.size());
  for (const auto& s : series) {
    mix_str(h, s.name);
    mix_u64(h, static_cast<std::uint64_t>(s.letter));
    mix_str(h, s.scope);
    mix_u64(h, static_cast<std::uint64_t>(s.agg));
    for (double v : s.sums) mix_double(h, v);
    for (std::uint32_t c : s.counts) mix_u64(h, c);
  }
  mix_u64(h, spans.size());
  for (const auto& span : spans) {
    mix_str(h, span.category);
    mix_str(h, span.name);
    mix_str(h, span.scope);
    mix_u64(h, static_cast<std::uint64_t>(span.begin.ms));
    mix_u64(h, static_cast<std::uint64_t>(span.end.ms));
  }
  return h;
}

JsonValue TimelineData::to_json() const {
  JsonValue doc = JsonValue::object();
  doc.set("start_ms", static_cast<double>(start_ms));
  doc.set("bin_ms", static_cast<double>(bin_ms));
  doc.set("bins", static_cast<double>(bins));
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest()));
  doc.set("digest", std::string(hex));

  JsonValue series_json = JsonValue::array();
  for (const auto& s : series) {
    JsonValue one = JsonValue::object();
    one.set("name", s.name);
    if (s.letter != 0) one.set("letter", std::string(1, s.letter));
    if (!s.scope.empty()) one.set("scope", s.scope);
    one.set("agg", std::string(to_string(s.agg)));
    JsonValue values = JsonValue::array();
    for (std::size_t b = 0; b < bins; ++b) {
      const double v = s.value(b);
      if (std::isnan(v)) {
        values.push_back(JsonValue());  // null = bin never sampled
      } else {
        values.push_back(JsonValue(v));
      }
    }
    one.set("values", std::move(values));
    series_json.push_back(std::move(one));
  }
  doc.set("series", std::move(series_json));

  JsonValue spans_json = JsonValue::array();
  for (const auto& span : spans) {
    JsonValue one = JsonValue::object();
    one.set("category", span.category);
    one.set("name", span.name);
    if (!span.scope.empty()) one.set("scope", span.scope);
    one.set("begin_ms", static_cast<double>(span.begin.ms));
    one.set("end_ms", static_cast<double>(span.end.ms));
    spans_json.push_back(std::move(one));
  }
  doc.set("spans", std::move(spans_json));
  return doc;
}

Timeline::Timeline(net::SimTime start, net::SimTime end,
                   net::SimTime bin_width) {
  if (bin_width.ms <= 0) {
    throw std::invalid_argument("Timeline: bin width must be positive");
  }
  if (end.ms <= start.ms) {
    throw std::invalid_argument("Timeline: empty run span");
  }
  data_.start_ms = start.ms;
  data_.bin_ms = bin_width.ms;
  end_ms_ = end.ms;
  const std::int64_t span = end.ms - start.ms;
  data_.bins = static_cast<std::size_t>((span + bin_width.ms - 1) /
                                        bin_width.ms);
}

std::size_t Timeline::add_series(std::string name, char letter,
                                 std::string scope, SeriesAgg agg) {
  TimelineSeries s;
  s.name = std::move(name);
  s.letter = letter;
  s.scope = std::move(scope);
  s.agg = agg;
  s.sums.assign(data_.bins, 0.0);
  s.counts.assign(data_.bins, 0);
  data_.series.push_back(std::move(s));
  return data_.series.size() - 1;
}

net::SimTime Timeline::clamp(net::SimTime t) const noexcept {
  if (t.ms < data_.start_ms) return net::SimTime{data_.start_ms};
  if (t.ms > end_ms_) return net::SimTime{end_ms_};
  return t;
}

std::size_t Timeline::add_span(TimelineSpan span) {
  span.begin = clamp(span.begin);
  span.end = clamp(span.end);
  data_.spans.push_back(std::move(span));
  return data_.spans.size() - 1;
}

void Timeline::close_span(std::size_t span, net::SimTime end) {
  if (span >= data_.spans.size()) return;
  data_.spans[span].end = clamp(end);
}

}  // namespace rootstress::obs
