// RootStress benchmark binary: runs one workload for a fixed wall-clock
// budget and prints its report as one JSON line on stdout.
//
//   rootstress_bench --workload replay_nov2015|campaign_whatif|wire_loopback
//                    --seed N --seconds S --trace 0|1
//                    [--reference perfbench/reference.json]
//                    [--scratch DIR]
//
// perfbench/run.py builds this binary, runs it, and turns the report into
// the benchmark's metrics. Exit status: 0 when every output check passed,
// 1 when one failed, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "common.h"

namespace perfbench {

using rootstress::obs::JsonValue;

std::string digest_hex(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  JsonValue entry = JsonValue::object();
  entry.set("name", name);
  entry.set("ok", ok);
  entry.set("detail", detail);
  checks_.push_back(std::move(entry));
  if (!ok) correct_ = false;
}

namespace {

std::string format_number(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

}  // namespace

void Report::gate_reference(const Options& options) {
  if (options.reference_path.empty()) return;
  std::ifstream in(options.reference_path);
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = rootstress::obs::json_parse(text.str());
  if (!in || !doc) {
    check("reference.readable", false,
          "cannot read " + options.reference_path);
    return;
  }
  const JsonValue* seed = doc->find("seed");
  if (seed == nullptr ||
      static_cast<std::uint64_t>(seed->as_number()) != options.seed) {
    return;  // references exist only for the default seed
  }
  const JsonValue* workloads = doc->find("workloads");
  const JsonValue* entry =
      workloads != nullptr ? workloads->find(options.workload) : nullptr;
  if (entry == nullptr) {
    check("reference.present", false,
          "no reference entry for " + options.workload);
    return;
  }
  if (const JsonValue* expected = entry->find("digests")) {
    for (const auto& [name, value] : expected->members()) {
      const auto it = digests_.find(name);
      const std::string got = it == digests_.end() ? "missing" : it->second;
      check("reference.digest." + name, got == value.as_string(),
            "got " + got + ", reference " + value.as_string());
    }
  }
  const char* sections[] = {"counts", options.trace ? "traced_counts" : ""};
  for (const char* section : sections) {
    const JsonValue* expected = *section ? entry->find(section) : nullptr;
    if (expected == nullptr) continue;
    for (const auto& [name, value] : expected->members()) {
      const auto it = counts_.find(name);
      const bool ok = it != counts_.end() && it->second == value.as_number();
      check("reference.count." + name, ok,
            "got " +
                (it == counts_.end() ? std::string("missing")
                                     : format_number(it->second)) +
                ", reference " + format_number(value.as_number()));
    }
  }
}

JsonValue Report::to_json(const Options& options) const {
  JsonValue out = JsonValue::object();
  out.set("workload", options.workload);
  out.set("seed", static_cast<std::uint64_t>(options.seed));
  out.set("trace", options.trace);
  out.set("correct", correct_);
  out.set("attempted", attempted_);
  out.set("failed", failed_);
  JsonValue samples = JsonValue::object();
  for (const auto& [name, values] : samples_) {
    JsonValue list = JsonValue::array();
    for (const double v : values) list.push_back(v);
    samples.set(name, std::move(list));
  }
  out.set("samples", std::move(samples));
  JsonValue counts = JsonValue::object();
  for (const auto& [name, value] : counts_) counts.set(name, value);
  out.set("counts", std::move(counts));
  JsonValue layers = JsonValue::object();
  for (const auto& [name, value] : layers_) layers.set(name, value);
  out.set("layers", std::move(layers));
  JsonValue digests = JsonValue::object();
  for (const auto& [name, value] : digests_) digests.set(name, value);
  out.set("digests", std::move(digests));
  out.set("checks", checks_);
  return out;
}

}  // namespace perfbench

namespace {

/// Peak resident set size of this process, in MiB.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int usage() {
  std::fputs(
      "usage: rootstress_bench --workload replay_nov2015|campaign_whatif|"
      "wire_loopback --seed N --seconds S --trace 0|1 [--reference FILE] "
      "[--scratch DIR]\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--reference") {
      options.reference_path = value;
    } else if (flag == "--scratch") {
      options.scratch_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0.0) return usage();

  perfbench::Report report;
  try {
    if (options.workload == "replay_nov2015") {
      perfbench::run_replay(options, report);
    } else if (options.workload == "campaign_whatif") {
      perfbench::run_campaign(options, report);
    } else if (options.workload == "wire_loopback") {
      perfbench::run_wire(options, report);
    } else {
      return usage();
    }
    report.gate_reference(options);
    report.layer("proc.peak_rss_mb", peak_rss_mb());
    report.layer("proc.job_wall_s", report.sample_median("job_wall_s"));
  } catch (const std::exception& e) {
    report.operation(1, 1);
    report.check("no_exception", false, e.what());
  }
  const rootstress::obs::JsonValue json = report.to_json(options);
  std::printf("%s\n", json.dump().c_str());
  const rootstress::obs::JsonValue* correct = json.find("correct");
  return correct != nullptr && correct->as_bool() ? 0 : 1;
}
