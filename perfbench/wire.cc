// Workload wire_loopback: real DNS over UDP on 127.0.0.1. A
// netio::LoadGenerator (one sender thread) sends the 2015 event qname with
// spoofed EDNS Client Subnet sources to a netio::WireServer running
// dns::RootServer + RRL (keyed on the ECS source) on its own thread.
//
// Each round has three parts:
//   1. an open-loop pass below the knee (RTT, loss: every query must get
//      a response or a deliberate RRL drop);
//   2. an open-loop pass at an overload rate (answered throughput; every
//      response the server sent must reach the generator);
//   3. the server's per-packet path (WireServer::handle_datagram: decode,
//      RRL, packet cache, encode) over a fixed stream of the same queries
//      on a simulated clock advancing at the overload rate, one server per
//      core on 4 threads. The cores' mean CPU time per million queries is
//      the round's `job_cpu_s` sample: the inverse of one core's capacity.
// Loopback UDP throughput and RTT on a shared host move by more than any
// useful bound from run to run, and so does a single-threaded loop, whose
// speed depends on which core it lands on. They are per-layer metrics;
// the in-process path, averaged over all cores, carries the end-to-end
// gate.
#include <algorithm>
#include <exception>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "dns/edns.h"
#include "dns/wire.h"
#include "netio/generator.h"
#include "netio/server.h"
#include "netio/spoof.h"

namespace perfbench {
namespace {

using namespace rootstress;

constexpr double kSubKneeQps = 50e3;
constexpr double kOverloadQps = 400e3;
constexpr double kPassSeconds = 0.25;
constexpr int kSenders = 1;
constexpr std::size_t kStreamPackets = 4096;
constexpr std::size_t kServedPerCore = 500000;
constexpr std::size_t kServerCores = 4;
constexpr int kSetupsPerRound = 3;
constexpr const char* kQname = "www.336901.com";

netio::SpoofConfig spoof_config(std::uint64_t seed) {
  netio::SpoofConfig spoof;
  spoof.seed = seed;
  return spoof;
}

/// The in-process query stream: the generator's query shape (2015 qname,
/// EDNS, modeled spoofed source as ECS) with distinct ids and sources.
std::vector<std::vector<std::uint8_t>> query_stream(std::uint64_t seed) {
  const auto qname = dns::Name::parse(kQname);
  netio::SpoofShard sources(spoof_config(seed), 0, 1);
  std::vector<std::vector<std::uint8_t>> stream;
  stream.reserve(kStreamPackets);
  for (std::size_t i = 0; i < kStreamPackets; ++i) {
    dns::Message query = dns::Message::query(
        static_cast<std::uint16_t>(i), *qname, dns::RrType::kA,
        dns::RrClass::kIn);
    dns::add_edns(query, 4096, false,
                  dns::ClientSubnet{sources.next(), 32, 0});
    stream.push_back(dns::encode(query));
  }
  return stream;
}

netio::WireServerConfig server_config() {
  netio::WireServerConfig config;
  config.rrl.enabled = true;
  return config;
}

struct ServerCounts {
  std::uint64_t received = 0;
  std::uint64_t answered = 0;
  std::uint64_t slipped = 0;
  std::uint64_t dropped_rrl = 0;
  std::uint64_t dropped_capacity = 0;
  std::uint64_t malformed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  static ServerCounts read(const netio::WireServerStats& s) {
    return {s.received.load(),         s.answered.load(),
            s.slipped.load(),          s.dropped_rrl.load(),
            s.dropped_capacity.load(), s.dropped_malformed.load(),
            s.cache_hits.load(),       s.cache_misses.load()};
  }
  ServerCounts operator-(const ServerCounts& o) const {
    return {received - o.received,
            answered - o.answered,
            slipped - o.slipped,
            dropped_rrl - o.dropped_rrl,
            dropped_capacity - o.dropped_capacity,
            malformed - o.malformed,
            cache_hits - o.cache_hits,
            cache_misses - o.cache_misses};
  }
  void add(const ServerCounts& o) {
    received += o.received;
    answered += o.answered;
    slipped += o.slipped;
    dropped_rrl += o.dropped_rrl;
    dropped_capacity += o.dropped_capacity;
    malformed += o.malformed;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
  }
};

struct PassResult {
  netio::GeneratorReport gen;
  ServerCounts server;
};

PassResult udp_pass(netio::WireServer& server, double qps,
                    std::uint64_t seed) {
  netio::GeneratorConfig config;
  config.targets = {server.endpoint()};
  config.workers = kSenders;
  config.duration_s = kPassSeconds;
  config.envelope = netio::RateEnvelope::constant(qps);
  config.qname = kQname;
  config.spoof = spoof_config(seed);
  const ServerCounts before = ServerCounts::read(server.stats());
  std::string error;
  PassResult pass;
  pass.gen = netio::LoadGenerator(config).run(&error);
  if (!error.empty()) throw std::runtime_error("load generator: " + error);
  pass.server = ServerCounts::read(server.stats()) - before;
  return pass;
}

/// Every response the server sent came back to the generator, and every
/// datagram parsed.
void check_pass(const char* name, const PassResult& pass, Report& report) {
  const std::uint64_t server_sent = pass.server.answered + pass.server.slipped;
  const std::uint64_t gen_got = pass.gen.answered + pass.gen.truncated;
  report.check(std::string("wire.") + name + ".answers_match",
               server_sent == gen_got && pass.gen.unmatched == 0,
               "server sent " + std::to_string(server_sent) +
                   ", generator matched " + std::to_string(gen_got) +
                   ", unmatched " + std::to_string(pass.gen.unmatched));
  report.check(std::string("wire.") + name + ".no_malformed",
               pass.server.malformed == 0,
               std::to_string(pass.server.malformed) + " malformed");
}

/// One server core's share of the in-process path: runs the query stream
/// through a fresh server's per-packet path with the clock advancing at
/// the overload rate. The outcome counts and response bytes are
/// deterministic for a seed.
struct CoreRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  ServerCounts counts;
  std::uint64_t bytes_out = 0;
};

CoreRun serve_stream(const std::vector<std::vector<std::uint8_t>>& stream,
                     std::latch& start) {
  start.arrive_and_wait();
  netio::WireServer server(server_config());
  std::vector<std::uint8_t> out(4096);
  const net::Ipv4Addr loopback(127, 0, 0, 1);
  CoreRun run;
  const auto begin = Clock::now();
  const double cpu_begin = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  for (std::size_t i = 0; i < kServedPerCore; ++i) {
    const net::SimTime now(static_cast<std::int64_t>(
        static_cast<double>(i) * 1e3 / kOverloadQps));
    run.bytes_out += server.handle_datagram(stream[i % stream.size()],
                                            loopback, now, out);
  }
  run.wall_s = seconds_since(begin);
  run.cpu_s = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - cpu_begin;
  run.counts = ServerCounts::read(server.stats());
  return run;
}

/// kServerCores independent servers on as many threads, as a site runs
/// one server process per core. Returns each core's run; rethrows the
/// first failure of any core.
std::vector<CoreRun> serve_on_cores(
    const std::vector<std::vector<std::uint8_t>>& stream) {
  std::vector<CoreRun> runs(kServerCores);
  std::vector<std::exception_ptr> errors(kServerCores);
  std::latch start(kServerCores);
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < kServerCores; ++c) {
      threads.emplace_back([&, c] {
        try {
          runs[c] = serve_stream(stream, start);
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    }
  }  // joins
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return runs;
}

/// One set-up sample: server construction, socket bind, service thread
/// start and stop, and the query-stream build.
void sample_setup(std::uint64_t seed, Report& report) {
  const Stopwatch watch;
  netio::WireServer server(server_config());
  std::string error;
  if (!server.start(&error)) throw std::runtime_error("server: " + error);
  const auto stream = query_stream(seed);
  server.stop();
  report.sample("setup_s", watch.cpu_s());
}

}  // namespace

void run_wire(const Options& options, Report& report) {
  const auto stream = query_stream(options.seed);

  const auto budget_begin = Clock::now();
  std::uint64_t round = 0;
  std::vector<double> achieved_ratio, answered_qps, rtt_p50, rtt_p99;
  double shortfall = 0.0, lost = 0.0, unmatched = 0.0;
  ServerCounts udp_totals;
  ServerCounts first_stream;
  std::uint64_t first_bytes = 0;
  do {
    // Set-up samples are spread over the run, like the rounds.
    for (int i = 0; i < kSetupsPerRound; ++i) sample_setup(options.seed, report);
    const std::uint64_t seed = options.seed * 1000003u + round;
    // A fresh server per round: RRL keeps a bucket per spoofed source
    // block it has seen, so one long-lived server's memory would grow
    // with the number of rounds the time budget allows.
    netio::WireServer server(server_config());
    std::string error;
    if (!server.start(&error)) throw std::runtime_error("server: " + error);
    const PassResult low = udp_pass(server, kSubKneeQps, seed);
    const PassResult high = udp_pass(server, kOverloadQps, seed);
    server.stop();
    check_pass("sub_knee", low, report);
    check_pass("overload", high, report);

    // Below the knee every query gets a response unless RRL chose to
    // drop it; anything else is a failed query.
    const std::uint64_t accounted = low.gen.answered + low.gen.truncated +
                                    low.server.dropped_rrl;
    report.operation(low.gen.sent,
                     low.gen.sent > accounted ? low.gen.sent - accounted : 0);
    report.operation(1, high.server.answered == 0 ? 1 : 0);

    answered_qps.push_back(static_cast<double>(high.server.answered) /
                           high.gen.duration_s);
    rtt_p50.push_back(low.gen.rtt_p50_ms);
    rtt_p99.push_back(low.gen.rtt_p99_ms);
    for (const PassResult* pass : {&low, &high}) {
      achieved_ratio.push_back(pass->gen.achieved_qps /
                               pass->gen.requested_qps);
      shortfall += static_cast<double>(pass->gen.send_shortfall);
      lost += static_cast<double>(pass->gen.lost);
      unmatched += static_cast<double>(pass->gen.unmatched);
      udp_totals.add(pass->server);
    }

    // Mean over the cores of each core's seconds per million queries: a
    // per-core figure that averages over the host's cores.
    const std::vector<CoreRun> cores = serve_on_cores(stream);
    double wall_s = 0.0;
    double cpu_s = 0.0;
    bool same = true;
    if (round == 0) {
      first_stream = cores.front().counts;
      first_bytes = cores.front().bytes_out;
    }
    for (const CoreRun& core : cores) {
      wall_s += core.wall_s / kServerCores;
      cpu_s += core.cpu_s / kServerCores;
      same = same && core.counts.answered == first_stream.answered &&
             core.counts.slipped == first_stream.slipped &&
             core.counts.dropped_rrl == first_stream.dropped_rrl &&
             core.counts.malformed == 0 && core.bytes_out == first_bytes;
    }
    report.sample("job_cpu_s", cpu_s * 1e6 / kServedPerCore);
    report.sample("job_wall_s", wall_s * 1e6 / kServedPerCore);
    report.operation(kServerCores, same ? 0 : kServerCores);
    report.check("wire.server_path_deterministic", same,
                 "round " + std::to_string(round) +
                     ": every core matches round 0, core 0");
    ++round;
  } while (seconds_since(budget_begin) < options.seconds);

  report.check("wire.server_path_no_malformed", first_stream.malformed == 0,
               std::to_string(first_stream.malformed) + " malformed");
  report.count("dns.server.answered",
               static_cast<double>(first_stream.answered));
  report.count("dns.server.slipped", static_cast<double>(first_stream.slipped));
  report.count("dns.server.dropped_rrl",
               static_cast<double>(first_stream.dropped_rrl));
  report.count("dns.server.bytes_out", static_cast<double>(first_bytes));

  if (options.trace) {
    report.layer("netio.server.answered_qps", median(answered_qps));
    report.layer("netio.gen.rtt_p50_ms", median(rtt_p50));
    report.layer("netio.gen.rtt_p99_ms", median(rtt_p99));
    report.layer("netio.gen.achieved_over_requested",
                 *std::min_element(achieved_ratio.begin(),
                                   achieved_ratio.end()));
    report.layer("netio.gen.send_shortfall", shortfall);
    report.layer("netio.gen.lost", lost);
    report.layer("netio.gen.unmatched", unmatched);
    const double lookups =
        static_cast<double>(udp_totals.cache_hits + udp_totals.cache_misses);
    report.layer("netio.server.cache_hit_ratio",
                 lookups > 0
                     ? static_cast<double>(udp_totals.cache_hits) / lookups
                     : 0.0);
    report.layer("netio.server.dropped_rrl",
                 static_cast<double>(udp_totals.dropped_rrl));
    report.layer("netio.server.dropped_capacity",
                 static_cast<double>(udp_totals.dropped_capacity));
    report.layer("netio.server.malformed",
                 static_cast<double>(udp_totals.malformed));
  }
}

}  // namespace perfbench
