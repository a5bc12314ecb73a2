// Scale sweep: runs the message-passing runtime (SGM, L∞-distance,
// Jester-like workload) at increasing site counts and emits one JSON row
// per deployment size — update throughput, per-sync-cycle wall latency
// quantiles, the paper-vs-transport cost split, and what the telemetry
// plane itself cost (trace events emitted/sampled-out and the ns spent
// inside Emit, as a percentage of the run's wall time).
//
// The committed BENCH_scale.json at the repo root is the output of
//   bench_scale > BENCH_scale.json
// Each row runs --repeat times. Wall-clock columns (wall_time_ms,
// updates_per_sec, ns_per_update, sync_cycle_p*_ns, telemetry_ns,
// telemetry_overhead_pct) report the median over the repeats, and the
// `*_iqr` columns the distance between their quartiles; they vary with the
// machine, and CI gates the medians loosely via tools/bench_drift_check
// --columns=ns_per_update,sync_cycle_p99_ns --tolerance=3.0. Everything
// else (messages, bytes, syncs, trace counters) is seed-deterministic in
// sim rows: a repeat that disagrees with the first fails the run.
//
// Flags:
//   --sites=a,b,c     site counts to sweep            [24,128,512,2048]
//   --cycles=N        update cycles per row (0 = auto: fewer cycles at
//                     larger N so the sweep stays minutes-bounded)   [0]
//   --trace-sample=R  head-based trace sampling rate  [0.1]
//   --repeat=K        runs per row; wall-clock columns report the median
//                     and interquartile range over them             [5]
//   --loopback        additionally run each site count ≤ --loopback-max
//                     through the real-socket loopback runtime (one
//                     CoordinatorServer + N SiteClient threads); rows get
//                     "mode": "loopback" and their own seed stream
//   --loopback-max=N  largest loopback deployment (thread-per-site makes
//                     thousands of sites meaningless on one box)    [128]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "data/jester_like.h"
#include "functions/linf_distance.h"
#include "obs/telemetry.h"
#include "runtime/coordinator_server.h"
#include "runtime/driver.h"
#include "runtime/site_client.h"

namespace {

using Clock = std::chrono::steady_clock;

/// Bump when per-row columns are added or renamed.
/// 1 = single-run rows; 2 = + repeat and the *_iqr columns, wall-clock
/// columns as medians.
constexpr long kSchemaVersion = 2;
constexpr std::size_t kNumBuckets = 8;
constexpr std::size_t kWindow = 50;
constexpr double kThreshold = 5.0;
/// Row seeds derive from the site count so every row is its own
/// bench_drift_check cell (cells are keyed seed × drop).
constexpr std::uint64_t kSimSeedBase = 9000;
constexpr std::uint64_t kLoopbackSeedBase = 9100;

/// Larger deployments run fewer cycles: per-cycle work grows ~linearly in
/// N, so this keeps every row seconds-bounded without silently shrinking
/// the biggest ones to nothing.
long CyclesFor(int sites) {
  if (sites <= 32) return 240;
  if (sites <= 1024) return 120;
  return 40;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

struct RowResult {
  bool ok = false;
  long cycles = 0;
  double wall_ms = 0.0;
  std::vector<double> cycle_ns;  ///< per-sync-cycle wall latency
  long paper_messages = 0;
  double paper_bytes = 0.0;
  long transport_messages = 0;
  double transport_bytes = 0.0;
  long full_syncs = 0;
  long partial_resolutions = 0;
  sgm::TraceLog::SelfCost trace_cost;
};

sgm::RuntimeConfig NodeConfig(std::uint64_t seed, double trace_sample,
                              const sgm::JesterLikeGenerator& source,
                              sgm::Telemetry* telemetry) {
  sgm::RuntimeConfig node;
  node.threshold = kThreshold;
  node.max_step_norm = source.max_step_norm();
  node.drift_norm_cap = source.max_drift_norm();
  node.seed = sgm::DeriveSeed(seed, 202);
  node.telemetry = telemetry;
  node.trace_sample_rate = trace_sample;
  return node;
}

sgm::JesterLikeConfig WorkloadConfig(int sites, std::uint64_t seed) {
  sgm::JesterLikeConfig workload;
  workload.num_sites = sites;
  workload.window = kWindow;
  workload.num_buckets = kNumBuckets;
  workload.seed = sgm::DeriveSeed(seed, 101);
  return workload;
}

/// One single-process sweep row: the RuntimeDriver over the faultless
/// simulated transport, which isolates protocol + telemetry cost from
/// kernel socket cost.
RowResult RunSimRow(int sites, long cycles, std::uint64_t seed,
                    double trace_sample) {
  RowResult row;
  row.cycles = cycles;
  sgm::JesterLikeGenerator source(WorkloadConfig(sites, seed));
  const sgm::LInfDistance function{sgm::Vector(kNumBuckets)};
  sgm::Telemetry telemetry;
  const sgm::RuntimeConfig node =
      NodeConfig(seed, trace_sample, source, &telemetry);
  sgm::SimTransportConfig transport;
  transport.seed = sgm::DeriveSeed(seed, 303);
  sgm::RuntimeDriver driver(sites, function, node, transport);

  const auto start = Clock::now();
  std::vector<sgm::Vector> locals;
  source.Advance(&locals);
  driver.Initialize(locals);
  row.cycle_ns.reserve(static_cast<std::size_t>(cycles));
  for (long t = 1; t <= cycles; ++t) {
    source.Advance(&locals);
    const auto cycle_start = Clock::now();
    driver.Tick(locals);
    row.cycle_ns.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - cycle_start)
            .count());
  }
  row.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                          start)
                    .count();

  sgm::MetricRegistry& reg = telemetry.registry;
  row.paper_messages = reg.GetCounter("transport.paper_messages")->value();
  row.paper_bytes = reg.GetGauge("transport.paper_bytes")->value();
  row.transport_messages =
      reg.GetCounter("transport.total_messages")->value();
  row.transport_bytes = reg.GetGauge("transport.total_bytes")->value();
  row.full_syncs = driver.coordinator().full_syncs();
  row.partial_resolutions = driver.coordinator().partial_resolutions();
  row.trace_cost = telemetry.trace.self_cost();
  row.ok = true;
  return row;
}

/// One loopback row: a real-socket deployment (CoordinatorServer + one
/// SiteClient thread per site), measuring the same columns through the
/// kernel. Thread-per-site bounds the useful N — the caller caps it.
RowResult RunLoopbackRow(int sites, long cycles, std::uint64_t seed,
                         double trace_sample) {
  RowResult row;
  row.cycles = cycles;
  const sgm::JesterLikeConfig workload = WorkloadConfig(sites, seed);
  sgm::JesterLikeGenerator probe(workload);
  const sgm::LInfDistance function{sgm::Vector(kNumBuckets)};
  sgm::Telemetry telemetry;

  sgm::CoordinatorServerConfig server_config;
  server_config.num_sites = sites;
  server_config.runtime = NodeConfig(seed, trace_sample, probe, &telemetry);
  sgm::CoordinatorServer server(function, server_config);
  if (!server.Listen()) return row;

  std::atomic<bool> sites_ok{true};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(sites));
  const int port = server.port();
  for (int id = 0; id < sites; ++id) {
    threads.emplace_back([&, id] {
      sgm::SiteClientConfig config;
      config.site_id = id;
      config.num_sites = sites;
      config.port = port;
      config.runtime = NodeConfig(seed, trace_sample, probe, nullptr);
      sgm::JesterLikeGenerator generator(workload);
      sgm::SiteClient client(function, config);
      if (!client.Connect()) {
        sites_ok.store(false);
        return;
      }
      std::vector<sgm::Vector> locals;
      long advanced = 0;
      if (!client.Run([&](long cycle) {
            while (advanced <= cycle) {
              generator.Advance(&locals);
              ++advanced;
            }
            return locals[static_cast<std::size_t>(id)];
          })) {
        sites_ok.store(false);
      }
    });
  }

  const auto start = Clock::now();
  bool ok = server.WaitForSites();
  row.cycle_ns.reserve(static_cast<std::size_t>(cycles));
  for (long cycle = 0; ok && cycle <= cycles; ++cycle) {
    const auto cycle_start = Clock::now();
    ok = server.RunCycle();
    row.cycle_ns.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - cycle_start)
            .count());
  }
  server.Shutdown();
  for (std::thread& t : threads) t.join();
  row.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                          start)
                    .count();

  row.ok = ok && sites_ok.load();
  row.paper_messages = server.PaperMessages();
  row.paper_bytes = server.PaperBytes();
  row.transport_messages = server.transport().transport_messages_sent();
  row.transport_bytes = server.transport().transport_bytes_sent();
  row.full_syncs = server.FullSyncs();
  row.partial_resolutions = server.PartialResolutions();
  row.trace_cost = telemetry.trace.self_cost();
  return row;
}

/// The wall-clock columns of one run.
struct Timing {
  double wall_ms = 0.0;
  double updates_per_sec = 0.0;
  double ns_per_update = 0.0;
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  double p99_ns = 0.0;
  double telemetry_ns = 0.0;
  double overhead_pct = 0.0;
};

Timing TimingOf(int sites, const RowResult& row) {
  Timing t;
  const double updates = static_cast<double>(sites) * row.cycles;
  const double wall_ns = row.wall_ms * 1e6;
  t.wall_ms = row.wall_ms;
  t.updates_per_sec = row.wall_ms > 0.0 ? 1000.0 * updates / row.wall_ms : 0.0;
  t.ns_per_update = updates > 0.0 ? wall_ns / updates : 0.0;
  t.p50_ns = Percentile(row.cycle_ns, 0.50);
  t.p95_ns = Percentile(row.cycle_ns, 0.95);
  t.p99_ns = Percentile(row.cycle_ns, 0.99);
  t.telemetry_ns = static_cast<double>(row.trace_cost.telemetry_ns);
  t.overhead_pct = wall_ns > 0.0 ? 100.0 * t.telemetry_ns / wall_ns : 0.0;
  return t;
}

/// Median and interquartile range of one wall-clock column over repeats.
struct Spread {
  double median = 0.0;
  double iqr = 0.0;
};

Spread SpreadOf(const std::vector<Timing>& runs, double Timing::*column) {
  std::vector<double> values;
  values.reserve(runs.size());
  for (const Timing& t : runs) values.push_back(t.*column);
  return {Percentile(values, 0.50),
          Percentile(values, 0.75) - Percentile(values, 0.25)};
}

/// True when two runs of one row agree on every seed-deterministic column.
bool SameCounts(const RowResult& a, const RowResult& b) {
  return a.cycles == b.cycles &&
         a.paper_messages == b.paper_messages &&
         a.paper_bytes == b.paper_bytes &&
         a.transport_messages == b.transport_messages &&
         a.transport_bytes == b.transport_bytes &&
         a.full_syncs == b.full_syncs &&
         a.partial_resolutions == b.partial_resolutions &&
         a.trace_cost.events_emitted == b.trace_cost.events_emitted &&
         a.trace_cost.events_recorded == b.trace_cost.events_recorded &&
         a.trace_cost.events_sampled_out == b.trace_cost.events_sampled_out;
}

/// Prints one row: the count columns of `runs[0]` and the median / IQR of
/// each wall-clock column over all runs.
void PrintRow(const char* mode, int sites, std::uint64_t seed,
              double trace_sample, const std::vector<RowResult>& runs,
              bool first) {
  const RowResult& row = runs.front();
  std::vector<Timing> timings;
  timings.reserve(runs.size());
  for (const RowResult& run : runs) timings.push_back(TimingOf(sites, run));
  const Spread wall = SpreadOf(timings, &Timing::wall_ms);
  const Spread rate = SpreadOf(timings, &Timing::updates_per_sec);
  const Spread per_update = SpreadOf(timings, &Timing::ns_per_update);
  const Spread p50 = SpreadOf(timings, &Timing::p50_ns);
  const Spread p95 = SpreadOf(timings, &Timing::p95_ns);
  const Spread p99 = SpreadOf(timings, &Timing::p99_ns);
  const Spread telemetry = SpreadOf(timings, &Timing::telemetry_ns);
  const Spread overhead = SpreadOf(timings, &Timing::overhead_pct);
  const long updates = static_cast<long>(sites) * row.cycles;
  std::printf(
      "%s  {\"seed\": %llu, \"drop\": 0.00, \"mode\": \"%s\","
      " \"sites\": %d, \"cycles\": %ld, \"trace_sample\": %.2f,"
      " \"repeat\": %zu,\n"
      "   \"updates\": %ld, \"wall_time_ms\": %.1f,"
      " \"updates_per_sec\": %.0f, \"ns_per_update\": %.0f,\n"
      "   \"sync_cycle_p50_ns\": %.0f, \"sync_cycle_p95_ns\": %.0f,"
      " \"sync_cycle_p99_ns\": %.0f,\n"
      "   \"updates_per_sec_iqr\": %.0f, \"ns_per_update_iqr\": %.0f,"
      " \"sync_cycle_p50_ns_iqr\": %.0f, \"sync_cycle_p95_ns_iqr\": %.0f,"
      " \"sync_cycle_p99_ns_iqr\": %.0f,\n"
      "   \"paper_messages\": %ld, \"paper_bytes\": %.0f,"
      " \"transport_messages\": %ld, \"transport_bytes\": %.0f,"
      " \"overhead_message_ratio\": %.4f,\n"
      "   \"full_syncs\": %ld, \"partial_resolutions\": %ld,\n"
      "   \"trace_events\": %ld, \"trace_recorded\": %ld,"
      " \"trace_sampled_out\": %ld, \"telemetry_ns\": %.0f,"
      " \"telemetry_overhead_pct\": %.3f,"
      " \"telemetry_overhead_pct_iqr\": %.3f}",
      first ? "" : ",\n", static_cast<unsigned long long>(seed), mode, sites,
      row.cycles, trace_sample, runs.size(), updates, wall.median,
      rate.median, per_update.median, p50.median, p95.median, p99.median,
      rate.iqr, per_update.iqr, p50.iqr, p95.iqr, p99.iqr,
      row.paper_messages, row.paper_bytes, row.transport_messages,
      row.transport_bytes,
      row.paper_messages > 0
          ? static_cast<double>(row.transport_messages - row.paper_messages) /
                static_cast<double>(row.paper_messages)
          : 0.0,
      row.full_syncs, row.partial_resolutions, row.trace_cost.events_emitted,
      row.trace_cost.events_recorded, row.trace_cost.events_sampled_out,
      telemetry.median, overhead.median, overhead.iqr);
}

template <typename Run>
std::vector<RowResult> RunRepeated(int repeat, Run&& run) {
  std::vector<RowResult> runs;
  runs.reserve(static_cast<std::size_t>(repeat));
  for (int i = 0; i < repeat; ++i) runs.push_back(run());
  return runs;
}

/// True when every run succeeded and, for a seed-deterministic row,
/// matched the first run on the count columns; reports the first problem
/// on stderr.
bool RunsAgree(const char* mode, int sites, bool deterministic,
               const std::vector<RowResult>& runs) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (!runs[i].ok) {
      std::fprintf(stderr, "%s row %d: run %zu failed\n", mode, sites, i);
      return false;
    }
    if (deterministic && !SameCounts(runs.front(), runs[i])) {
      std::fprintf(stderr,
                   "%s row %d: run %zu disagrees with run 0 on a"
                   " seed-deterministic column\n",
                   mode, sites, i);
      return false;
    }
  }
  return true;
}

std::vector<int> ParseSitesList(const std::string& list) {
  std::vector<int> sites;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string item =
        list.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (!item.empty()) sites.push_back(std::atoi(item.c_str()));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return sites;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> sites_list = {24, 128, 512, 2048};
  long cycles_override = 0;
  double trace_sample = 0.1;
  bool loopback = false;
  int loopback_max = 128;
  int repeat = 5;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--sites=", 0) == 0) {
      sites_list = ParseSitesList(arg.substr(std::strlen("--sites=")));
      if (sites_list.empty()) {
        std::fprintf(stderr, "--sites= needs a comma-separated list\n");
        return 2;
      }
    } else if (arg.rfind("--cycles=", 0) == 0) {
      cycles_override = std::atol(arg.c_str() + std::strlen("--cycles="));
    } else if (arg.rfind("--trace-sample=", 0) == 0) {
      trace_sample = std::atof(arg.c_str() + std::strlen("--trace-sample="));
    } else if (arg.rfind("--repeat=", 0) == 0) {
      repeat = std::atoi(arg.c_str() + std::strlen("--repeat="));
      if (repeat < 1) {
        std::fprintf(stderr, "--repeat= needs a count >= 1\n");
        return 2;
      }
    } else if (arg == "--loopback") {
      loopback = true;
    } else if (arg.rfind("--loopback-max=", 0) == 0) {
      loopback_max = std::atoi(arg.c_str() + std::strlen("--loopback-max="));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  std::printf("{\"benchmark\": \"scale\", \"schema_version\": %ld,"
              " \"workload\": \"jester_like/linf\","
              " \"trace_sample\": %.2f,\n \"runs\": [\n",
              kSchemaVersion, trace_sample);
  bool first = true;
  bool all_ok = true;
  for (const int sites : sites_list) {
    if (sites <= 0) continue;
    const long cycles =
        cycles_override > 0 ? cycles_override : CyclesFor(sites);
    const std::uint64_t seed = kSimSeedBase + static_cast<std::uint64_t>(sites);
    const std::vector<RowResult> runs = RunRepeated(repeat, [&] {
      return RunSimRow(sites, cycles, seed, trace_sample);
    });
    all_ok = all_ok && RunsAgree("sim", sites, true, runs);
    PrintRow("sim", sites, seed, trace_sample, runs, first);
    first = false;
  }
  if (loopback) {
    for (const int sites : sites_list) {
      if (sites <= 0) continue;
      if (sites > loopback_max) {
        std::fprintf(stderr,
                     "note: loopback row for %d sites skipped"
                     " (--loopback-max=%d; thread-per-site)\n",
                     sites, loopback_max);
        continue;
      }
      const long cycles = cycles_override > 0 ? cycles_override : 60;
      const std::uint64_t seed =
          kLoopbackSeedBase + static_cast<std::uint64_t>(sites);
      const std::vector<RowResult> runs = RunRepeated(repeat, [&] {
        return RunLoopbackRow(sites, cycles, seed, trace_sample);
      });
      // Socket timing moves a loopback row's heartbeat and retransmit
      // counts from run to run; its count columns are the first run's.
      all_ok = all_ok && RunsAgree("loopback", sites, false, runs);
      PrintRow("loopback", sites, seed, trace_sample, runs, first);
      first = false;
    }
  }
  std::printf("\n]}\n");
  return all_ok ? 0 : 1;
}
