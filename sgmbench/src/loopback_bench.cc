#include "loopback_bench.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "functions/linf_distance.h"
#include "obs/telemetry.h"
#include "runtime/coordinator_server.h"
#include "runtime/site_client.h"
#include "sim_bench.h"

namespace sgmbench {
namespace {

double CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// What the benchmark's site threads report back.
struct SiteThreadResult {
  bool connected = false;
  bool run_ok = false;
  sgm::SiteExitReason reason = sgm::SiteExitReason::kShutdown;
  double cpu_at_measure_ns = -1.0;  ///< thread CPU at the first measured cycle
  double cpu_end_ns = 0.0;
};

/// Outside-in measurements summed over the traced episodes' measured cycles.
struct OutsideCounters {
  long cycles = 0;
  long updates = 0;
  double process_cpu_ns = 0.0;
  double caller_cpu_ns = 0.0;  ///< the RunCycle caller's thread CPU
  double site_cpu_ns = 0.0;
  long vol_switches = 0;
  long invol_switches = 0;
  long frames = 0;
  double frame_bytes = 0.0;
  long retries = 0;
  long deaths = 0;
  double live_count_sum = 0.0;
  int episodes = 0;
};

struct ProcessSnapshot {
  double cpu_ns = 0.0;
  long vol = 0;
  long invol = 0;
  long frames = 0;
  double frame_bytes = 0.0;
  long retries = 0;
  double paper_msgs = 0.0;
  double paper_bytes = 0.0;
};

ProcessSnapshot Snapshot(const sgm::CoordinatorServer& server) {
  ProcessSnapshot s;
  s.cpu_ns = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  s.vol = usage.ru_nvcsw;
  s.invol = usage.ru_nivcsw;
  const sgm::SocketTransport& t = server.transport();
  s.frames = t.transport_messages_sent();
  s.frame_bytes = t.transport_bytes_sent();
  s.retries = t.short_writes() + t.send_failures() + t.send_queue_drops();
  s.paper_msgs = static_cast<double>(server.PaperMessages());
  s.paper_bytes = server.PaperBytes();
  return s;
}

/// One deployment: server + spec.sites SiteClient threads, set-up (listen,
/// connect, Initialize, warm-up) timed as one interval, then measured
/// lockstep cycles. Every input is generated before the server exists.
void RunEpisode(const WorkloadSpec& spec, std::uint64_t run_seed, int episode,
                OutsideCounters* outside, RunTotals* totals) {
  const std::uint64_t seed = EpisodeSeed(run_seed, episode);
  const long first_measured = 1 + spec.warmup_cycles;  // cycle 0 initializes
  const long total_cycles = first_measured + spec.episode_cycles;
  sgm::JesterLikeGenerator source(GeneratorConfig(spec, seed));
  std::vector<std::vector<sgm::Vector>> inputs(
      static_cast<std::size_t>(total_cycles));
  std::vector<sgm::Vector> means(static_cast<std::size_t>(total_cycles));
  for (long c = 0; c < total_cycles; ++c) {
    source.Advance(&inputs[static_cast<std::size_t>(c)]);
    means[static_cast<std::size_t>(c)] =
        MeanOf(inputs[static_cast<std::size_t>(c)]);
  }
  const sgm::LInfDistance function{sgm::Vector(kDim)};
  sgm::Telemetry telemetry;
  ++totals->episodes;

  const std::int64_t setup_start = NowNs();
  sgm::CoordinatorServerConfig server_config;
  server_config.num_sites = spec.sites;
  server_config.runtime = NodeConfig(spec, seed, source, &telemetry, nullptr);
  sgm::CoordinatorServer server(function, server_config);
  if (!server.Listen()) {
    totals->gate_failures.push_back("CoordinatorServer::Listen failed");
    return;
  }
  const int port = server.port();
  std::vector<SiteThreadResult> results(static_cast<std::size_t>(spec.sites));
  std::vector<std::thread> threads;
  for (int id = 0; id < spec.sites; ++id) {
    threads.emplace_back([&, id] {
      SiteThreadResult& r = results[static_cast<std::size_t>(id)];
      sgm::SiteClientConfig config;
      config.site_id = id;
      config.num_sites = spec.sites;
      config.port = port;
      config.runtime = NodeConfig(spec, seed, source, nullptr, nullptr);
      sgm::SiteClient client(function, config);
      if (!client.Connect()) {
        r.reason = sgm::SiteExitReason::kConnectGiveUp;
        return;
      }
      r.connected = true;
      r.run_ok = client.Run([&](long cycle) {
        if (cycle == first_measured) {
          r.cpu_at_measure_ns = CpuNs(CLOCK_THREAD_CPUTIME_ID);
        }
        const long c = std::clamp(cycle, 0L, total_cycles - 1);
        return inputs[static_cast<std::size_t>(c)]
                     [static_cast<std::size_t>(id)];
      });
      r.reason = client.exit_reason();
      r.cpu_end_ns = CpuNs(CLOCK_THREAD_CPUTIME_ID);
    });
  }

  bool ok = server.WaitForSites();
  long cycle = 0;
  for (; ok && cycle < first_measured; ++cycle) {
    ++totals->attempted_cycles;
    ok = server.RunCycle();
  }
  if (ok) totals->setup_s.push_back(SecondsSince(setup_start));

  const ProcessSnapshot before = Snapshot(server);
  Audit audit(source.max_step_norm());
  double caller_cpu_ns = 0.0;
  double measured_ns = 0.0;
  long measured = 0;
  for (; ok && cycle < total_cycles; ++cycle) {
    ++totals->attempted_cycles;
    const double cpu0 = outside ? CpuNs(CLOCK_THREAD_CPUTIME_ID) : 0.0;
    const std::int64_t start = NowNs();
    ok = server.RunCycle();
    const double cycle_ns = static_cast<double>(NowNs() - start);
    if (outside) caller_cpu_ns += CpuNs(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    if (!ok) break;
    ++measured;
    totals->cycle_ns.push_back(cycle_ns);
    measured_ns += cycle_ns;
    audit.Observe(cycle, server.BelievesAbove(), server.Estimate(),
                  server.FullSyncs(), means[static_cast<std::size_t>(cycle)]);
  }
  if (!ok) ++totals->failed_cycles;
  const ProcessSnapshot after = Snapshot(server);
  if (ok && server.HasUnacked()) {
    totals->gate_failures.push_back("unacked entries at quiescence");
  }
  server.PublishMetrics();
  sgm::MetricRegistry& registry = telemetry.registry;
  const long deaths = registry.GetCounter("failure.total_deaths")->value();
  const double live = registry.GetGauge("failure.live_count")->value();
  server.Shutdown();
  for (std::thread& t : threads) t.join();

  for (int id = 0; id < spec.sites; ++id) {
    const SiteThreadResult& r = results[static_cast<std::size_t>(id)];
    if (!r.connected || !r.run_ok ||
        r.reason != sgm::SiteExitReason::kShutdown) {
      ++totals->failed_cycles;
      totals->gate_failures.push_back(
          "site " + std::to_string(id) + " exited with " +
          sgm::SiteExitReasonName(r.reason));
    }
  }
  totals->deaths += deaths;
  totals->AddMeasured(measured_ns, measured * spec.sites);
  totals->paper_msgs += after.paper_msgs - before.paper_msgs;
  totals->paper_bytes += after.paper_bytes - before.paper_bytes;
  totals->wire_bytes += after.frame_bytes - before.frame_bytes;
  totals->AddAudit(audit.report());

  if (outside == nullptr) return;
  outside->cycles += measured;
  outside->updates += measured * spec.sites;
  outside->process_cpu_ns += after.cpu_ns - before.cpu_ns;
  outside->caller_cpu_ns += caller_cpu_ns;
  outside->vol_switches += after.vol - before.vol;
  outside->invol_switches += after.invol - before.invol;
  outside->frames += after.frames - before.frames;
  outside->frame_bytes += after.frame_bytes - before.frame_bytes;
  outside->retries += after.retries - before.retries;
  outside->deaths += deaths;
  outside->live_count_sum += live;
  ++outside->episodes;
  for (const SiteThreadResult& r : results) {
    if (r.cpu_at_measure_ns >= 0.0) {
      outside->site_cpu_ns += r.cpu_end_ns - r.cpu_at_measure_ns;
    }
  }
}

void CheckGates(RunTotals* totals) {
  totals->CheckAccuracyGate(sgm::RuntimeConfig().delta);
  if (totals->deaths > 0) {
    totals->gate_failures.push_back("failure-detector deaths: " +
                                    std::to_string(totals->deaths));
  }
  double p99 = 0.0;
  if (!ExactPercentile(totals->cycle_ns, 0.99, &p99)) {
    totals->gate_failures.push_back("too few cycles for an exact p99");
  }
}

bool KeepGoing(const RunTotals& totals, std::int64_t start,
               const RunArgs& args, int min_episodes) {
  const double elapsed = SecondsSince(start);
  if (elapsed > 120.0 || !totals.gate_failures.empty()) return false;
  return totals.episodes < min_episodes || elapsed < args.seconds ||
         static_cast<long>(totals.cycle_ns.size()) < kMinMeasuredCycles;
}

}  // namespace

RunOutcome RunLoopbackWorkload(const WorkloadSpec& spec, const RunArgs& args) {
  const std::int64_t start = NowNs();
  RunTotals totals;
  if (!args.trace) {
    for (int episode = 0; KeepGoing(totals, start, args, 3); ++episode) {
      RunEpisode(spec, args.seed, episode, nullptr, &totals);
    }
    CheckGates(&totals);
    return OutcomeOf(totals, EndToEndMetrics(totals));
  }

  // Traced run: each episode runs plain, then again with the outside-in
  // probes (per-cycle thread CPU clocks, getrusage, transport counters).
  RunTotals untraced;
  OutsideCounters o;
  for (int episode = 0; KeepGoing(totals, start, args, 1); ++episode) {
    RunEpisode(spec, args.seed, episode, nullptr, &untraced);
    RunEpisode(spec, args.seed, episode, &o, &totals);
  }
  CheckGates(&totals);

  std::map<std::string, double> v;
  const double cycles = static_cast<double>(std::max(1L, o.cycles));
  const double updates = static_cast<double>(std::max(1L, o.updates));
  const double server_cpu_ns = o.process_cpu_ns - o.site_cpu_ns;
  v["coordinator_server.cpu_us_per_cycle"] = server_cpu_ns / cycles / 1e3;
  v["coordinator_server.wait_share"] =
      totals.measured_ns > 0 ? 1.0 - o.caller_cpu_ns / totals.measured_ns
                             : 0.0;
  v["site_client.cpu_us_per_cycle"] = o.site_cpu_ns / cycles / 1e3;
  v["proc.vol_ctx_switches_per_cycle"] =
      static_cast<double>(o.vol_switches) / cycles;
  v["proc.invol_ctx_switches_per_cycle"] =
      static_cast<double>(o.invol_switches) / cycles;
  v["socket_transport.frames_per_cycle"] =
      static_cast<double>(o.frames) / cycles;
  v["socket_transport.bytes_per_cycle"] = o.frame_bytes / cycles;
  v["socket_transport.retries"] = static_cast<double>(o.retries);
  v["failure_detector.deaths"] = static_cast<double>(o.deaths);
  v["failure_detector.live_count"] =
      o.episodes > 0 ? o.live_count_sum / o.episodes : 0.0;
  // The server's own threads (accept, readers, writer) are not visible from
  // outside: their CPU is what the named threads leave unattributed.
  const double named_cpu_ns = o.site_cpu_ns + o.caller_cpu_ns;
  v["driver.unattributed_ns_per_update"] =
      (o.process_cpu_ns - named_cpu_ns) / updates;
  v["ledger.coverage"] =
      o.process_cpu_ns > 0 ? named_cpu_ns / o.process_cpu_ns : 0.0;
  v["tracing.overhead_ratio"] =
      totals.measured_ns > 0 && untraced.updates > 0
          ? (totals.updates / totals.measured_ns) /
                (untraced.updates / untraced.measured_ns)
          : 0.0;
  v["accuracy.fn_rate"] = totals.fn_rate();
  ReplayCodec(spec, args.seed, &v, &totals);
  return OutcomeOf(totals, PerLayerMetrics(v));
}

}  // namespace sgmbench
