#include "workload.h"

#include <algorithm>
#include <chrono>

#include "core/rng.h"

namespace sgmbench {

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> all;
    WorkloadSpec faulty;
    faulty.name = "faulty";
    faulty.sites = 128;
    faulty.trace_sample_rate = 1.0;
    faulty.faults = true;
    faulty.checkpoint = true;
    faulty.warmup_cycles = 150;
    faulty.episode_cycles = 250;
    // A swing large enough that nodes which stopped syncing would miss
    // crossings (the FN gate can fire), slow enough that 60% of cycles stay
    // quiet and the median cycle sits inside the quiet mode.
    faulty.mood_amplitude = 2.0;
    faulty.mood_period = 1600;
    all.push_back(faulty);

    WorkloadSpec loopback;
    loopback.name = "loopback";
    loopback.sites = 4;
    loopback.trace_sample_rate = 0.1;
    loopback.loopback = true;
    loopback.warmup_cycles = 200;
    loopback.episode_cycles = 1000;
    all.push_back(loopback);

    WorkloadSpec fleet;
    fleet.name = "fleet";
    fleet.gated = false;
    fleet.sites = 2048;
    fleet.trace_sample_rate = 0.1;
    fleet.warmup_cycles = 100;
    fleet.episode_cycles = 300;
    // Ten times the default quirk rate in clusters a tenth the size (8
    // sites): the same quirky share of sites, arriving often enough (0.6
    // per cycle) that the partial-sync load averages out within one run.
    fleet.mood_amplitude = 2.5;
    fleet.quirk_rate = 0.0003;
    fleet.quirk_cluster_fraction = 0.004;
    all.push_back(fleet);
    return all;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::uint64_t EpisodeSeed(std::uint64_t run_seed, int episode) {
  return sgm::DeriveSeed(run_seed, 7000 + static_cast<std::uint64_t>(episode));
}

sgm::JesterLikeConfig GeneratorConfig(const WorkloadSpec& spec,
                                      std::uint64_t episode_seed) {
  sgm::JesterLikeConfig config;
  config.num_sites = spec.sites;
  config.window = kWindow;
  config.num_buckets = kDim;
  // A load every seed shares instead of rare regime events: a mood swing
  // with a fixed period moves ratings across bucket edges on a schedule,
  // and quirk clusters add local violations. The generator's exponential
  // regime shifts (about one per 1500 cycles) are off: whether a run met
  // zero or two of them moved the paper cost per update by a third
  // between seeds.
  config.mood_amplitude = spec.mood_amplitude;
  config.mood_period = spec.mood_period;
  config.shift_magnitude = 0.0;
  config.quirk_rate = spec.quirk_rate;
  config.quirk_cluster_fraction = spec.quirk_cluster_fraction;
  config.seed = sgm::DeriveSeed(episode_seed, 101);
  return config;
}

sgm::RuntimeConfig NodeConfig(const WorkloadSpec& spec,
                              std::uint64_t episode_seed,
                              const sgm::JesterLikeGenerator& source,
                              sgm::Telemetry* telemetry,
                              sgm::CheckpointStore* store) {
  sgm::RuntimeConfig node;
  node.threshold = kThreshold;
  node.max_step_norm = source.max_step_norm();
  node.drift_norm_cap = source.max_drift_norm();
  node.seed = sgm::DeriveSeed(episode_seed, 202);
  node.reliability.seed = sgm::DeriveSeed(episode_seed, 404);
  node.telemetry = telemetry;
  node.trace_sample_rate = spec.trace_sample_rate;
  node.checkpoint_store = store;
  return node;
}

sgm::SimTransportConfig FaultConfig(const WorkloadSpec& spec,
                                    std::uint64_t episode_seed) {
  sgm::SimTransportConfig config;
  config.seed = sgm::DeriveSeed(episode_seed, 303);
  config.num_sites = spec.sites;
  if (spec.faults) {
    config.drop_probability = 0.05;
    config.duplicate_probability = 0.025;
    config.max_delay_rounds = 2;
  }
  return config;
}

sgm::Vector MeanOf(const std::vector<sgm::Vector>& locals) {
  sgm::Vector mean(locals.front().dim());
  for (const sgm::Vector& v : locals) mean += v;
  mean /= static_cast<double>(locals.size());
  return mean;
}

namespace {

sgm::AccuracyAuditorConfig AuditConfig(double max_step_norm) {
  sgm::AccuracyAuditorConfig config;
  config.epsilon = 3.0 * max_step_norm;
  config.max_out_of_zone_run = 150;
  return config;
}

}  // namespace

Audit::Audit(double max_step_norm)
    : function_(sgm::Vector(kDim)), auditor_(AuditConfig(max_step_norm)) {}

void Audit::Observe(long cycle, bool believed_above,
                    const sgm::Vector& estimate, long full_syncs,
                    const sgm::Vector& mean) {
  if (full_syncs != full_syncs_) {
    full_syncs_ = full_syncs;
    function_.OnSync(estimate);
  }
  sgm::AccuracyAuditor::CycleSample sample;
  sample.cycle = cycle;
  sample.believed_above = believed_above;
  sample.truth_value = function_.Value(mean);
  sample.truth_above = sample.truth_value > kThreshold;
  sample.estimate_value = function_.Value(estimate);
  sample.surface_distance = function_.DistanceToSurface(mean, kThreshold);
  auditor_.ObserveCycle(sample);
}

void RunTotals::AddMeasured(double ns, long episode_updates) {
  measured_ns += ns;
  updates += episode_updates;
  if (ns > 0.0) {
    episode_rates.push_back(static_cast<double>(episode_updates) * 1e9 / ns);
  }
}

void RunTotals::AddAudit(const sgm::AccuracyAuditor::Report& report) {
  audited_cycles += report.cycles;
  out_of_zone_fn += report.out_of_zone_false_negatives;
}

double RunTotals::fn_rate() const {
  return audited_cycles > 0 ? static_cast<double>(out_of_zone_fn) /
                                  static_cast<double>(audited_cycles)
                            : 0.0;
}

void RunTotals::CheckAccuracyGate(double delta) {
  if (audited_cycles == 0) {
    gate_failures.push_back("no audited cycles");
  } else if (fn_rate() > delta + 0.01) {
    gate_failures.push_back("fn_rate " + std::to_string(fn_rate()) +
                            " > delta+0.01");
  }
}

MetricList EndToEndMetrics(const RunTotals& totals) {
  MetricList m;
  const double updates = static_cast<double>(totals.updates);
  m.Add("updates_per_s", Median(totals.episode_rates), "1/s");
  double p50 = 0.0;
  double p99 = 0.0;
  ExactPercentile(totals.cycle_ns, 0.50, &p50);
  ExactPercentile(totals.cycle_ns, 0.99, &p99);
  m.Add("cycle_p50_us", p50 / 1e3, "us");
  m.Add("cycle_p99_us", p99 / 1e3, "us");
  m.Add("paper_msgs_per_update", updates > 0 ? totals.paper_msgs / updates : 0,
        "msg/update");
  m.Add("paper_bytes_per_update",
        updates > 0 ? totals.paper_bytes / updates : 0, "B/update");
  m.Add("wire_bytes_per_update",
        updates > 0 ? totals.wire_bytes / updates : 0, "B/update");
  m.Add("fn_free_ratio", 1.0 - totals.fn_rate(), "ratio");
  m.Add("setup_s", Median(totals.setup_s), "s");
  m.Add("peak_rss_mib", PeakRssMib(), "MiB");
  return m;
}

RunOutcome OutcomeOf(const RunTotals& totals, MetricList metrics) {
  RunOutcome outcome;
  outcome.attempted = std::max(1L, totals.attempted_cycles);
  outcome.failed =
      totals.failed_cycles + static_cast<long>(totals.gate_failures.size());
  outcome.correct = outcome.failed == 0;
  outcome.metrics = std::move(metrics);
  outcome.gate_failures = totals.gate_failures;
  return outcome;
}

MetricList PerLayerMetrics(const std::map<std::string, double>& values) {
  struct Row {
    const char* name;
    const char* unit;
  };
  static const Row kTable[] = {
      {"reliable_transport.send.self_ns_per_update", "ns/update"},
      {"reliable_transport.on_deliver.self_ns_per_update", "ns/update"},
      {"reliable_transport.advance_round.self_ns_per_update", "ns/update"},
      {"reliable_transport.allocs_per_update", "count/update"},
      {"reliable_transport.retransmits_per_update", "msg/update"},
      {"reliable_transport.dedup_drops_per_update", "msg/update"},
      {"reliable_transport.acks_per_update", "msg/update"},
      {"reliable_transport.useful_ratio", "ratio"},
      {"transport.bus.self_ns_per_update", "ns/update"},
      {"transport.msgs_per_update", "msg/update"},
      {"sim_transport.self_ns_per_update", "ns/update"},
      {"site_node.observe.self_ns_per_update", "ns/update"},
      {"site_node.on_message.self_ns_per_update", "ns/update"},
      {"coordinator_node.begin_cycle.self_ns_per_update", "ns/update"},
      {"coordinator_node.on_message.self_ns_per_update", "ns/update"},
      {"coordinator_node.on_quiescent.self_ns_per_update", "ns/update"},
      {"coordinator_node.drift_reports_per_partial", "msg/partial"},
      {"coordinator_node.sample_vs_sqrt_n", "ratio"},
      {"coordinator_node.partial_success_ratio", "ratio"},
      {"checkpoint.self_ns_per_update", "ns/update"},
      {"checkpoint.bytes_per_update", "B/update"},
      {"obs.publish_metrics.self_ns_per_update", "ns/update"},
      {"obs.trace.events_per_update", "count/update"},
      {"obs.trace.recorded_per_update", "count/update"},
      {"obs.allocs_per_update", "count/update"},
      {"failure_detector.deaths", "count"},
      {"failure_detector.live_count", "count"},
      {"coordinator_server.cpu_us_per_cycle", "us/cycle"},
      {"coordinator_server.wait_share", "ratio"},
      {"site_client.cpu_us_per_cycle", "us/cycle"},
      {"proc.vol_ctx_switches_per_cycle", "count/cycle"},
      {"proc.invol_ctx_switches_per_cycle", "count/cycle"},
      {"socket_transport.frames_per_cycle", "count/cycle"},
      {"socket_transport.bytes_per_cycle", "B/cycle"},
      {"socket_transport.retries", "count"},
      {"serialization.encode_ns_per_msg", "ns/msg"},
      {"serialization.decode_ns_per_msg", "ns/msg"},
      {"serialization.bytes_per_msg", "B/msg"},
      {"driver.unattributed_ns_per_update", "ns/update"},
      {"driver.allocs_per_update", "count/update"},
      {"tracing.self_ns_per_update", "ns/update"},
      {"ledger.coverage", "ratio"},
      {"tracing.overhead_ratio", "ratio"},
      {"accuracy.fn_rate", "ratio"},
      {"parity.mismatched_episodes", "count"},
  };
  MetricList m;
  for (const Row& row : kTable) {
    const auto it = values.find(row.name);
    m.Add(row.name, it == values.end() ? 0.0 : it->second, row.unit);
  }
  return m;
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

}  // namespace sgmbench
