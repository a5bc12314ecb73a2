// The benchmark's workloads and the bookkeeping every workload shares:
// input generation, the out-of-ε-zone accuracy oracle, per-run totals and
// the end-to-end metric set.
#ifndef SGMBENCH_WORKLOAD_H_
#define SGMBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/vector.h"
#include "data/jester_like.h"
#include "functions/linf_distance.h"
#include "obs/accuracy_auditor.h"
#include "runtime/checkpoint.h"
#include "runtime/sim_transport.h"
#include "runtime/site_node.h"
#include "stats.h"

namespace sgmbench {

/// Jester-like L∞ query shared by every workload.
inline constexpr std::size_t kDim = 8;
inline constexpr std::size_t kWindow = 50;
inline constexpr double kThreshold = 5.0;

struct WorkloadSpec {
  std::string name;
  int sites = 0;
  double trace_sample_rate = 1.0;
  /// SimTransport drops 5%, duplicates 2.5% and delays ≤ 2 rounds.
  bool faults = false;
  /// An InMemoryCheckpointStore at the default snapshot interval.
  bool checkpoint = false;
  /// Real TCP CoordinatorServer + SiteClient threads instead of the sim.
  bool loopback = false;
  /// Listed in BENCHMARK.json; the others run on demand only.
  bool gated = true;
  /// Input generator load (see GeneratorConfig): the mood swing's
  /// amplitude in ratings and period in cycles, and the quirk clusters'
  /// per-site rate and size.
  double mood_amplitude = 1.0;
  int mood_period = 400;
  double quirk_rate = 0.00003;
  double quirk_cluster_fraction = 0.04;
  /// Cycles run after Initialize and before measuring (part of setup_s).
  long warmup_cycles = 0;
  /// Measured cycles per deployment. A run builds fresh deployments
  /// (episodes) until --seconds have passed, which bounds the trace log's
  /// memory and gives several set-up samples per run.
  long episode_cycles = 0;
};

/// The named workload, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);
/// Every workload: the gated ones (faulty, loopback) in BENCHMARK.json
/// order, then fleet, which runs on demand only (README.md says why).
const std::vector<WorkloadSpec>& AllWorkloads();

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Seed of one deployment of a run: every input, fault lottery and node
/// RNG of episode `episode` derives from it.
std::uint64_t EpisodeSeed(std::uint64_t run_seed, int episode);

sgm::JesterLikeConfig GeneratorConfig(const WorkloadSpec& spec,
                                      std::uint64_t episode_seed);
sgm::RuntimeConfig NodeConfig(const WorkloadSpec& spec,
                              std::uint64_t episode_seed,
                              const sgm::JesterLikeGenerator& source,
                              sgm::Telemetry* telemetry,
                              sgm::CheckpointStore* store);
sgm::SimTransportConfig FaultConfig(const WorkloadSpec& spec,
                                    std::uint64_t episode_seed);

/// The global vector of one cycle: the mean of the sites' vectors.
sgm::Vector MeanOf(const std::vector<sgm::Vector>& locals);

/// Out-of-ε-zone accuracy audit (ε = 3 × max step norm, the stress
/// harness's zone) of the coordinator's per-cycle belief against the
/// generator's ground truth. The query is L∞ drift from the last synced
/// estimate, so the oracle re-anchors whenever the coordinator completes a
/// full sync, exactly as every node does.
class Audit {
 public:
  explicit Audit(double max_step_norm);
  /// `estimate` and `full_syncs` are the coordinator's after the cycle.
  void Observe(long cycle, bool believed_above, const sgm::Vector& estimate,
               long full_syncs, const sgm::Vector& mean);
  const sgm::AccuracyAuditor::Report& report() const {
    return auditor_.report();
  }

 private:
  sgm::LInfDistance function_;
  sgm::AccuracyAuditor auditor_;
  long full_syncs_ = -1;
};

/// Everything one run accumulates over its measured cycles.
struct RunTotals {
  std::vector<double> cycle_ns;  ///< raw per-cycle wall time
  double measured_ns = 0.0;
  long updates = 0;
  /// Updates per second of each episode's measured cycles; the run reports
  /// their median, which one episode slowed by the host cannot move.
  std::vector<double> episode_rates;
  long attempted_cycles = 0;  ///< warm-up and measured
  long failed_cycles = 0;
  std::vector<double> setup_s;  ///< one per episode
  double paper_msgs = 0.0;
  double paper_bytes = 0.0;
  double wire_bytes = 0.0;
  long audited_cycles = 0;
  long out_of_zone_fn = 0;
  long deaths = 0;
  int episodes = 0;
  std::vector<std::string> gate_failures;

  /// Adds one episode's measured cycles.
  void AddMeasured(double ns, long episode_updates);
  void AddAudit(const sgm::AccuracyAuditor::Report& report);
  double fn_rate() const;
  /// Applies the gates shared by every workload; workload-specific gates
  /// append to gate_failures directly.
  void CheckAccuracyGate(double delta);
};

/// Minimum measured cycles per run: p99 needs ten samples beyond it.
inline constexpr long kMinMeasuredCycles = 1000;

/// The end-to-end metric set of BENCHMARK.json.
MetricList EndToEndMetrics(const RunTotals& totals);

/// What one invocation reports: the result line's fields plus
/// human-readable gate failures printed before it.
struct RunOutcome {
  bool correct = false;
  long attempted = 0;
  long failed = 0;
  MetricList metrics;
  std::vector<std::string> gate_failures;
};

/// Builds `totals`' outcome: correct iff no gate failed and no cycle failed.
RunOutcome OutcomeOf(const RunTotals& totals, MetricList metrics);

/// The per-layer metric set (BENCHMARK.json's per_layer list), every name
/// in a fixed order with its unit. Every workload reports every row: the
/// sim ledger's rows read 0 on loopback, the outside-in socket rows read 0
/// on the sim workloads, as do other absent values.
MetricList PerLayerMetrics(const std::map<std::string, double>& values);

/// Seconds elapsed since `start` (steady clock, in ns ticks).
double SecondsSince(std::int64_t start_ns);
std::int64_t NowNs();

}  // namespace sgmbench

#endif  // SGMBENCH_WORKLOAD_H_
