// The simulated-transport workloads (fleet, faulty): the untraced run over
// sgm::RuntimeDriver and the traced run over the benchmark's own copy of
// sgm::RuntimeDriver's route-to-quiescence loop.
#ifndef SGMBENCH_SIM_BENCH_H_
#define SGMBENCH_SIM_BENCH_H_

#include <cstdint>
#include <vector>

#include "ledger.h"
#include "workload.h"

namespace sgmbench {

/// What the coordinator decided over one deployment: the traced harness
/// must reproduce the untraced driver's decisions exactly.
struct Decisions {
  std::vector<char> belief;  ///< per cycle, warm-up included
  long full_syncs = 0;
  long partial_resolutions = 0;
  long paper_msgs = 0;
  bool operator==(const Decisions&) const = default;
};

/// Program counters summed over the traced run's measured cycles.
struct TracedCounters {
  long updates = 0;
  long cycles = 0;
  long retransmissions = 0;
  long duplicates_suppressed = 0;
  long acks = 0;
  long on_deliver_calls = 0;
  long fresh_deliveries = 0;
  long bus_msgs = 0;
  long trace_events = 0;
  long trace_recorded = 0;
  double checkpoint_bytes = 0.0;
  long drift_reports = 0;
  long probes = 0;
  long partial_resolutions = 0;
  long deaths = 0;
  double live_count_sum = 0.0;
  int episodes = 0;
};

/// One deployment through sgm::RuntimeDriver: set-up, warm-up, measured
/// cycles. Adds to `totals`, fills `decisions`.
void RunDriverEpisode(const WorkloadSpec& spec, std::uint64_t run_seed,
                      int episode, RunTotals* totals, Decisions* decisions);

/// The same deployment through the traced harness, charging every measured
/// cycle's time and allocations to `ledger` and its counters to `counters`.
void RunTracedEpisode(const WorkloadSpec& spec, std::uint64_t run_seed,
                      int episode, Ledger* ledger, TracedCounters* counters,
                      RunTotals* totals, Decisions* decisions);

/// Times EncodeMessage/DecodeMessage over `spec`'s message mix and writes
/// serialization.{encode,decode}_ns_per_msg and bytes_per_msg to `values`.
/// The mix is what the same deployment puts on the sim wire (faults, acks
/// and retransmits included), plus for loopback the socket tier's per-cycle
/// session control (cycle begin, barrier, one barrier ack per site). A
/// frame that does not round-trip fails a gate in `totals`.
void ReplayCodec(const WorkloadSpec& spec, std::uint64_t run_seed,
                 std::map<std::string, double>* values, RunTotals* totals);

/// ledger.coverage: the named layers' share of the traced wall time, the
/// tracer's own calibrated cost excluded.
double LedgerCoverage(const Ledger::Totals& totals);

/// Below this coverage too much of a traced cycle runs outside every span
/// (in the benchmark's loop or an unwrapped call) to trust the split.
inline constexpr double kMinLedgerCoverage = 0.9;

/// Fails a gate in `totals` when `coverage` is below kMinLedgerCoverage.
void CheckCoverageGate(double coverage, RunTotals* totals);

/// Runs a sim workload for args.seconds: end-to-end metrics untraced, or
/// with args.trace the parity-checked per-layer ledger.
RunOutcome RunSimWorkload(const WorkloadSpec& spec, const RunArgs& args);

}  // namespace sgmbench

#endif  // SGMBENCH_SIM_BENCH_H_
