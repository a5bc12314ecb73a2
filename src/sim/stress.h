#ifndef SGM_SIM_STRESS_H_
#define SGM_SIM_STRESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/accuracy_auditor.h"
#include "sim/invariants.h"

namespace sgm {

struct Telemetry;

/// Protocols of the stress matrix. GM and BGM are exact (zero tolerated
/// disagreement); SGM and CVSGM are the paper's approximate schemes and are
/// checked against their (ε, δ) self-correction contract.
enum class StressProtocol { kGm, kBgm, kSgm, kCvsgm };

/// Threshold functions of the stress matrix: one plain norm query and one
/// reference-anchored distance query (re-anchors at every sync — the
/// paper's Jester L∞ workload).
enum class StressFunction { kL2Norm, kLinfDistance };

const char* ToString(StressProtocol protocol);
const char* ToString(StressFunction function);
bool ParseStressProtocol(const std::string& text, StressProtocol* out);
bool ParseStressFunction(const std::string& text, StressFunction* out);

/// One fully-specified stress run. Everything stochastic — the workload,
/// the protocol's coin flips, the fault schedule — derives from `seed`, so
/// this struct plus a leg name IS the replay token for any violation.
struct StressConfig {
  std::uint64_t seed = 1;
  StressProtocol protocol = StressProtocol::kSgm;
  StressFunction function = StressFunction::kL2Norm;
  int num_sites = 24;
  long cycles = 300;

  // Fault model (runtime legs; sim legs are transportless).
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
  int max_delay_rounds = 0;
  /// Per-message probability of a single wire bit flip. The v4 frame CRC
  /// turns every injected flip into a *detected* drop (never a
  /// half-interpreted frame), so this stresses the checksum path rather
  /// than the protocol: the reliability layer retransmits through it.
  double corrupt_probability = 0.0;
  /// Per-cycle probability that one random live site crashes; a crash lasts
  /// uniform-[1, max_crash_cycles] cycles, so staleness stays bounded.
  double crash_probability = 0.0;
  int max_crash_cycles = 8;
  /// Per-cycle probability that the COORDINATOR crashes (runtime legs
  /// only). Half the crashes fire at the cycle boundary, half are armed to
  /// fire inside the next sync cascade's message burst. The coordinator
  /// stays down uniform-[1, max_coord_crash_cycles] cycles, then recovers
  /// from its checkpoint store — with seeded torn-tail / torn-snapshot
  /// storage faults injected first — and the recovery invariants (exact
  /// epoch fence, state == oracle reconstruction, bounded reconvergence)
  /// are checked on the spot.
  double coord_crash_probability = 0.0;
  int max_coord_crash_cycles = 4;
  /// Per-cycle probability that one random live site stalls — goes silent
  /// without losing state for uniform-[1, max_stall_cycles] cycles, the
  /// deterministic stand-in for a SIGSTOP'd or scheduling-starved process.
  /// Stalled sites are reported to the coordinator's barrier-deadline path
  /// each cycle (RuntimeDriver::ReportBarrierLag), so consecutive stalls
  /// drive the lagging → quarantined → rejoined machinery rather than the
  /// heartbeat-death path alone.
  double stall_probability = 0.0;
  int max_stall_cycles = 5;

  // Invariant tolerances; negative = auto (exact protocols get zero
  // tolerance, approximate ones their guarantee-class defaults, widened
  // under fault injection).
  double zone_epsilon = -1.0;
  long max_out_of_zone_run = -1;

  /// Forced-violation demo: collapse both tolerances to zero so the first
  /// benign disagreement cycle of an approximate protocol trips the checker
  /// — proving that a violation prints a deterministically replaying seed.
  bool sabotage_tolerance = false;

  /// Online accuracy audit: classify every cycle TP/FP/FN/TN against the
  /// oracle and check the ε / ε_C bound (see obs/accuracy_auditor.h). The
  /// audit is a pure observer — it shares the invariant checker's resolved
  /// tolerances by default and never changes the run.
  bool audit = false;
  /// Audit tolerance overrides; negative = inherit the invariant checker's
  /// resolved zone_epsilon / max_out_of_zone_run. Setting both to 0 is the
  /// negative-test configuration: any out-of-zone disagreement fires.
  double audit_epsilon = -1.0;
  long audit_max_run = -1;

  /// Optional observability sink (nullable, not owned) threaded through to
  /// every component of the leg. Protocol decisions, fault injection and
  /// paper accounting are identical with or without it; trace timestamps
  /// are logical, so one seed yields one byte-identical trace. The parity
  /// leg ignores it (two drivers in one process would conflate counters).
  Telemetry* telemetry = nullptr;
  /// Head-based trace sampling rate (see RuntimeConfig::trace_sample_rate):
  /// 1.0 keeps the byte-identical full trace; lower rates drop unsampled
  /// cascades and noise events from the trace only — protocol behavior,
  /// counters and the audit plane are unchanged.
  double trace_sample_rate = 1.0;
};

/// Outcome of one stress leg.
struct StressReport {
  StressConfig config;
  std::string leg;  ///< "sim", "runtime", "parity" or "equivalence"
  std::vector<InvariantViolation> violations;
  long cycles = 0;
  long fn_cycles = 0;       ///< cycles with belief != oracle truth
  long full_syncs = 0;
  /// Runtime legs only: syncs that fell back to cached state because a
  /// fault swallowed part of the collection round.
  long degraded_syncs = 0;
  long max_observed_run = 0;  ///< longest out-of-zone disagreement run
  long belief_flips = 0;  ///< equivalence leg: cycles the belief changed
  // Runtime legs only: reliability-layer activity (zero on faultless runs).
  long retransmissions = 0;     ///< ack-timeout retransmissions sent
  long rejoins_granted = 0;     ///< coordinator rejoin grants issued
  long stale_epoch_drops = 0;   ///< stale-epoch messages fenced off
  // Runtime legs with coordinator crash injection only.
  long coordinator_crashes = 0;   ///< crash/recover round trips survived
  long wal_records_replayed = 0;  ///< WAL records replayed across recoveries
  long snapshots_discarded = 0;   ///< torn snapshots skipped (fallback hits)
  // Runtime legs with stall injection only (bounded-staleness accounting).
  long degraded_cycles = 0;   ///< barrier cycles closed over a partial quorum
  long lag_quarantines = 0;   ///< kLagging verdicts issued by the detector
  /// Accuracy audit outcome (all-zero unless StressConfig::audit was set).
  AccuracyAuditor::Report audit;
  /// Shell command replaying this exact leg; non-empty iff violations.
  std::string replay_command;

  bool ok() const { return violations.empty(); }
  /// Violations plus the replay command, one block per report.
  std::string Summary() const;
};

/// Sim leg: one simulator protocol against the lock-step oracle (exact
/// global average each cycle) on the seeded ratings workload, checking the
/// zone / self-correction / post-sync / accounting invariants every cycle.
StressReport RunSimStress(const StressConfig& config);

/// Runtime leg: the deployment-shaped SGM (SiteNode/CoordinatorNode) over a
/// seeded fault-injecting SimTransport — drops, duplicates, bounded delays,
/// site crash/recovery — against the same lock-step oracle. The oracle
/// freezes a crashed site's vector (it observes nothing until recovery).
/// `config.protocol` must be kSgm: the message-passing runtime implements
/// the sampling protocol.
StressReport RunRuntimeStress(const StressConfig& config);

/// Parity leg: the identical runtime run wired once over a plain
/// InMemoryBus and once over a faults-off SimTransport. Message/byte
/// accounting and the coordinator's end state (belief, estimate, sync
/// counts) must agree exactly on every cycle — the conservation-across-
/// transport-layers invariant.
StressReport RunTransportParity(const StressConfig& config);

/// Equivalence leg: the simulator's SGM (escalation knobs off — the runtime
/// has none) and a fault-free RuntimeDriver, both built from `config`'s
/// seed, fed the same workload. Every cycle they must agree exactly on
/// belief, sync kind (none / partial / full), first-trial site set and
/// estimate; the first divergence is reported with its cycle and the leg
/// stops there. Proves both drivers run one decision core (gm/sgm_core.h).
StressReport RunDriverEquivalence(const StressConfig& config);

/// The full matrix for one master seed: {GM, BGM, SGM, CVSGM} × {L2, L∞}
/// sim legs, runtime legs under increasingly hostile fault profiles (for
/// both functions), a parity leg, and an equivalence leg per function.
/// Sub-seeds are derived per leg so the legs stay independent. With `audit`
/// the accuracy auditor rides along on every sim/runtime leg (the parity
/// and equivalence legs have no oracle to audit against).
/// With `coord_crash > 0` every runtime leg additionally injects
/// coordinator crashes at that per-cycle probability (downtime bounded by
/// `coord_down`) and checks the recovery invariants.
std::vector<StressReport> RunStressSuite(std::uint64_t seed,
                                         bool audit = false,
                                         double coord_crash = 0.0,
                                         int coord_down = 4);

/// The one-command replay line printed alongside violations, e.g.
/// `dst_stress --leg=sim --protocol=SGM --function=l2 --seed=77 ...`.
std::string FormatReplayCommand(const StressConfig& config,
                                const std::string& leg);

}  // namespace sgm

#endif  // SGM_SIM_STRESS_H_
