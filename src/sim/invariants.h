#ifndef SGM_SIM_INVARIANTS_H_
#define SGM_SIM_INVARIANTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace sgm {

/// One broken protocol invariant, with enough context to locate the exact
/// cycle of the exact run that broke it.
struct InvariantViolation {
  std::string invariant;  ///< short id, e.g. "out-of-zone-run"
  long cycle = 0;         ///< update cycle (0 = initialization)
  std::string details;    ///< human-readable evidence
};

/// Tolerances of the continuous protocol invariants. The defaults are the
/// *exact*-protocol contract (GM/BGM/CVGM): belief must match the oracle on
/// every cycle. Approximate protocols (SGM/CVSGM) widen both knobs to their
/// (ε, δ) guarantee class.
struct InvariantOptions {
  /// Belief may disagree with the oracle while the true global value sits
  /// within this distance of the threshold surface (the ε / ε_C zone).
  double zone_epsilon = 0.0;

  /// Maximum tolerated *consecutive* cycles of belief disagreement while
  /// the truth is outside the zone — the paper's self-correction bound. 0
  /// means any out-of-zone disagreement is an immediate violation.
  long max_out_of_zone_run = 0;
};

/// Lock-step invariant checker: the stress harness feeds it one observation
/// per update cycle (coordinator belief vs ground-truth oracle, plus
/// accounting snapshots) and it accumulates violations instead of aborting,
/// so a stress run reports *every* broken invariant of a seed, each tagged
/// with the cycle it first broke.
///
/// Checked invariants:
///  (a) zone: on a disagreement cycle the truth lies within zone_epsilon of
///      the threshold surface, OR
///  (b) self-correction: an out-of-zone disagreement run never exceeds
///      max_out_of_zone_run cycles;
///  (c) post-sync exactness: a cycle that completed a clean full
///      synchronization ends with belief equal to the oracle;
///  (d) accounting sanity: totals decompose (total = site + coordinator),
///      never decrease cycle-over-cycle, and bytes cover at least one
///      16-byte header per message.
class InvariantChecker {
 public:
  explicit InvariantChecker(const InvariantOptions& options);

  /// Invariants (a)+(b). `truth_surface_distance` is the oracle's exact
  /// distance of the true global vector from the threshold surface.
  void CheckBelief(long cycle, bool believes_above, bool truth_above,
                   double truth_surface_distance);

  /// Invariant (c); call only on cycles that completed a full sync with
  /// every site reporting fresh state (degraded syncs are exempt).
  void CheckPostSyncExact(long cycle, bool believes_above, bool truth_above);

  /// Invariant (d) over a cumulative accounting snapshot.
  void CheckAccounting(long cycle, long site_messages,
                       long coordinator_messages, long total_messages,
                       double total_bytes);

  /// Conservation across transport layers: two runs (or two layers of one
  /// run) that must have transmitted identical traffic. Any mismatch is a
  /// violation tagged `label`.
  void CheckTransportParity(long cycle, const std::string& label,
                            long messages_a, long messages_b,
                            long site_messages_a, long site_messages_b,
                            double bytes_a, double bytes_b);

  /// Epoch-fencing invariant: `stale_epoch_applied` is the deployment-wide
  /// cumulative count of stale-epoch messages that reached an apply path
  /// (coordinator + every site). It must be zero on every cycle — the fence
  /// drops stale messages before application.
  void CheckEpochFencing(long cycle, long stale_epoch_applied);

  /// Rejoin-convergence invariant: a site that recovered from a crash at
  /// `recovered_cycle` must be re-anchored with a current-or-newer epoch by
  /// its deadline. Call at the deadline cycle with the convergence verdict.
  void CheckRejoinConvergence(long cycle, int site, long recovered_cycle,
                              bool converged);

  /// Recovery epoch-fence invariant: a recovered coordinator's epoch must be
  /// exactly the crash-time committed epoch + 1 — less would regress (stale
  /// in-flight frames could apply), more would mean the WAL lost a committed
  /// bump. The exact-match form is the crash-consistency contract: epoch
  /// bumps are logged before their messages are sent, so the committed epoch
  /// at ANY crash point equals the in-memory epoch.
  void CheckRecoveryEpoch(long cycle, std::int64_t crash_epoch,
                          std::int64_t recovered_epoch);

  /// Recovery state invariant: the recovered coordinator's durable state
  /// must equal the oracle reconstruction (newest decodable snapshot + its
  /// committed WAL suffix) computed independently before recovery ran.
  /// `matches` is the comparison verdict; `details` names the first
  /// mismatching field when it is false.
  void CheckRecoveryState(long cycle, bool matches,
                          const std::string& details);

  /// Recovery reconvergence invariant: monitoring must resume — a full sync
  /// must complete within a bounded number of cycles after recovery. Call at
  /// the deadline with the verdict.
  void CheckRecoveryReconvergence(long cycle, long recovered_cycle,
                                  bool converged);

  /// Driver-equivalence invariant: on a fault-free network the simulator's
  /// SGM and the runtime make the same decision every cycle. `details`
  /// names the first field that differs when `agree` is false.
  void CheckDriverEquivalence(long cycle, bool agree,
                              const std::string& details);

  bool ok() const { return violations_.empty(); }
  const std::vector<InvariantViolation>& violations() const {
    return violations_;
  }

  /// Longest out-of-zone disagreement run seen so far (for calibrating
  /// max_out_of_zone_run against real workloads).
  long max_observed_run() const { return max_observed_run_; }

  /// One line per violation, for logs/CI output.
  std::string Summary() const;

 private:
  void Add(const std::string& invariant, long cycle, std::string details);

  InvariantOptions options_;
  std::vector<InvariantViolation> violations_;
  long out_of_zone_run_ = 0;
  long max_observed_run_ = 0;

  bool has_previous_accounting_ = false;
  long prev_total_messages_ = 0;
  double prev_total_bytes_ = 0.0;
};

}  // namespace sgm

#endif  // SGM_SIM_INVARIANTS_H_
