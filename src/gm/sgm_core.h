#ifndef SGM_GM_SGM_CORE_H_
#define SGM_GM_SGM_CORE_H_

#include <cstdint>
#include <limits>

#include "core/rng.h"
#include "core/vector.h"
#include "functions/monitored_function.h"

namespace sgm {

/// The SGM decision core: every rule of Sections 2–3 that decides what a
/// site or the coordinator does next, written once and called by both the
/// simulator protocols (gm/sgm, gm/cvsgm) and the runtime nodes
/// (runtime/site_node, runtime/coordinator_node). On a fault-free network
/// the two therefore decide identically, bit for bit (DESIGN.md §12).
/// Every function is pure; the only state is the per-site sampling stream
/// the caller owns.

/// How sites compute their inclusion probabilities.
enum class SamplingMode {
  /// g_i = ‖Δv_i‖·ln(1/δ)/(U·√N) — the paper's Equation-4 function.
  kDriftWeighted,
  /// g = ln(1/δ)/√N for everyone — the Section-6.5 Bernoulli baseline.
  kUniform,
};

/// The inputs of U(t), the drift-norm scale of Section 3 that every node
/// derives without communication from its own sync clock and the ε_T the
/// coordinator broadcast with the last estimate.
struct DriftScale {
  /// Per-cycle drift-step bound (Example 3's accumulation pattern).
  double max_step_norm = 1.0;
  /// A-priori ‖Δv_i‖ cap (√2·window for sliding windows; +inf if unknown).
  double drift_norm_cap = std::numeric_limits<double>::infinity();
  /// β of the U ≤ β·ε_T ceiling.
  double u_threshold_factor = 6.0;

  /// U(t) = min(max_step·cycles, cap, β·ε_T): drifts cannot have grown
  /// faster than one step per cycle (Example 3), nor past the a-priori cap,
  /// and β·ε_T is the paper's third U guidance, which Lemma 3's final
  /// P_FN = O(δ^{|Z|M/√N}) bound instantiates — it scales probe sizes to
  /// how dangerous a drift is rather than to elapsed time. The cycle count
  /// and ε_T are floored at one step, so U never degenerates to zero.
  double U(long cycles_since_sync, double epsilon_t) const;
};

/// Site `site`'s sampling stream: the (site + 1)-th Fork() of Rng(seed),
/// i.e. the stream the simulator hands site `site` when it forks one child
/// per site in id order. A pure function of (seed, site), so a site process
/// derives its own stream without knowing anyone else's; O(site) steps of
/// the root generator (≈ 8M steps for all of a 4096-site fleet).
Rng SiteSamplingRng(std::uint64_t seed, int site);

/// g_i of the given scheme, clamped to [0, 1] (Equation 4 / Section 6.5).
double InclusionProbability(SamplingMode mode, double delta, double U,
                            int num_sites, double drift_norm);

/// g_i^C = |d_C(e + Δv_i)|·ln(1/δ)/(U·√N), clamped to [0, 1] (Equation 9).
double InclusionProbabilityCV(double delta, double U, int num_sites,
                              double signed_distance);

/// One cycle's M independent coin flips of a site with probability `g`.
struct TrialDraw {
  bool first = false;  ///< sampled in trial 1 (the partial-sync probe set)
  bool any = false;    ///< sampled in some trial (arms the local test)
};

/// Draws all `num_trials` coins from `rng`, even after a hit, so a site's
/// stream advances identically whatever it decides.
TrialDraw DrawTrials(double g, int num_trials, Rng* rng);

/// The GM local test: does the ball B(e + Δv/2, ‖Δv‖/2) reach the threshold
/// surface? SGM runs it on sampled sites only (Lemma 2); GM-family monitors
/// run it everywhere.
bool LocalAlarm(const MonitoredFunction& function, double threshold,
                const Vector& e, const Vector& drift);

/// ε of the partial check: the Vector Bernstein ε (Equation 4), held to half
/// the room between e and the surface. With U tied to ε_T this keeps the
/// ε-ball check decisive — it escalates when the estimate has consumed a
/// constant fraction of its slack, not whenever enough cycles have passed.
double PartialEpsilon(double delta, double U, double epsilon_t);

/// ε_C of the revised 1-d scheme: McDiarmid (Equation 9), held to half the
/// e-to-surface room like PartialEpsilon; ε_C ≤ ε keeps CVSGM's
/// tighter-error advantage.
double PartialEpsilonCV(double delta, double U, double epsilon_t);

/// Cycles of certified alarm cooldown: the true average moves at most
/// max_step_norm per cycle, so with `room` distance to spare it cannot
/// cross for ⌊room / max_step_norm⌋ cycles. Never negative.
long CooldownCycles(double room, double max_step_norm);

/// Outcome of the partial synchronization's ε-ball check.
struct PartialVerdict {
  /// v̂ kept the believed side and B(v̂, ε) clears the surface: the alarm is
  /// a high-probability false positive, dismissed at O(√N) cost.
  bool resolved = false;
  /// When resolved, the certified mute ⌊(D(v̂) − ε)/max_step⌋ (D = distance
  /// to the surface); announced only when positive.
  long cooldown = 0;
};

/// Vets an alarm from the HT estimate `v_hat`: escalate to a full sync when
/// the estimate switched sides or its ε-ball crosses the surface.
PartialVerdict VetPartial(const MonitoredFunction& function, double threshold,
                          bool believes_above, const Vector& v_hat,
                          double epsilon, double max_step_norm);

}  // namespace sgm

#endif  // SGM_GM_SGM_CORE_H_
