#include "gm/sgm_core.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "estimators/sampling.h"
#include "estimators/tail_bounds.h"
#include "geometry/ball.h"

namespace sgm {

double DriftScale::U(long cycles_since_sync, double epsilon_t) const {
  const double accumulated =
      max_step_norm * static_cast<double>(std::max<long>(1, cycles_since_sync));
  const double threshold_scale =
      u_threshold_factor * std::max(epsilon_t, max_step_norm);
  return std::min({accumulated, drift_norm_cap, threshold_scale});
}

Rng SiteSamplingRng(std::uint64_t seed, int site) {
  SGM_CHECK(site >= 0);
  Rng root(seed);
  for (int i = 0; i < site; ++i) root.NextUint64();  // earlier sites' forks
  return root.Fork();
}

double InclusionProbability(SamplingMode mode, double delta, double U,
                            int num_sites, double drift_norm) {
  if (mode == SamplingMode::kUniform) {
    return BernoulliSamplingProbability(delta, num_sites);
  }
  return SamplingProbability(delta, U, num_sites, drift_norm);
}

double InclusionProbabilityCV(double delta, double U, int num_sites,
                              double signed_distance) {
  return SamplingProbabilityCV(delta, U, num_sites, signed_distance);
}

TrialDraw DrawTrials(double g, int num_trials, Rng* rng) {
  TrialDraw draw;
  for (int trial = 0; trial < num_trials; ++trial) {
    const bool sampled = rng->NextBernoulli(g);
    if (trial == 0) draw.first = sampled;
    draw.any = draw.any || sampled;
  }
  return draw;
}

bool LocalAlarm(const MonitoredFunction& function, double threshold,
                const Vector& e, const Vector& drift) {
  return function.BallCrossesThreshold(Ball::LocalConstraint(e, drift),
                                       threshold);
}

double PartialEpsilon(double delta, double U, double epsilon_t) {
  return std::min(BernsteinEpsilon(delta, U), 0.5 * epsilon_t);
}

double PartialEpsilonCV(double delta, double U, double epsilon_t) {
  return std::min(McDiarmidEpsilon(delta, U), 0.5 * epsilon_t);
}

long CooldownCycles(double room, double max_step_norm) {
  return std::max<long>(0, static_cast<long>(std::floor(room / max_step_norm)));
}

PartialVerdict VetPartial(const MonitoredFunction& function, double threshold,
                          bool believes_above, const Vector& v_hat,
                          double epsilon, double max_step_norm) {
  PartialVerdict verdict;
  const bool estimate_switched =
      (function.Value(v_hat) > threshold) != believes_above;
  verdict.resolved =
      !estimate_switched &&
      !function.BallCrossesThreshold(Ball(v_hat, epsilon), threshold);
  if (verdict.resolved) {
    verdict.cooldown = CooldownCycles(
        function.DistanceToSurface(v_hat, threshold) - epsilon, max_step_norm);
  }
  return verdict;
}

}  // namespace sgm
