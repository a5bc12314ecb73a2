#include "gm/sgm.h"

#include "core/check.h"
#include "estimators/horvitz_thompson.h"
#include "estimators/sampling.h"

namespace sgm {

SamplingGeometricMonitor::SamplingGeometricMonitor(
    const MonitoredFunction& function, double threshold, double max_step_norm,
    const SgmOptions& options)
    : ProtocolBase(function, threshold, max_step_norm), options_(options) {
  SGM_CHECK_MSG(options.delta > 0.0 && options.delta < 1.0,
                "delta must lie in (0, 1)");
  SGM_CHECK(options.num_trials >= 0);
}

std::string SamplingGeometricMonitor::name() const {
  if (options_.mode == SamplingMode::kUniform) return "Bernoulli";
  return effective_trials_ > 1 ? "M-SGM" : "SGM";
}

void SamplingGeometricMonitor::AfterSync(
    const std::vector<Vector>& /*local_vectors*/, Metrics* /*metrics*/) {
  if (!site_rngs_.empty()) return;  // one-time setup on the first sync
  site_rngs_.reserve(num_sites_);
  for (int i = 0; i < num_sites_; ++i) {
    site_rngs_.push_back(SiteSamplingRng(options_.seed, i));
  }
  effective_trials_ = options_.num_trials > 0
                          ? options_.num_trials
                          : NumTrials(options_.delta, num_sites_);
}

CycleOutcome SamplingGeometricMonitor::MonitorCycle(
    const std::vector<Vector>& local_vectors, Metrics* metrics) {
  CycleOutcome outcome;
  ++absolute_cycle_;
  first_trial_.clear();
  first_trial_g_.clear();
  if (absolute_cycle_ <= muted_until_cycle_) {
    // Certified cooldown: the average provably cannot have crossed yet.
    consecutive_alarms_ = 0;
    return outcome;
  }
  const double U = CurrentU();

  // Monitoring phase: every site decides its own sample membership; sampled
  // sites (any trial) run the un-scaled GM ball test. The first-trial sample
  // K1 is remembered for the partial synchronization probe.
  bool alarm = false;
  for (int i = 0; i < num_sites_; ++i) {
    const Vector drift = Drift(i, local_vectors);
    const double g = InclusionProbability(options_.mode, options_.delta, U,
                                          num_sites_, drift.Norm());
    const TrialDraw draw = DrawTrials(g, effective_trials_, &site_rngs_[i]);
    if (draw.first) {
      first_trial_.push_back(i);
      first_trial_g_.push_back(g);
    }
    // Once alarmed, later sites still draw so RNG use stays uniform.
    if (draw.any && !alarm) {
      alarm = LocalAlarm(*function_, threshold_, e_, drift);
    }
  }
  if (!alarm) {
    consecutive_alarms_ = 0;
    return outcome;
  }
  outcome.local_alarm = true;
  ++consecutive_alarms_;

  // Re-anchor at once instead of probing (see SgmOptions): the ablation's
  // sampling-only mode, sustained back-to-back alarm pressure, or a
  // would-be probe already a sizable fraction of the network.
  if (options_.always_full_sync ||
      (options_.escalate_after_consecutive_alarms > 0 &&
       consecutive_alarms_ >= options_.escalate_after_consecutive_alarms) ||
      (options_.escalate_probe_fraction > 0.0 &&
       static_cast<double>(first_trial_.size()) >=
           options_.escalate_probe_fraction *
               static_cast<double>(num_sites_))) {
    consecutive_alarms_ = 0;
    FullSync(local_vectors, metrics, /*already_collected=*/0);
    outcome.full_sync = true;
    return outcome;
  }

  // Partial synchronization: probe only K1, form the HT estimate, check the
  // ε-ball. Cost: 1 broadcast request + |K1| drift vectors.
  metrics->AddBroadcast(0);
  metrics->AddSiteMessages(static_cast<long>(first_trial_.size()), dim_);
  HtVectorEstimator estimator(num_sites_, dim_);
  for (std::size_t k = 0; k < first_trial_.size(); ++k) {
    estimator.AddSample(Drift(first_trial_[k], local_vectors),
                        first_trial_g_[k]);
  }
  const PartialVerdict verdict = VetPartial(
      *function_, threshold_, believes_above_, estimator.Estimate(e_),
      PartialEpsilon(options_.delta, U, epsilon_T()), max_step_norm_);
  if (verdict.resolved) {
    // High-probability FP: dismiss without touching the other N − |K| sites.
    outcome.partial_resolved = true;
    metrics->OnPartialResolution();
    if (options_.certified_cooldown && verdict.cooldown > 0) {
      muted_until_cycle_ = absolute_cycle_ + verdict.cooldown;
      metrics->AddBroadcast(1);  // the coordinator announces the mute
    }
    return outcome;
  }

  consecutive_alarms_ = 0;
  FullSync(local_vectors, metrics,
           /*already_collected=*/static_cast<int>(first_trial_.size()));
  outcome.full_sync = true;
  return outcome;
}

}  // namespace sgm
