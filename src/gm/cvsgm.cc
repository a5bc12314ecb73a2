#include "gm/cvsgm.h"

#include "core/check.h"
#include "estimators/horvitz_thompson.h"
#include "estimators/sampling.h"
#include "gm/sgm_core.h"

namespace sgm {

CvSamplingMonitor::CvSamplingMonitor(const MonitoredFunction& function,
                                     double threshold, double max_step_norm,
                                     const CvsgmOptions& options)
    : ConvexSafeZoneMonitor(function, threshold, max_step_norm, options.cv),
      options_(options) {
  SGM_CHECK_MSG(options.delta > 0.0 && options.delta < 1.0,
                "delta must lie in (0, 1)");
  SGM_CHECK(options.num_trials >= 0);
}

void CvSamplingMonitor::AfterSync(const std::vector<Vector>& local_vectors,
                                  Metrics* metrics) {
  ConvexSafeZoneMonitor::AfterSync(local_vectors, metrics);
  if (!site_rngs_.empty()) return;
  site_rngs_.reserve(num_sites_);
  for (int i = 0; i < num_sites_; ++i) {
    site_rngs_.push_back(SiteSamplingRng(options_.seed, i));
  }
  effective_trials_ = options_.num_trials > 0
                          ? options_.num_trials
                          : NumTrialsCV(options_.delta, num_sites_);
}

CycleOutcome CvSamplingMonitor::MonitorCycle(
    const std::vector<Vector>& local_vectors, Metrics* metrics) {
  CycleOutcome outcome;
  ++absolute_cycle_;
  if (absolute_cycle_ <= muted_until_cycle_) {
    consecutive_alarms_ = 0;
    return outcome;
  }
  const double U = CurrentU();

  // Monitoring phase in 1-d: sampled sites check the sign of d_C.
  std::vector<double> distances(num_sites_);
  std::vector<int> first_trial;
  std::vector<double> first_trial_g;
  bool alarm = false;
  for (int i = 0; i < num_sites_; ++i) {
    const Vector position = e_ + Drift(i, local_vectors);
    distances[i] = zone_->SignedDistance(position);
    const double g =
        InclusionProbabilityCV(options_.delta, U, num_sites_, distances[i]);
    const TrialDraw draw = DrawTrials(g, effective_trials_, &site_rngs_[i]);
    if (draw.first) {
      first_trial.push_back(i);
      first_trial_g.push_back(g);
    }
    if (draw.any && distances[i] >= 0.0) alarm = true;
  }
  if (!alarm) {
    consecutive_alarms_ = 0;
    return outcome;
  }
  outcome.local_alarm = true;
  ++consecutive_alarms_;

  // Sustained alarm pressure or drift saturation: re-anchor instead of
  // probing (see CvsgmOptions).
  if ((options_.escalate_after_consecutive_alarms > 0 &&
       consecutive_alarms_ >= options_.escalate_after_consecutive_alarms) ||
      (options_.escalate_probe_fraction > 0.0 &&
       static_cast<double>(first_trial.size()) >=
           options_.escalate_probe_fraction *
               static_cast<double>(num_sites_))) {
    consecutive_alarms_ = 0;
    FullSync(local_vectors, metrics, /*already_collected=*/0);
    outcome.full_sync = true;
    return outcome;
  }

  // 1. Partial probe: first-trial scalars + HT estimate D̂_C.
  metrics->AddBroadcast(0);
  metrics->AddSiteMessages(static_cast<long>(first_trial.size()),
                           /*doubles_each=*/1);
  HtScalarEstimator estimator(num_sites_);
  for (std::size_t k = 0; k < first_trial.size(); ++k) {
    estimator.AddSample(distances[first_trial[k]], first_trial_g[k]);
  }
  const double d_hat = estimator.Estimate();
  const double epsilon_c = PartialEpsilonCV(options_.delta, U, epsilon_T());
  if (d_hat + epsilon_c <= 0.0) {
    outcome.partial_resolved = true;
    last_alarm_reached_stage2_ = false;
    metrics->OnPartialResolution();
    if (options_.certified_cooldown) {
      const long mute = CooldownCycles(-d_hat - epsilon_c, max_step_norm_);
      if (mute > 0) {
        muted_until_cycle_ = absolute_cycle_ + mute;
        metrics->AddBroadcast(1);
      }
    }
    return outcome;
  }

  // Two alarms in a row needing the all-sites scalar collection: the 1-d
  // evidence is persistently inconclusive, and each stage-2 round already
  // costs N messages — re-anchor instead (same cost, resets every drift).
  if (last_alarm_reached_stage2_) {
    last_alarm_reached_stage2_ = false;
    consecutive_alarms_ = 0;
    FullSync(local_vectors, metrics, /*already_collected=*/0);
    outcome.full_sync = true;
    return outcome;
  }
  last_alarm_reached_stage2_ = true;

  // 2. Preliminary full check, still 1-d: everyone else ships one scalar.
  metrics->AddSiteMessages(
      static_cast<long>(num_sites_) - static_cast<long>(first_trial.size()),
      /*doubles_each=*/1);
  double exact_sum = 0.0;
  for (int i = 0; i < num_sites_; ++i) exact_sum += distances[i];
  const double exact_dc = exact_sum / static_cast<double>(num_sites_);
  if (exact_dc < 0.0) {
    // Corollary 1: the global average is certainly inside C — an FP
    // resolved without any d-dimensional transmission. The exact D_C also
    // certifies a mute with no δ-qualification at all.
    outcome.resolved_1d = true;
    metrics->OnOneDResolution();
    if (options_.certified_cooldown) {
      const long mute = CooldownCycles(-exact_dc, max_step_norm_);
      if (mute > 0) {
        muted_until_cycle_ = absolute_cycle_ + mute;
        metrics->AddBroadcast(1);
      }
    }
    return outcome;
  }

  // 3. Full synchronization: the scalars do not substitute for vectors.
  consecutive_alarms_ = 0;
  FullSync(local_vectors, metrics, /*already_collected=*/0);
  outcome.full_sync = true;
  return outcome;
}

}  // namespace sgm
