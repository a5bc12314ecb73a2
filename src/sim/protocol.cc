#include "sim/protocol.h"

#include <limits>

#include "core/check.h"
#include "gm/sgm_core.h"
#include "obs/telemetry.h"

namespace sgm {

ProtocolBase::ProtocolBase(const MonitoredFunction& function, double threshold,
                           double max_step_norm)
    : function_(function.Clone()),
      threshold_(threshold),
      max_step_norm_(max_step_norm),
      drift_norm_cap_(std::numeric_limits<double>::infinity()) {
  SGM_CHECK_MSG(max_step_norm > 0.0, "max_step_norm must be positive");
}

void ProtocolBase::set_drift_norm_cap(double cap) {
  SGM_CHECK_MSG(cap > 0.0, "drift norm cap must be positive");
  drift_norm_cap_ = cap;
}

void ProtocolBase::set_u_threshold_factor(double factor) {
  SGM_CHECK_MSG(factor > 0.0, "U threshold factor must be positive");
  u_threshold_factor_ = factor;
}

void ProtocolBase::set_telemetry(Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_ != nullptr) {
    monitor_cycle_ns_ = telemetry_->registry.GetHistogram(
        "protocol.monitor_cycle_ns", LatencyBucketsNs());
    full_sync_ns_ = telemetry_->registry.GetHistogram("protocol.full_sync_ns",
                                                      LatencyBucketsNs());
  } else {
    monitor_cycle_ns_ = nullptr;
    full_sync_ns_ = nullptr;
  }
}

void ProtocolBase::Initialize(const std::vector<Vector>& local_vectors,
                              Metrics* metrics) {
  SGM_CHECK(!local_vectors.empty());
  SGM_CHECK(metrics != nullptr);
  num_sites_ = static_cast<int>(local_vectors.size());
  dim_ = local_vectors.front().dim();

  // All sites ship their vectors; the coordinator broadcasts e back.
  metrics->AddSiteMessages(num_sites_, dim_);
  e_ = Mean(local_vectors);
  metrics->AddBroadcast(dim_);

  synced_locals_ = local_vectors;
  function_->OnSync(e_);
  believes_above_ = function_->Value(e_) > threshold_;
  epsilon_t_ = function_->DistanceToSurface(e_, threshold_);
  cycles_since_sync_ = 0;
  initialized_ = true;
  AfterSync(local_vectors, metrics);
}

CycleOutcome ProtocolBase::OnCycle(const std::vector<Vector>& local_vectors,
                                   Metrics* metrics) {
  SGM_CHECK_MSG(initialized_, "Initialize() must run before OnCycle()");
  SGM_CHECK(static_cast<int>(local_vectors.size()) == num_sites_);
  ++cycles_since_sync_;
  if (telemetry_ != nullptr) telemetry_->SetCycle(++absolute_cycle_);
  CycleOutcome outcome;
  {
    ScopedTimer timer(monitor_cycle_ns_);
    outcome = MonitorCycle(local_vectors, metrics);
  }
  if (outcome.local_alarm) metrics->OnLocalAlarm();
  if (telemetry_ != nullptr) {
    // The simulator plays both tiers in one object, so outcome events carry
    // the coordinator actor (-1); full_sync_complete is traced by FullSync.
    if (outcome.local_alarm) {
      telemetry_->trace.Emit(TraceEventId::kLocalAlarm, -1);
    }
    if (outcome.partial_resolved) {
      telemetry_->trace.Emit(TraceEventId::kPartialResolution, -1);
    }
    if (outcome.resolved_1d) {
      telemetry_->trace.Emit(TraceEventId::kOneDResolution, -1);
    }
  }
  return outcome;
}

void ProtocolBase::AfterSync(const std::vector<Vector>& /*local_vectors*/,
                             Metrics* /*metrics*/) {}

Vector ProtocolBase::Drift(int site,
                           const std::vector<Vector>& local_vectors) const {
  return local_vectors[site] - synced_locals_[site];
}

double ProtocolBase::CurrentU() const {
  return DriftScale{max_step_norm_, drift_norm_cap_, u_threshold_factor_}.U(
      cycles_since_sync_, epsilon_t_);
}

bool ProtocolBase::FullSync(const std::vector<Vector>& local_vectors,
                            Metrics* metrics, int already_collected) {
  SGM_CHECK(already_collected >= 0 && already_collected <= num_sites_);
  ScopedTimer timer(full_sync_ns_);
  metrics->AddSiteMessages(num_sites_ - already_collected, dim_);

  const Vector mean = Mean(local_vectors);
  // Classified against the pre-sync belief: the synchronization was
  // justified iff the true value had switched sides.
  // BelievesAbove() is virtual: prediction-based protocols hold a
  // time-varying belief f(e_pred(t)) rather than the static f(e).
  const bool true_above = function_->Value(mean) > threshold_;
  const bool was_true_crossing = (true_above != BelievesAbove());
  metrics->OnFullSync(was_true_crossing);

  e_ = mean;
  metrics->AddBroadcast(dim_);
  synced_locals_ = local_vectors;
  function_->OnSync(e_);
  believes_above_ = function_->Value(e_) > threshold_;
  epsilon_t_ = function_->DistanceToSurface(e_, threshold_);
  cycles_since_sync_ = 0;
  if (telemetry_ != nullptr) {
    // The sim has no transport epochs; the sync ordinal plays that role.
    telemetry_->trace.Emit(
        TraceEventId::kFullSyncComplete, -1,
        {{"epoch", metrics->full_syncs()}, {"degraded", 0}});
  }
  AfterSync(local_vectors, metrics);
  return was_true_crossing;
}

}  // namespace sgm
