#include "gm/pgm.h"

#include "core/check.h"
#include "gm/sgm_core.h"

namespace sgm {

PredictionGeometricMonitor::PredictionGeometricMonitor(
    const MonitoredFunction& function, double threshold, double max_step_norm,
    int history, std::unique_ptr<PredictionModel> model)
    : ProtocolBase(function, threshold, max_step_norm),
      history_(history),
      prototype_(model ? std::move(model)
                       : std::make_unique<AdaptiveModel>()) {
  SGM_CHECK_MSG(history >= 2, "predictor needs at least 2 measurements");
}

void PredictionGeometricMonitor::PushHistory(
    const std::vector<Vector>& local_vectors) {
  recent_.push_back(local_vectors);
  while (recent_.size() > static_cast<std::size_t>(history_)) {
    recent_.pop_front();
  }
}

void PredictionGeometricMonitor::AfterSync(
    const std::vector<Vector>& local_vectors, Metrics* metrics) {
  PushHistory(local_vectors);

  // Each site fits its model on its own history column; parameters ride
  // along the sync vectors (payload only — the messages already flowed).
  site_models_.clear();
  site_models_.reserve(num_sites_);
  std::size_t payload_doubles = 0;
  std::vector<Vector> column(recent_.size());
  for (int i = 0; i < num_sites_; ++i) {
    for (std::size_t t = 0; t < recent_.size(); ++t) {
      column[t] = recent_[t][i];
    }
    site_models_.push_back(prototype_->Clone());
    site_models_.back()->Fit(column);
    payload_doubles += site_models_.back()->ParameterDoubles();
  }
  if (metrics != nullptr && payload_doubles > 0) {
    metrics->AddPiggybackPayload(1, payload_doubles);
    // The coordinator re-broadcasts the aggregate model coefficients.
    metrics->AddPiggybackPayload(1, 2 * dim_);
  }
}

Vector PredictionGeometricMonitor::PredictedEstimate() const {
  Vector pred(dim_);
  for (const auto& model : site_models_) {
    pred += model->Predict(cycles_since_sync_);
  }
  pred /= static_cast<double>(num_sites_);
  return pred;
}

bool PredictionGeometricMonitor::BelievesAbove() const {
  if (!initialized_ || cycles_since_sync_ == 0 || site_models_.empty()) {
    return ProtocolBase::BelievesAbove();
  }
  return function_->Value(PredictedEstimate()) > threshold_;
}

CycleOutcome PredictionGeometricMonitor::MonitorCycle(
    const std::vector<Vector>& local_vectors, Metrics* metrics) {
  CycleOutcome outcome;
  const Vector e_pred = PredictedEstimate();
  for (int i = 0; i < num_sites_; ++i) {
    const Vector deviation =
        local_vectors[i] - site_models_[i]->Predict(cycles_since_sync_);
    if (LocalAlarm(*function_, threshold_, e_pred, deviation)) {
      outcome.local_alarm = true;
      break;
    }
  }
  if (outcome.local_alarm) {
    FullSync(local_vectors, metrics, /*already_collected=*/0);
    outcome.full_sync = true;
  } else {
    PushHistory(local_vectors);
  }
  return outcome;
}

}  // namespace sgm
