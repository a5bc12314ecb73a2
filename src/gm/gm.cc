#include "gm/gm.h"

#include "gm/sgm_core.h"

namespace sgm {

GeometricMonitor::GeometricMonitor(const MonitoredFunction& function,
                                   double threshold, double max_step_norm)
    : ProtocolBase(function, threshold, max_step_norm) {}

bool GeometricMonitor::SiteViolates(
    int site, const std::vector<Vector>& local_vectors) const {
  return LocalAlarm(*function_, threshold_, e_, Drift(site, local_vectors));
}

CycleOutcome GeometricMonitor::MonitorCycle(
    const std::vector<Vector>& local_vectors, Metrics* metrics) {
  CycleOutcome outcome;
  for (int i = 0; i < num_sites_; ++i) {
    if (SiteViolates(i, local_vectors)) {
      outcome.local_alarm = true;
      break;
    }
  }
  if (outcome.local_alarm) {
    FullSync(local_vectors, metrics, /*already_collected=*/0);
    outcome.full_sync = true;
  }
  return outcome;
}

}  // namespace sgm
