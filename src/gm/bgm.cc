#include "gm/bgm.h"

#include <algorithm>
#include <numeric>

#include "core/check.h"
#include "gm/sgm_core.h"

namespace sgm {

BalancedGeometricMonitor::BalancedGeometricMonitor(
    const MonitoredFunction& function, double threshold, double max_step_norm,
    std::uint64_t seed)
    : ProtocolBase(function, threshold, max_step_norm), rng_(seed) {}

void BalancedGeometricMonitor::AfterSync(
    const std::vector<Vector>& /*local_vectors*/, Metrics* /*metrics*/) {
  slacks_.assign(num_sites_, Vector(dim_));
}

Vector BalancedGeometricMonitor::EffectiveDrift(
    int site, const std::vector<Vector>& local_vectors) const {
  return Drift(site, local_vectors) + slacks_[site];
}

CycleOutcome BalancedGeometricMonitor::MonitorCycle(
    const std::vector<Vector>& local_vectors, Metrics* metrics) {
  CycleOutcome outcome;

  // Local tests on effective (slack-adjusted) drifts.
  std::vector<int> violators;
  for (int i = 0; i < num_sites_; ++i) {
    if (LocalAlarm(*function_, threshold_, e_,
                   EffectiveDrift(i, local_vectors))) {
      violators.push_back(i);
    }
  }
  if (violators.empty()) return outcome;
  outcome.local_alarm = true;

  // Balancing: violators ship their drifts; then the coordinator probes
  // further sites in random order until the group-average ball is safe.
  std::vector<bool> in_group(num_sites_, false);
  Vector group_sum(dim_);
  int group_size = 0;
  for (int v : violators) {
    in_group[v] = true;
    group_sum += EffectiveDrift(v, local_vectors);
    ++group_size;
  }
  metrics->AddSiteMessages(group_size, dim_);

  std::vector<int> probe_order(num_sites_);
  std::iota(probe_order.begin(), probe_order.end(), 0);
  for (int i = num_sites_ - 1; i > 0; --i) {
    std::swap(probe_order[i],
              probe_order[rng_.NextBounded(static_cast<std::uint64_t>(i + 1))]);
  }

  std::size_t next_probe = 0;
  while (true) {
    const Vector balanced = group_sum / static_cast<double>(group_size);
    if (!LocalAlarm(*function_, threshold_, e_, balanced)) {
      // Balanced: assign slacks so every member's effective drift becomes
      // the group average (slack deltas sum to zero inside the group).
      for (int i = 0; i < num_sites_; ++i) {
        if (!in_group[i]) continue;
        slacks_[i] += balanced - EffectiveDrift(i, local_vectors);
        metrics->AddCoordinatorUnicast(dim_);
      }
      outcome.partial_resolved = true;
      metrics->OnPartialResolution();
      return outcome;
    }
    // Probe one more site (request + vector reply).
    while (next_probe < probe_order.size() && in_group[probe_order[next_probe]]) {
      ++next_probe;
    }
    if (next_probe >= probe_order.size()) break;  // everyone probed
    const int site = probe_order[next_probe++];
    in_group[site] = true;
    group_sum += EffectiveDrift(site, local_vectors);
    ++group_size;
    metrics->AddCoordinatorUnicast(0);
    metrics->AddSiteMessages(1, dim_);
  }

  // Balancing failed with all N vectors collected: full synchronization.
  FullSync(local_vectors, metrics, /*already_collected=*/num_sites_);
  outcome.full_sync = true;
  return outcome;
}

}  // namespace sgm
