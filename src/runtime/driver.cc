#include "runtime/driver.h"

#include "core/check.h"
#include "obs/flight_recorder.h"
#include "obs/telemetry.h"

namespace sgm {

RuntimeDriver::RuntimeDriver(int num_sites, const MonitoredFunction& function,
                             const RuntimeConfig& config) {
  BuildNodes(num_sites, function, config, &bus_);
}

RuntimeDriver::RuntimeDriver(int num_sites, const MonitoredFunction& function,
                             const RuntimeConfig& config,
                             const SimTransportConfig& sim_config) {
  SimTransportConfig effective = sim_config;
  effective.num_sites = num_sites;
  sim_ = std::make_unique<SimTransport>(&bus_, effective);
  BuildNodes(num_sites, function, config, sim_.get());
}

void RuntimeDriver::BuildNodes(int num_sites,
                               const MonitoredFunction& function,
                               const RuntimeConfig& config, Transport* lower) {
  SGM_CHECK(num_sites > 0);
  telemetry_ = config.telemetry;
  config_ = config;
  function_clone_ = function.Clone();
  if (telemetry_ != nullptr) {
    // The log gets the same seed+rate the coordinator mints decisions from,
    // so its noise-event coin replays with the run.
    telemetry_->trace.ConfigureSampling(config.trace_sample_rate,
                                        config.seed);
  }
  if (sim_ && telemetry_ != nullptr) sim_->set_telemetry(telemetry_);
  reliable_ = std::make_unique<ReliableTransport>(
      lower, num_sites, config.reliability, telemetry_);
  coordinator_ = std::make_unique<CoordinatorNode>(num_sites, function,
                                                   config, reliable_.get());
  coordinator_->AttachReliability(reliable_.get());
  sites_.reserve(num_sites);
  for (int i = 0; i < num_sites; ++i) {
    sites_.push_back(std::make_unique<SiteNode>(i, num_sites, function,
                                                config, reliable_.get()));
  }
}

void RuntimeDriver::Deliver(int receiver, const RuntimeMessage& message) {
  if (receiver == kCoordinatorId && coordinator_ == nullptr) {
    // A dead coordinator acks nothing and processes nothing: the frame is
    // lost unacked (before the receive-side reliability layer, which would
    // ack it), exactly as a crashed host loses it. Senders retransmit and
    // eventually give up; recovery re-anchors them.
    ++coordinator_down_drops_;
    return;
  }
  // The receive-side reliability layer consumes acks, dedups and acks data;
  // at most one message survives to the node.
  fresh_.clear();
  reliable_->OnDeliver(receiver, message, &fresh_);
  for (const RuntimeMessage& m : fresh_) {
    if (receiver == kCoordinatorId) {
      coordinator_->OnMessage(m);
      if (crash_after_messages_ > 0 && --crash_after_messages_ == 0) {
        // Armed mid-cascade crash: fires between two message handlers of
        // one delivery burst. Anything already acked but not yet dispatched
        // dies with the process (ack-then-crash is a real failure mode the
        // WAL ordering must survive).
        CrashCoordinator();
        break;
      }
    } else {
      sites_[receiver]->OnMessage(m);
    }
  }
}

void RuntimeDriver::ReportBarrierLag(const std::vector<int>& laggards) {
  if (coordinator_ == nullptr) return;
  std::vector<bool> lagging(sites_.size(), false);
  for (const int site : laggards) {
    SGM_CHECK(site >= 0 && site < num_sites());
    lagging[site] = true;
  }
  int missed = 0;
  for (int site = 0; site < num_sites(); ++site) {
    if (lagging[site]) {
      ++missed;
      coordinator_->OnBarrierDeadlineMissed(site);
    } else {
      coordinator_->OnBarrierDeadlineMet(site);
    }
  }
  if (missed > 0) coordinator_->RecordDegradedCycle(missed);
}

void RuntimeDriver::CrashCoordinator() {
  SGM_CHECK(coordinator_ != nullptr);
  SGM_CHECK_MSG(config_.checkpoint_store != nullptr,
                "coordinator crash without a checkpoint store is fatal");
  last_crash_epoch_ = coordinator_->epoch();
  AccumulateRecovery(coordinator_->recovery_stats());
  ++coordinator_crashes_;
  crash_after_messages_ = 0;
  if (telemetry_ != nullptr) {
    telemetry_->trace.Emit(TraceEventId::kCoordinatorCrash, kCoordinatorId,
                           {{"epoch", last_crash_epoch_}});
  }
  coordinator_.reset();
  // The dead-link handler captured the dead coordinator; clear it before
  // voiding the coordinator's unacked outbound traffic (which must not be
  // read as evidence of dead *receivers*).
  reliable_->SetDeadLinkHandler({});
  reliable_->AbandonSender(kCoordinatorId);
}

void RuntimeDriver::ArmCoordinatorCrash(long count) {
  SGM_CHECK(count >= 1);
  SGM_CHECK(coordinator_ != nullptr);
  crash_after_messages_ = count;
}

void RuntimeDriver::RecoverCoordinator() {
  SGM_CHECK(coordinator_ == nullptr);
  coordinator_ = std::make_unique<CoordinatorNode>(
      num_sites(), *function_clone_, config_, reliable_.get());
  coordinator_->AttachReliability(reliable_.get());
  SGM_CHECK_MSG(coordinator_->Recover(),
                "coordinator recovery found no decodable checkpoint");
  RouteToQuiescence();
  PublishMetrics();
}

void RuntimeDriver::AccumulateRecovery(
    const CoordinatorNode::RecoveryStats& stats) {
  recovery_totals_.restores += stats.restores;
  recovery_totals_.snapshots_written += stats.snapshots_written;
  recovery_totals_.wal_records += stats.wal_records;
  recovery_totals_.wal_records_replayed += stats.wal_records_replayed;
  recovery_totals_.snapshots_discarded += stats.snapshots_discarded;
  recovery_totals_.torn_wal_bytes += stats.torn_wal_bytes;
  recovery_totals_.reconcile_grants += stats.reconcile_grants;
}

CoordinatorNode::RecoveryStats RuntimeDriver::recovery_totals() const {
  CoordinatorNode::RecoveryStats total = recovery_totals_;
  if (coordinator_ != nullptr) {
    const CoordinatorNode::RecoveryStats& live = coordinator_->recovery_stats();
    total.restores += live.restores;
    total.snapshots_written += live.snapshots_written;
    total.wal_records += live.wal_records;
    total.wal_records_replayed += live.wal_records_replayed;
    total.snapshots_discarded += live.snapshots_discarded;
    total.torn_wal_bytes += live.torn_wal_bytes;
    total.reconcile_grants += live.reconcile_grants;
  }
  return total;
}

void RuntimeDriver::RouteToQuiescence() {
  for (;;) {
    for (;;) {
      while (!bus_.empty()) {
        const RuntimeMessage message = bus_.Pop();
        if (message.to == kCoordinatorId) {
          Deliver(kCoordinatorId, message);
        } else if (message.to == kBroadcastId) {
          // A broadcast is one wire message but N receiver-side stacks:
          // each live site dedups and acks independently.
          for (auto& site : sites_) {
            if (sim_ && sim_->IsCrashed(site->id())) continue;
            Deliver(site->id(), message);
          }
        } else {
          SGM_CHECK(message.to >= 0 &&
                    message.to < static_cast<int>(sites_.size()));
          if (sim_ && sim_->IsCrashed(message.to)) continue;
          Deliver(message.to, message);
        }
      }
      // Bus drained: one transport round elapses. Release any delay-held
      // messages (delays are bounded, not losses) and let the reliability
      // layer retransmit whatever came due. Termination is guaranteed:
      // delays are bounded and every in-flight entry has a bounded
      // retransmission budget.
      const bool sim_pending = sim_ && sim_->HasPending();
      if (!sim_pending && !reliable_->HasUnacked()) break;
      if (sim_pending) sim_->AdvanceRound();
      reliable_->AdvanceRound();
    }
    // Transport quiescent: give the coordinator its quiescence callback; if
    // that produced new traffic, keep routing. While the coordinator is
    // down there is no callback — the loop above still terminates because
    // delays and retransmission budgets are bounded.
    if (coordinator_ != nullptr) coordinator_->OnQuiescent();
    if (bus_.empty() && !(sim_ && sim_->HasPending()) &&
        !reliable_->HasUnacked()) {
      return;
    }
  }
}

void RuntimeDriver::Initialize(const std::vector<Vector>& local_vectors) {
  SGM_CHECK(static_cast<int>(local_vectors.size()) == num_sites());
  if (telemetry_ != nullptr) telemetry_->SetCycle(cycle_);
  for (int i = 0; i < num_sites(); ++i) {
    sites_[i]->Observe(local_vectors[i]);
  }
  coordinator_->Start();
  RouteToQuiescence();
  PublishMetrics();
}

void RuntimeDriver::Tick(const std::vector<Vector>& local_vectors) {
  SGM_CHECK(static_cast<int>(local_vectors.size()) == num_sites());
  if (telemetry_ != nullptr) telemetry_->SetCycle(++cycle_);
  if (coordinator_ != nullptr) coordinator_->BeginCycle();
  for (int i = 0; i < num_sites(); ++i) {
    if (sim_ && sim_->IsCrashed(i)) continue;  // crashed: observes nothing
    sites_[i]->Observe(local_vectors[i]);
  }
  RouteToQuiescence();
  PublishMetrics();
}

void RuntimeDriver::PublishMetrics() {
  if (telemetry_ == nullptr) return;
  MetricRegistry* registry = &telemetry_->registry;
  if (sim_) {
    sim_->PublishMetrics(registry);
  } else {
    // Faultless wiring: the bus carries the sender-side accounting.
    registry->GetCounter("transport.paper_messages")
        ->Set(bus_.messages_sent());
    registry->GetCounter("transport.paper_site_messages")
        ->Set(bus_.site_messages_sent());
    registry->GetGauge("transport.paper_bytes")->Set(bus_.bytes_sent());
    registry->GetCounter("transport.total_messages")
        ->Set(bus_.transport_messages_sent());
    registry->GetGauge("transport.total_bytes")
        ->Set(bus_.transport_bytes_sent());
  }
  reliable_->PublishMetrics(registry);

  if (coordinator_ != nullptr) {
    const CoordinatorNode::AuditStats coord = coordinator_->audit();
    registry->GetCounter("coordinator.full_syncs")
        ->Set(coordinator_->full_syncs());
    registry->GetCounter("coordinator.partial_resolutions")
        ->Set(coordinator_->partial_resolutions());
    registry->GetCounter("coordinator.degraded_syncs")
        ->Set(coordinator_->degraded_syncs());
    registry->GetCounter("coordinator.epoch")
        ->Set(static_cast<long>(coordinator_->epoch()));
    registry->GetCounter("coordinator.stale_epoch_drops")
        ->Set(coord.stale_epoch_drops);
    registry->GetCounter("coordinator.stale_epoch_applied")
        ->Set(coord.stale_epoch_applied);
    registry->GetCounter("coordinator.late_reports")->Set(coord.late_reports);
    registry->GetCounter("coordinator.rejoins_granted")
        ->Set(coord.rejoins_granted);
    registry->GetCounter("coordinator.sync_rerequests")
        ->Set(coord.sync_rerequests);
  }

  if (config_.checkpoint_store != nullptr) {
    const CoordinatorNode::RecoveryStats rec = recovery_totals();
    registry->GetCounter("recovery.restores")->Set(rec.restores);
    registry->GetCounter("recovery.snapshots_written")
        ->Set(rec.snapshots_written);
    registry->GetCounter("recovery.wal_records")->Set(rec.wal_records);
    registry->GetCounter("recovery.wal_records_replayed")
        ->Set(rec.wal_records_replayed);
    registry->GetCounter("recovery.snapshots_discarded")
        ->Set(rec.snapshots_discarded);
    registry->GetCounter("recovery.torn_wal_bytes")->Set(rec.torn_wal_bytes);
    registry->GetCounter("recovery.reconcile_grants")
        ->Set(rec.reconcile_grants);
    registry->GetCounter("recovery.coordinator_crashes")
        ->Set(coordinator_crashes_);
    registry->GetCounter("recovery.down_drops")->Set(coordinator_down_drops_);
  }

  SiteNode::AuditStats sites_total;
  for (const auto& site : sites_) {
    const SiteNode::AuditStats audit = site->audit();
    sites_total.stale_epoch_drops += audit.stale_epoch_drops;
    sites_total.stale_epoch_applied += audit.stale_epoch_applied;
    sites_total.heartbeats_sent += audit.heartbeats_sent;
    sites_total.rejoin_requests_sent += audit.rejoin_requests_sent;
  }
  registry->GetCounter("site.stale_epoch_drops")
      ->Set(sites_total.stale_epoch_drops);
  registry->GetCounter("site.stale_epoch_applied")
      ->Set(sites_total.stale_epoch_applied);
  registry->GetCounter("site.heartbeats_sent")
      ->Set(sites_total.heartbeats_sent);
  registry->GetCounter("site.rejoin_requests_sent")
      ->Set(sites_total.rejoin_requests_sent);

  if (coordinator_ != nullptr) {
    const FailureDetector& fd = coordinator_->failure_detector();
    registry->GetCounter("failure.total_deaths")->Set(fd.total_deaths());
    registry->GetGauge("failure.live_count")
        ->Set(static_cast<double>(fd.live_count()));

    // Straggler / bounded-staleness accounting (deadline-driven barriers).
    registry->GetCounter("degraded.cycles")
        ->Set(coordinator_->degraded_cycles());
    registry->GetGauge("degraded.lagging_sites")
        ->Set(static_cast<double>(fd.lagging_count()));
    registry->GetCounter("degraded.lag_quarantines")
        ->Set(fd.total_lagging_verdicts());
    registry->GetCounter("degraded.staleness_cycles_total")
        ->Set(fd.staleness_cycles_total());
    registry->GetGauge("degraded.staleness_cycles_max")
        ->Set(static_cast<double>(fd.staleness_cycles_max()));
  }

  // Telemetry self-cost: what observability itself spends. Emitted counts
  // include sampled-out events, so `sampled_out / events` is the live
  // sampling ratio and `telemetry_ns` bounds the instrumentation tax.
  const TraceLog::SelfCost cost = telemetry_->trace.self_cost();
  registry->GetCounter("obs.trace.events")->Set(cost.events_emitted);
  registry->GetCounter("obs.trace.recorded")->Set(cost.events_recorded);
  registry->GetCounter("obs.trace.sampled_out")->Set(cost.events_sampled_out);
  registry->GetCounter("obs.trace.bytes_written")
      ->Set(static_cast<long>(cost.bytes_written));
  registry->GetCounter("obs.telemetry.ns")
      ->Set(static_cast<long>(cost.telemetry_ns));
  if (const FlightRecorder* ring = telemetry_->trace.flight_recorder()) {
    registry->GetCounter("obs.ring.recorded")->Set(ring->lines_recorded());
    registry->GetCounter("obs.ring.overwrites")->Set(ring->overwrites());
    registry->GetCounter("obs.ring.dropped")->Set(ring->lines_dropped());
  }

  // Windowed time-series export: one sample per cycle (idempotent — an
  // on-demand PublishMetrics within the same cycle does not duplicate).
  if (telemetry_->series) telemetry_->series->Sample(cycle_, *registry);
}

}  // namespace sgm
