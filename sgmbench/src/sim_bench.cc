#include "sim_bench.h"

#include <cmath>
#include <memory>

#include "core/check.h"
#include "functions/linf_distance.h"
#include "obs/telemetry.h"
#include "runtime/coordinator_node.h"
#include "runtime/driver.h"
#include "runtime/reliable_transport.h"
#include "runtime/serialization.h"
#include "runtime/sim_transport.h"
#include "runtime/site_node.h"
#include "runtime/transport.h"

namespace sgmbench {
namespace {

/// Transport decorator that charges Send to `layer` and counts what passes
/// by message type.
class SpanTransport final : public sgm::Transport {
 public:
  SpanTransport(sgm::Transport* inner, Ledger* ledger, Layer layer)
      : inner_(inner), ledger_(ledger), layer_(layer) {}

  void Send(const sgm::RuntimeMessage& message) override {
    if (!message.retransmit) ++sent_by_type_[static_cast<int>(message.type)];
    Span span(ledger_, layer_);
    inner_->Send(message);
  }

  long sent(sgm::RuntimeMessage::Type type) const {
    return sent_by_type_[static_cast<int>(type)];
  }

 private:
  sgm::Transport* inner_;
  Ledger* ledger_;
  Layer layer_;
  long sent_by_type_[static_cast<int>(sgm::RuntimeMessage::Type::kShutdown) +
                    1] = {};
};

/// CheckpointStore decorator charging the store's calls to kCheckpoint.
class SpanCheckpointStore final : public sgm::CheckpointStore {
 public:
  SpanCheckpointStore(sgm::CheckpointStore* inner, Ledger* ledger)
      : inner_(inner), ledger_(ledger) {}

  void PutSnapshot(std::vector<std::uint8_t> bytes) override {
    bytes_ += static_cast<double>(bytes.size());
    Span span(ledger_, kCheckpoint);
    inner_->PutSnapshot(std::move(bytes));
  }
  void AppendWal(const std::vector<std::uint8_t>& bytes) override {
    bytes_ += static_cast<double>(bytes.size());
    Span span(ledger_, kCheckpoint);
    inner_->AppendWal(bytes);
  }
  std::vector<Candidate> Candidates() const override {
    return inner_->Candidates();
  }

  double bytes() const { return bytes_; }

 private:
  sgm::CheckpointStore* inner_;
  Ledger* ledger_;
  double bytes_ = 0.0;
};

/// The benchmark's copy of sgm::RuntimeDriver (four-argument wiring, no
/// coordinator crashes), built from the same public classes with a span
/// at every call into a layer:
///
///   nodes → [reliable_transport.send] ReliableTransport
///         → [sim_transport] SimTransport → [transport.bus] InMemoryBus
///
/// Initialize/Tick/route-to-quiescence/PublishMetrics follow
/// src/runtime/driver.cc statement for statement, so the traced run makes
/// the untraced run's decisions (checked per episode).
class TracedDeployment {
 public:
  TracedDeployment(int num_sites, const sgm::MonitoredFunction& function,
                   const sgm::RuntimeConfig& config,
                   const sgm::SimTransportConfig& sim_config, Ledger* ledger)
      : ledger_(ledger),
        bus_span_(&bus_, ledger, kBus),
        telemetry_(config.telemetry),
        config_(config) {
    sgm::SimTransportConfig effective = sim_config;
    effective.num_sites = num_sites;
    sim_ = std::make_unique<sgm::SimTransport>(&bus_span_, effective);
    sim_span_ = std::make_unique<SpanTransport>(sim_.get(), ledger,
                                                kSimTransport);
    if (telemetry_ != nullptr) {
      telemetry_->trace.ConfigureSampling(config.trace_sample_rate,
                                          config.seed);
      sim_->set_telemetry(telemetry_);
    }
    reliable_ = std::make_unique<sgm::ReliableTransport>(
        sim_span_.get(), num_sites, config.reliability, telemetry_);
    rt_span_ = std::make_unique<SpanTransport>(reliable_.get(), ledger,
                                               kRtSend);
    coordinator_ = std::make_unique<sgm::CoordinatorNode>(
        num_sites, function, config, rt_span_.get());
    coordinator_->AttachReliability(reliable_.get());
    sites_.reserve(static_cast<std::size_t>(num_sites));
    for (int i = 0; i < num_sites; ++i) {
      sites_.push_back(std::make_unique<sgm::SiteNode>(i, num_sites, function,
                                                       config, rt_span_.get()));
    }
  }

  void Initialize(const std::vector<sgm::Vector>& locals) {
    if (telemetry_ != nullptr) telemetry_->SetCycle(cycle_);
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      Span span(ledger_, kSiteObserve);
      sites_[i]->Observe(locals[i]);
    }
    {
      Span span(ledger_, kCoordBeginCycle);
      coordinator_->Start();
    }
    RouteToQuiescence();
    PublishMetrics();
  }

  void Tick(const std::vector<sgm::Vector>& locals) {
    if (telemetry_ != nullptr) telemetry_->SetCycle(++cycle_);
    {
      Span span(ledger_, kCoordBeginCycle);
      coordinator_->BeginCycle();
    }
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      if (sim_->IsCrashed(static_cast<int>(i))) continue;
      Span span(ledger_, kSiteObserve);
      sites_[i]->Observe(locals[i]);
    }
    RouteToQuiescence();
    PublishMetrics();
  }

  const sgm::CoordinatorNode& coordinator() const { return *coordinator_; }
  const sgm::SimTransport* sim_transport() const { return sim_.get(); }
  const sgm::ReliableTransport& reliable_transport() const {
    return *reliable_;
  }
  const sgm::InMemoryBus& bus() const { return bus_; }
  const SpanTransport& node_sends() const { return *rt_span_; }
  long on_deliver_calls() const { return on_deliver_calls_; }
  long fresh_deliveries() const { return fresh_deliveries_; }
  /// Appends every message popped off the bus to `record` (nullable).
  void set_recorder(std::vector<sgm::RuntimeMessage>* record) {
    record_ = record;
  }

 private:
  void Deliver(int receiver, const sgm::RuntimeMessage& message) {
    std::vector<sgm::RuntimeMessage> fresh;
    {
      Span span(ledger_, kRtOnDeliver);
      reliable_->OnDeliver(receiver, message, &fresh);
    }
    ++on_deliver_calls_;
    fresh_deliveries_ += static_cast<long>(fresh.size());
    for (const sgm::RuntimeMessage& m : fresh) {
      if (receiver == sgm::kCoordinatorId) {
        Span span(ledger_, kCoordOnMessage);
        coordinator_->OnMessage(m);
      } else {
        Span span(ledger_, kSiteOnMessage);
        sites_[static_cast<std::size_t>(receiver)]->OnMessage(m);
      }
    }
  }

  void RouteToQuiescence() {
    for (;;) {
      for (;;) {
        while (!bus_.empty()) {
          sgm::RuntimeMessage message;
          {
            Span span(ledger_, kBus);
            message = bus_.Pop();
          }
          if (record_ != nullptr) record_->push_back(message);
          if (message.to == sgm::kCoordinatorId) {
            Deliver(sgm::kCoordinatorId, message);
          } else if (message.to == sgm::kBroadcastId) {
            for (auto& site : sites_) {
              if (sim_->IsCrashed(site->id())) continue;
              Deliver(site->id(), message);
            }
          } else {
            SGM_CHECK(message.to >= 0 &&
                      message.to < static_cast<int>(sites_.size()));
            if (sim_->IsCrashed(message.to)) continue;
            Deliver(message.to, message);
          }
        }
        const bool sim_pending = sim_->HasPending();
        if (!sim_pending && !reliable_->HasUnacked()) break;
        if (sim_pending) {
          Span span(ledger_, kSimTransport);
          sim_->AdvanceRound();
        }
        Span span(ledger_, kRtAdvanceRound);
        reliable_->AdvanceRound();
      }
      {
        Span span(ledger_, kCoordOnQuiescent);
        coordinator_->OnQuiescent();
      }
      if (bus_.empty() && !sim_->HasPending() && !reliable_->HasUnacked()) {
        return;
      }
    }
  }

  /// RuntimeDriver::PublishMetrics for this wiring (fault layer present,
  /// coordinator never down).
  void PublishMetrics() {
    if (telemetry_ == nullptr) return;
    Span span(ledger_, kObsPublish);
    sgm::MetricRegistry* registry = &telemetry_->registry;
    sim_->PublishMetrics(registry);
    reliable_->PublishMetrics(registry);

    const sgm::CoordinatorNode::AuditStats coord = coordinator_->audit();
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

    if (config_.checkpoint_store != nullptr) {
      const sgm::CoordinatorNode::RecoveryStats& rec =
          coordinator_->recovery_stats();
      registry->GetCounter("recovery.restores")->Set(rec.restores);
      registry->GetCounter("recovery.snapshots_written")
          ->Set(rec.snapshots_written);
      registry->GetCounter("recovery.wal_records")->Set(rec.wal_records);
      registry->GetCounter("recovery.wal_records_replayed")
          ->Set(rec.wal_records_replayed);
      registry->GetCounter("recovery.snapshots_discarded")
          ->Set(rec.snapshots_discarded);
      registry->GetCounter("recovery.torn_wal_bytes")
          ->Set(rec.torn_wal_bytes);
      registry->GetCounter("recovery.reconcile_grants")
          ->Set(rec.reconcile_grants);
      registry->GetCounter("recovery.coordinator_crashes")->Set(0);
      registry->GetCounter("recovery.down_drops")->Set(0);
    }

    sgm::SiteNode::AuditStats sites_total;
    for (const auto& site : sites_) {
      const sgm::SiteNode::AuditStats audit = site->audit();
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

    const sgm::FailureDetector& fd = coordinator_->failure_detector();
    registry->GetCounter("failure.total_deaths")->Set(fd.total_deaths());
    registry->GetGauge("failure.live_count")
        ->Set(static_cast<double>(fd.live_count()));
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

    const sgm::TraceLog::SelfCost cost = telemetry_->trace.self_cost();
    registry->GetCounter("obs.trace.events")->Set(cost.events_emitted);
    registry->GetCounter("obs.trace.recorded")->Set(cost.events_recorded);
    registry->GetCounter("obs.trace.sampled_out")
        ->Set(cost.events_sampled_out);
    registry->GetCounter("obs.trace.bytes_written")
        ->Set(static_cast<long>(cost.bytes_written));
    registry->GetCounter("obs.telemetry.ns")
        ->Set(static_cast<long>(cost.telemetry_ns));
    if (telemetry_->series) telemetry_->series->Sample(cycle_, *registry);
  }

  Ledger* ledger_;
  sgm::InMemoryBus bus_;
  SpanTransport bus_span_;
  std::unique_ptr<sgm::SimTransport> sim_;
  std::unique_ptr<SpanTransport> sim_span_;
  std::unique_ptr<sgm::ReliableTransport> reliable_;
  std::unique_ptr<SpanTransport> rt_span_;
  std::unique_ptr<sgm::CoordinatorNode> coordinator_;
  std::vector<std::unique_ptr<sgm::SiteNode>> sites_;
  sgm::Telemetry* telemetry_;
  sgm::RuntimeConfig config_;
  std::vector<sgm::RuntimeMessage>* record_ = nullptr;
  long cycle_ = 0;
  long on_deliver_calls_ = 0;
  long fresh_deliveries_ = 0;
};

/// Cumulative program counters of a traced deployment, differenced around
/// the measured cycles.
struct CounterSnapshot {
  sgm::ReliableTransport::Stats rt;
  sgm::TraceLog::SelfCost trace;
  long on_deliver_calls = 0;
  long fresh_deliveries = 0;
  long bus_msgs = 0;
  double checkpoint_bytes = 0.0;
  long drift_reports = 0;
  long probes = 0;
  long partial_resolutions = 0;
};

CounterSnapshot Snapshot(const TracedDeployment& d,
                         const sgm::Telemetry& telemetry,
                         const SpanCheckpointStore& store) {
  CounterSnapshot s;
  s.rt = d.reliable_transport().stats();
  s.trace = telemetry.trace.self_cost();
  s.on_deliver_calls = d.on_deliver_calls();
  s.fresh_deliveries = d.fresh_deliveries();
  s.bus_msgs = d.bus().transport_messages_sent();
  s.checkpoint_bytes = store.bytes();
  s.drift_reports =
      d.node_sends().sent(sgm::RuntimeMessage::Type::kDriftReport);
  s.probes = d.node_sends().sent(sgm::RuntimeMessage::Type::kProbeRequest);
  s.partial_resolutions = d.coordinator().partial_resolutions();
  return s;
}

void AddDelta(const CounterSnapshot& a, const CounterSnapshot& b,
              TracedCounters* c) {
  c->retransmissions += b.rt.retransmissions - a.rt.retransmissions;
  c->duplicates_suppressed +=
      b.rt.duplicates_suppressed - a.rt.duplicates_suppressed;
  c->acks += b.rt.acks_sent - a.rt.acks_sent;
  c->trace_events += b.trace.events_emitted - a.trace.events_emitted;
  c->trace_recorded += b.trace.events_recorded - a.trace.events_recorded;
  c->on_deliver_calls += b.on_deliver_calls - a.on_deliver_calls;
  c->fresh_deliveries += b.fresh_deliveries - a.fresh_deliveries;
  c->bus_msgs += b.bus_msgs - a.bus_msgs;
  c->checkpoint_bytes += b.checkpoint_bytes - a.checkpoint_bytes;
  c->drift_reports += b.drift_reports - a.drift_reports;
  c->probes += b.probes - a.probes;
  c->partial_resolutions += b.partial_resolutions - a.partial_resolutions;
}

/// One episode: fresh deployment, Initialize and warm-up (timed as set-up),
/// then spec.episode_cycles measured cycles. Inputs and ground truth are
/// computed between timed intervals.
template <typename Deployment, typename Make, typename OnMeasured>
void RunEpisode(const WorkloadSpec& spec, std::uint64_t run_seed, int episode,
                Ledger* ledger, Make make, OnMeasured on_measured,
                RunTotals* totals, Decisions* decisions) {
  const std::uint64_t seed = EpisodeSeed(run_seed, episode);
  sgm::JesterLikeGenerator source(GeneratorConfig(spec, seed));
  sgm::Telemetry telemetry;
  sgm::InMemoryCheckpointStore store;
  std::vector<sgm::Vector> locals;
  source.Advance(&locals);

  std::int64_t start = NowNs();
  std::unique_ptr<Deployment> d = make(source, seed, &telemetry, &store);
  d->Initialize(locals);
  double setup_ns = static_cast<double>(NowNs() - start);
  decisions->belief.push_back(d->coordinator().BelievesAbove());
  for (long t = 0; t < spec.warmup_cycles; ++t) {
    source.Advance(&locals);
    start = NowNs();
    d->Tick(locals);
    setup_ns += static_cast<double>(NowNs() - start);
    decisions->belief.push_back(d->coordinator().BelievesAbove());
  }
  totals->setup_s.push_back(setup_ns / 1e9);

  const sgm::SimTransport* sim = d->sim_transport();
  const double paper_msgs0 = static_cast<double>(sim->messages_sent());
  const double paper_bytes0 = sim->bytes_sent();
  const double wire_bytes0 = sim->transport_bytes_sent();
  on_measured(*d, telemetry, /*begin=*/true);

  Audit audit(source.max_step_norm());
  double measured_ns = 0.0;
  totals->cycle_ns.reserve(totals->cycle_ns.size() +
                           static_cast<std::size_t>(spec.episode_cycles));
  for (long t = 1; t <= spec.episode_cycles; ++t) {
    source.Advance(&locals);
    const sgm::Vector mean = MeanOf(locals);
    if (ledger != nullptr) ledger->Start();
    start = NowNs();
    d->Tick(locals);
    const double cycle_ns = static_cast<double>(NowNs() - start);
    if (ledger != nullptr) ledger->Stop();
    totals->cycle_ns.push_back(cycle_ns);
    measured_ns += cycle_ns;
    const sgm::CoordinatorNode& coordinator = d->coordinator();
    decisions->belief.push_back(coordinator.BelievesAbove());
    audit.Observe(t, coordinator.BelievesAbove(), coordinator.estimate(),
                  coordinator.full_syncs(), mean);
  }
  on_measured(*d, telemetry, /*begin=*/false);

  totals->AddMeasured(measured_ns, spec.episode_cycles * spec.sites);
  totals->attempted_cycles += 1 + spec.warmup_cycles + spec.episode_cycles;
  totals->paper_msgs += static_cast<double>(sim->messages_sent()) - paper_msgs0;
  totals->paper_bytes += sim->bytes_sent() - paper_bytes0;
  totals->wire_bytes += sim->transport_bytes_sent() - wire_bytes0;
  totals->AddAudit(audit.report());
  totals->deaths += d->coordinator().failure_detector().total_deaths();
  ++totals->episodes;
  decisions->full_syncs = d->coordinator().full_syncs();
  decisions->partial_resolutions = d->coordinator().partial_resolutions();
  decisions->paper_msgs = sim->messages_sent();
}

/// Every message a deployment of `spec` (its faults included) puts on the
/// wire over episode 0's first cycles, acks included, up to `max_messages`.
std::vector<sgm::RuntimeMessage> RecordMessageMix(const WorkloadSpec& spec,
                                                  std::uint64_t run_seed,
                                                  std::size_t max_messages) {
  const std::uint64_t seed = EpisodeSeed(run_seed, 0);
  sgm::JesterLikeGenerator source(GeneratorConfig(spec, seed));
  const sgm::LInfDistance function{sgm::Vector(kDim)};
  Ledger ledger;
  TracedDeployment d(spec.sites, function,
                     NodeConfig(spec, seed, source, nullptr, nullptr),
                     FaultConfig(spec, seed), &ledger);
  std::vector<sgm::RuntimeMessage> mix;
  d.set_recorder(&mix);
  std::vector<sgm::Vector> locals;
  source.Advance(&locals);
  d.Initialize(locals);
  for (long t = 1; t <= spec.episode_cycles && mix.size() < max_messages;
       ++t) {
    source.Advance(&locals);
    d.Tick(locals);
  }
  if (mix.size() > max_messages) mix.resize(max_messages);
  return mix;
}

/// Run-level gates of the sim workloads.
void CheckGates(const WorkloadSpec& spec, RunTotals* totals) {
  totals->CheckAccuracyGate(sgm::RuntimeConfig().delta);
  if (!spec.faults && totals->deaths > 0) {
    totals->gate_failures.push_back(
        "failure-detector deaths on a fault-free workload: " +
        std::to_string(totals->deaths));
  }
  double p99 = 0.0;
  if (!ExactPercentile(totals->cycle_ns, 0.99, &p99)) {
    totals->gate_failures.push_back("too few cycles for an exact p99");
  }
}

/// Stop condition shared by both modes: --seconds elapsed and enough
/// samples for p99, with a hard ceiling so a run always ends in time.
bool KeepGoing(const RunTotals& totals, std::int64_t start,
               const RunArgs& args, int min_episodes) {
  const double elapsed = SecondsSince(start);
  if (elapsed > 120.0) return false;
  return totals.episodes < min_episodes || elapsed < args.seconds ||
         static_cast<long>(totals.cycle_ns.size()) < kMinMeasuredCycles;
}

}  // namespace

void RunDriverEpisode(const WorkloadSpec& spec, std::uint64_t run_seed,
                      int episode, RunTotals* totals, Decisions* decisions) {
  const sgm::LInfDistance function{sgm::Vector(kDim)};
  auto make = [&](const sgm::JesterLikeGenerator& source, std::uint64_t seed,
                  sgm::Telemetry* telemetry,
                  sgm::InMemoryCheckpointStore* store) {
    return std::make_unique<sgm::RuntimeDriver>(
        spec.sites, function,
        NodeConfig(spec, seed, source, telemetry,
                   spec.checkpoint ? store : nullptr),
        FaultConfig(spec, seed));
  };
  auto on_measured = [](const sgm::RuntimeDriver&, const sgm::Telemetry&,
                        bool) {};
  RunEpisode<sgm::RuntimeDriver>(spec, run_seed, episode, nullptr, make,
                                 on_measured, totals, decisions);
}

void RunTracedEpisode(const WorkloadSpec& spec, std::uint64_t run_seed,
                      int episode, Ledger* ledger, TracedCounters* counters,
                      RunTotals* totals, Decisions* decisions) {
  const sgm::LInfDistance function{sgm::Vector(kDim)};
  std::unique_ptr<SpanCheckpointStore> span_store;
  auto make = [&](const sgm::JesterLikeGenerator& source, std::uint64_t seed,
                  sgm::Telemetry* telemetry,
                  sgm::InMemoryCheckpointStore* store) {
    span_store = std::make_unique<SpanCheckpointStore>(store, ledger);
    return std::make_unique<TracedDeployment>(
        spec.sites, function,
        NodeConfig(spec, seed, source, telemetry,
                   spec.checkpoint ? span_store.get() : nullptr),
        FaultConfig(spec, seed), ledger);
  };
  CounterSnapshot before;
  auto on_measured = [&](const TracedDeployment& d,
                         const sgm::Telemetry& telemetry, bool begin) {
    const CounterSnapshot now = Snapshot(d, telemetry, *span_store);
    if (begin) {
      before = now;
      return;
    }
    AddDelta(before, now, counters);
    const sgm::FailureDetector& fd = d.coordinator().failure_detector();
    counters->deaths += fd.total_deaths();
    counters->live_count_sum += fd.live_count();
    ++counters->episodes;
  };
  RunEpisode<TracedDeployment>(spec, run_seed, episode, ledger, make,
                               on_measured, totals, decisions);
  counters->updates += spec.episode_cycles * spec.sites;
  counters->cycles += spec.episode_cycles;
}

void ReplayCodec(const WorkloadSpec& spec, std::uint64_t run_seed,
                 std::map<std::string, double>* v, RunTotals* totals) {
  std::vector<sgm::RuntimeMessage> mix =
      RecordMessageMix(spec, run_seed, 200000);
  const long cycles = spec.loopback ? spec.episode_cycles : 0;
  for (long c = 1; c <= cycles; ++c) {
    for (const auto type : {sgm::RuntimeMessage::Type::kCycleBegin,
                            sgm::RuntimeMessage::Type::kBarrier}) {
      sgm::RuntimeMessage control;
      control.type = type;
      control.to = sgm::kBroadcastId;
      control.scalar = static_cast<double>(c);
      mix.push_back(control);
    }
    for (int id = 0; id < spec.sites; ++id) {
      sgm::RuntimeMessage ack;
      ack.type = sgm::RuntimeMessage::Type::kBarrierAck;
      ack.from = id;
      ack.scalar = static_cast<double>(c);
      mix.push_back(ack);
    }
  }
  std::vector<std::vector<std::uint8_t>> frames(mix.size());
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  double bytes = 0.0;
  long messages = 0;
  long mismatches = 0;
  const std::int64_t start = NowNs();
  while (messages == 0 || SecondsSince(start) < 0.3) {
    std::int64_t t0 = NowNs();
    for (std::size_t i = 0; i < mix.size(); ++i) {
      frames[i] = sgm::EncodeMessage(mix[i]);
    }
    std::int64_t t1 = NowNs();
    for (std::size_t i = 0; i < mix.size(); ++i) {
      const sgm::Result<sgm::RuntimeMessage> decoded =
          sgm::DecodeMessage(frames[i]);
      if (!decoded.ok() || decoded.ValueOrDie().type != mix[i].type ||
          decoded.ValueOrDie().seq != mix[i].seq) {
        ++mismatches;
      }
    }
    const std::int64_t t2 = NowNs();
    encode_ns += static_cast<double>(t1 - t0);
    decode_ns += static_cast<double>(t2 - t1);
    for (const auto& frame : frames) bytes += static_cast<double>(frame.size());
    messages += static_cast<long>(mix.size());
  }
  if (mismatches > 0) {
    totals->gate_failures.push_back("codec replay: " +
                                    std::to_string(mismatches) +
                                    " frames did not round-trip");
  }
  (*v)["serialization.encode_ns_per_msg"] = encode_ns / messages;
  (*v)["serialization.decode_ns_per_msg"] = decode_ns / messages;
  (*v)["serialization.bytes_per_msg"] = bytes / messages;
}

double LedgerCoverage(const Ledger::Totals& t) {
  double named_ns = 0.0;
  for (int layer = kBus; layer < kNumLayers; ++layer) {
    named_ns += t.self_ns[layer];
  }
  return t.wall_ns > t.tracer_ns ? named_ns / (t.wall_ns - t.tracer_ns) : 0.0;
}

void CheckCoverageGate(double coverage, RunTotals* totals) {
  if (coverage < kMinLedgerCoverage) {
    totals->gate_failures.push_back("ledger.coverage " +
                                    std::to_string(coverage) + " < " +
                                    std::to_string(kMinLedgerCoverage));
  }
}

RunOutcome RunSimWorkload(const WorkloadSpec& spec, const RunArgs& args) {
  const std::int64_t start = NowNs();
  RunTotals totals;
  if (!args.trace) {
    for (int episode = 0; KeepGoing(totals, start, args, 3); ++episode) {
      Decisions decisions;
      RunDriverEpisode(spec, args.seed, episode, &totals, &decisions);
    }
    CheckGates(spec, &totals);
    return OutcomeOf(totals, EndToEndMetrics(totals));
  }

  // Traced run: each episode runs untraced through RuntimeDriver and then
  // through the traced harness on the same inputs; decisions must match.
  RunTotals untraced;
  Ledger ledger;
  TracedCounters c;
  long mismatched = 0;
  for (int episode = 0; KeepGoing(totals, start, args, 1); ++episode) {
    Decisions plain;
    Decisions traced;
    RunDriverEpisode(spec, args.seed, episode, &untraced, &plain);
    RunTracedEpisode(spec, args.seed, episode, &ledger, &c, &totals, &traced);
    if (!(plain == traced)) ++mismatched;
  }
  CheckGates(spec, &totals);
  if (mismatched > 0) {
    totals.gate_failures.push_back(
        "traced harness diverged from RuntimeDriver in " +
        std::to_string(mismatched) + " episode(s)");
  }

  const Ledger::Totals& l = ledger.totals();
  const double updates = static_cast<double>(c.updates);
  auto per_update = [&](double v) { return updates > 0 ? v / updates : 0.0; };
  auto self = [&](Layer layer) { return per_update(l.self_ns[layer]); };
  std::map<std::string, double> v;
  for (int layer = kBus; layer < kNumLayers; ++layer) {
    v[std::string(LayerName(static_cast<Layer>(layer))) +
      ".self_ns_per_update"] = self(static_cast<Layer>(layer));
  }
  v["reliable_transport.allocs_per_update"] = per_update(static_cast<double>(
      l.allocs[kRtSend] + l.allocs[kRtOnDeliver] + l.allocs[kRtAdvanceRound]));
  v["reliable_transport.retransmits_per_update"] =
      per_update(static_cast<double>(c.retransmissions));
  v["reliable_transport.dedup_drops_per_update"] =
      per_update(static_cast<double>(c.duplicates_suppressed));
  v["reliable_transport.acks_per_update"] =
      per_update(static_cast<double>(c.acks));
  v["reliable_transport.useful_ratio"] =
      c.on_deliver_calls > 0 ? static_cast<double>(c.fresh_deliveries) /
                                   static_cast<double>(c.on_deliver_calls)
                             : 0.0;
  v["transport.msgs_per_update"] = per_update(static_cast<double>(c.bus_msgs));
  v["checkpoint.bytes_per_update"] = per_update(c.checkpoint_bytes);
  v["obs.trace.events_per_update"] =
      per_update(static_cast<double>(c.trace_events));
  v["obs.trace.recorded_per_update"] =
      per_update(static_cast<double>(c.trace_recorded));
  v["obs.allocs_per_update"] =
      per_update(static_cast<double>(l.allocs[kObsPublish]));
  const double reports_per_partial =
      c.probes > 0 ? static_cast<double>(c.drift_reports) /
                         static_cast<double>(c.probes)
                   : 0.0;
  const double delta = sgm::RuntimeConfig().delta;
  v["coordinator_node.drift_reports_per_partial"] = reports_per_partial;
  v["coordinator_node.sample_vs_sqrt_n"] =
      reports_per_partial /
      (std::log(1.0 / delta) * std::sqrt(static_cast<double>(spec.sites)));
  v["coordinator_node.partial_success_ratio"] =
      c.probes > 0 ? static_cast<double>(c.partial_resolutions) /
                         static_cast<double>(c.probes)
                   : 0.0;
  v["failure_detector.deaths"] = static_cast<double>(c.deaths);
  v["failure_detector.live_count"] =
      c.episodes > 0 ? c.live_count_sum / c.episodes : 0.0;
  v["driver.unattributed_ns_per_update"] = self(kDriver);
  v["driver.allocs_per_update"] =
      per_update(static_cast<double>(l.allocs[kDriver]));
  v["tracing.self_ns_per_update"] = per_update(l.tracer_ns);
  v["ledger.coverage"] = LedgerCoverage(l);
  CheckCoverageGate(v["ledger.coverage"], &totals);
  v["tracing.overhead_ratio"] =
      l.wall_ns > 0 ? untraced.measured_ns / l.wall_ns : 0.0;
  v["accuracy.fn_rate"] = totals.fn_rate();
  v["parity.mismatched_episodes"] = static_cast<double>(mismatched);
  ReplayCodec(spec, args.seed, &v, &totals);
  return OutcomeOf(totals, PerLayerMetrics(v));
}

}  // namespace sgmbench
