// Runtime-level tests of the reliability layer: epoch fencing at both node
// types, heartbeat liveness, the named resync/retry configuration knobs,
// and the crash → rejoin → reconverge path (see docs/DESIGN.md).

#include <vector>

#include <gtest/gtest.h>

#include "data/jester_like.h"
#include "functions/l2_norm.h"
#include "functions/linf_distance.h"
#include "runtime/driver.h"

namespace sgm {
namespace {

RuntimeConfig Config(double threshold, double step = 10.0) {
  RuntimeConfig config;
  config.threshold = threshold;
  config.max_step_norm = step;
  return config;
}

TEST(RuntimeReliabilityTest, NamedConfigDefaultsAreDocumentedValues) {
  // These knobs replaced ad-hoc constants; the defaults are load-bearing
  // (docs/DESIGN.md) and changing one is a deliberate, reviewed act.
  const RuntimeConfig config;
  EXPECT_EQ(config.empty_collection_retry_cycles, 1);
  EXPECT_EQ(config.degraded_resync_cycles, 5);
  EXPECT_EQ(config.max_sync_retries, 2);
  EXPECT_EQ(config.heartbeat_interval_cycles, 1);
  EXPECT_EQ(config.rejoin_resync_cycles, 2);
  EXPECT_EQ(config.failure_detector.suspect_after_misses, 3);
  EXPECT_EQ(config.failure_detector.dead_after_misses, 6);
  EXPECT_EQ(config.reliability.max_retransmits, 4);
  EXPECT_EQ(config.reliability.max_in_flight_per_peer, 256);
  EXPECT_EQ(config.reliability.dedup_window, 1024);
  EXPECT_EQ(config.failure_detector.threshold_jitter, 0.0);
  EXPECT_EQ(config.checkpoint_store, nullptr);
  EXPECT_EQ(config.checkpoint_interval_cycles, 25);
  EXPECT_EQ(config.recovery_resync_cycles, 2);
}

TEST(RuntimeReliabilityTest, EpochAdvancesWithEverySyncRound) {
  const L2Norm norm;
  RuntimeDriver driver(4, norm, Config(3.0));
  std::vector<Vector> locals(4, Vector{1.0, 0.0});
  driver.Initialize(locals);
  EXPECT_EQ(driver.coordinator().epoch(), 1);  // the initialization round
  for (int i = 0; i < 4; ++i) EXPECT_EQ(driver.site(i).epoch(), 1);

  // A true crossing: probe round (+1), then full sync round (+1).
  for (auto& v : locals) v = Vector{6.0, 0.0};
  for (int t = 0; t < 6 && !driver.coordinator().BelievesAbove(); ++t) {
    driver.Tick(locals);
  }
  ASSERT_TRUE(driver.coordinator().BelievesAbove());
  EXPECT_GE(driver.coordinator().epoch(), 3);
  // Reliable fan-out: every site ends the cycle on the coordinator's epoch.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(driver.site(i).epoch(), driver.coordinator().epoch());
    EXPECT_TRUE(driver.site(i).anchored());
  }
}

TEST(RuntimeReliabilityTest, SiteDropsStaleEpochMessages) {
  const L2Norm norm;
  InMemoryBus bus;
  const RuntimeConfig config = Config(3.0);
  SiteNode site(0, 2, norm, config, &bus);

  RuntimeMessage anchor;
  anchor.type = RuntimeMessage::Type::kNewEstimate;
  anchor.from = kCoordinatorId;
  anchor.to = kBroadcastId;
  anchor.epoch = 3;
  anchor.payload = Vector{1.0, 0.0};
  anchor.scalar = 2.0;
  site.OnMessage(anchor);
  ASSERT_EQ(site.epoch(), 3);
  const Vector anchored_estimate = site.estimate();

  // A stale round's estimate (epoch 2) must be dropped, not applied.
  anchor.epoch = 2;
  anchor.payload = Vector{9.0, 9.0};
  site.OnMessage(anchor);
  EXPECT_EQ(site.audit().stale_epoch_drops, 1);
  EXPECT_EQ(site.audit().stale_epoch_applied, 0);
  EXPECT_EQ(site.epoch(), 3);
  EXPECT_EQ(site.estimate()[0], anchored_estimate[0]);
}

TEST(RuntimeReliabilityTest, EpochGapUnanchorsAndRequestsRejoin) {
  const L2Norm norm;
  InMemoryBus bus;
  SiteNode site(0, 2, norm, Config(3.0), &bus);

  RuntimeMessage anchor;
  anchor.type = RuntimeMessage::Type::kNewEstimate;
  anchor.from = kCoordinatorId;
  anchor.to = kBroadcastId;
  anchor.epoch = 1;
  anchor.payload = Vector{1.0, 0.0};
  site.OnMessage(anchor);
  ASSERT_TRUE(site.anchored());
  while (!bus.empty()) bus.Pop();

  // Epoch 1 → 4: the site missed whole rounds. It must stop monitoring
  // against the stale anchor and ask to be resynchronized.
  RuntimeMessage probe;
  probe.type = RuntimeMessage::Type::kProbeRequest;
  probe.from = kCoordinatorId;
  probe.to = kBroadcastId;
  probe.epoch = 4;
  site.OnMessage(probe);
  EXPECT_FALSE(site.anchored());
  EXPECT_EQ(site.epoch(), 4);
  EXPECT_EQ(site.audit().rejoin_requests_sent, 1);
  ASSERT_FALSE(bus.empty());
  EXPECT_EQ(bus.Pop().type, RuntimeMessage::Type::kRejoinRequest);

  // A grant re-anchors and completes the handshake with fresh state.
  RuntimeMessage grant;
  grant.type = RuntimeMessage::Type::kRejoinGrant;
  grant.from = kCoordinatorId;
  grant.to = 0;
  grant.epoch = 4;
  grant.payload = Vector{2.0, 0.0};
  grant.scalar = 1.0;
  site.OnMessage(grant);
  EXPECT_TRUE(site.anchored());
  ASSERT_FALSE(bus.empty());
  EXPECT_EQ(bus.Pop().type, RuntimeMessage::Type::kStateReport);
}

TEST(RuntimeReliabilityTest, HeartbeatsKeepQuietSitesAlive) {
  const L2Norm norm;
  // Far-below-threshold workload: sites never alarm, so without heartbeats
  // the failure detector would suspect the whole quiet fleet.
  RuntimeDriver driver(6, norm, Config(1000.0));
  std::vector<Vector> locals(6, Vector{1.0, 0.0});
  driver.Initialize(locals);
  for (int t = 0; t < 30; ++t) driver.Tick(locals);

  const FailureDetector& fd = driver.coordinator().failure_detector();
  EXPECT_EQ(fd.live_count(), 6);
  EXPECT_EQ(fd.total_deaths(), 0);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(fd.state(i), FailureDetector::State::kAlive);
    EXPECT_GT(driver.site(i).audit().heartbeats_sent, 0);
  }
}

TEST(RuntimeReliabilityTest, QuietRecoveryRevivesWithoutAGrant) {
  const L2Norm norm;
  RuntimeConfig config = Config(1000.0);  // quiet: no sync rounds happen
  config.failure_detector.suspect_after_misses = 2;
  config.failure_detector.dead_after_misses = 4;
  RuntimeDriver driver(4, norm, config, SimTransportConfig{});
  std::vector<Vector> locals(4, Vector{1.0, 0.0});
  driver.Initialize(locals);

  driver.sim_transport()->CrashSite(2);
  for (int t = 0; t < 6; ++t) driver.Tick(locals);
  EXPECT_EQ(driver.coordinator().failure_detector().state(2),
            FailureDetector::State::kDead);
  EXPECT_EQ(driver.coordinator().failure_detector().live_count(), 3);

  driver.sim_transport()->RecoverSite(2);
  for (int t = 0; t < 6; ++t) driver.Tick(locals);
  // No epoch advanced while the site was down: its first heartbeat carries
  // the *current* epoch, so it missed nothing and is revived directly —
  // no rejoin handshake, no resync churn.
  EXPECT_EQ(driver.coordinator().audit().rejoins_granted, 0);
  EXPECT_EQ(driver.coordinator().failure_detector().state(2),
            FailureDetector::State::kAlive);
  EXPECT_EQ(driver.coordinator().failure_detector().live_count(), 4);
  EXPECT_TRUE(driver.site(2).anchored());
}

TEST(RuntimeReliabilityTest, CrashedSiteThatMissedASyncRejoinsViaGrant) {
  const L2Norm norm;
  RuntimeDriver driver(4, norm, Config(3.0), SimTransportConfig{});
  std::vector<Vector> locals(4, Vector{1.0, 0.0});
  driver.Initialize(locals);
  const std::int64_t epoch_before = driver.coordinator().epoch();

  // A true crossing while site 2 is down: the fleet syncs without it
  // (degraded), advancing the epoch past what site 2 has seen.
  driver.sim_transport()->CrashSite(2);
  for (auto& v : locals) v = Vector{6.0, 0.0};
  for (int t = 0; t < 8 && !driver.coordinator().BelievesAbove(); ++t) {
    driver.Tick(locals);
  }
  ASSERT_TRUE(driver.coordinator().BelievesAbove());
  ASSERT_GT(driver.coordinator().epoch(), epoch_before);

  driver.sim_transport()->RecoverSite(2);
  // The site still holds its pre-crash anchor — it cannot detect the missed
  // rounds on its own; the coordinator must notice the stale epoch on its
  // next message and resync it.
  for (int t = 0;
       t < 10 && driver.site(2).epoch() < driver.coordinator().epoch();
       ++t) {
    driver.Tick(locals);
  }
  // The recovered site's stale-epoch contact triggered the rejoin
  // handshake: grant → re-anchor → fresh state → alive, epoch-current.
  EXPECT_GE(driver.coordinator().audit().rejoins_granted, 1);
  EXPECT_EQ(driver.coordinator().failure_detector().state(2),
            FailureDetector::State::kAlive);
  EXPECT_TRUE(driver.site(2).anchored());
  EXPECT_EQ(driver.site(2).epoch(), driver.coordinator().epoch());
}

TEST(RuntimeReliabilityTest, FaultFreeRunNeverRetransmits) {
  const L2Norm norm;
  RuntimeDriver driver(8, norm, Config(3.0));
  std::vector<Vector> locals(8, Vector{1.0, 0.0});
  driver.Initialize(locals);
  for (auto& v : locals) v = Vector{6.0, 0.0};
  for (int t = 0; t < 10; ++t) driver.Tick(locals);

  // Acks land in the same drain as the data they acknowledge: a reliable
  // network never reaches a retransmission deadline. (stale_epoch_drops is
  // NOT necessarily zero here — when several sites alarm in the same cycle
  // the first alarm bumps the epoch and the raced duplicates land behind
  // it; that is the coalescing path, not a fault artifact.)
  EXPECT_EQ(driver.reliable_transport().stats().retransmissions, 0);
  EXPECT_EQ(driver.reliable_transport().stats().give_ups, 0);
  EXPECT_EQ(driver.reliable_transport().stats().duplicates_suppressed, 0);
  EXPECT_EQ(driver.coordinator().audit().stale_epoch_applied, 0);
}

TEST(RuntimeReliabilityTest, FullSyncAboveInFlightCapEvictsNothing) {
  // The in-flight cap bounds each directed link, so a full sync's 700 state
  // reports — one per site → coordinator link — never crowd each other out
  // of retransmission tracking on a fault-free network, even though 700
  // exceeds the 256-entry cap.
  JesterLikeConfig workload;
  workload.num_sites = 700;
  workload.window = 50;
  workload.seed = 5;
  JesterLikeGenerator source(workload);
  const LInfDistance distance{Vector(workload.num_buckets)};
  RuntimeConfig config = Config(5.0, source.max_step_norm());
  config.drift_norm_cap = source.max_drift_norm();
  ASSERT_LT(config.reliability.max_in_flight_per_peer, workload.num_sites);
  RuntimeDriver driver(workload.num_sites, distance, config);
  std::vector<Vector> locals;
  source.Advance(&locals);
  driver.Initialize(locals);
  for (int t = 0; t < 60; ++t) {
    source.Advance(&locals);
    driver.Tick(locals);
  }
  EXPECT_GE(driver.coordinator().full_syncs(), 1);
  EXPECT_EQ(driver.reliable_transport().stats().queue_evictions, 0);
  EXPECT_EQ(driver.reliable_transport().stats().retransmissions, 0);
}

}  // namespace
}  // namespace sgm
