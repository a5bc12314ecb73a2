// Tests of the message-passing runtime (src/runtime): protocol flow,
// accounting, belief correctness, cooldown propagation, and exact
// agreement with the simulator-side SGM on the same workloads.

#include <gtest/gtest.h>

#include "functions/l2_norm.h"
#include "runtime/driver.h"
#include "sim/stress.h"

namespace sgm {
namespace {

RuntimeConfig BasicConfig(double threshold, double step = 1.0) {
  RuntimeConfig config;
  config.threshold = threshold;
  config.max_step_norm = step;
  return config;
}

TEST(RuntimeTest, InitializationSynchronizes) {
  const L2Norm norm;
  RuntimeDriver driver(3, norm, BasicConfig(10.0));
  driver.Initialize({Vector{1.0, 0.0}, Vector{2.0, 0.0}, Vector{3.0, 0.0}});
  EXPECT_EQ(driver.coordinator().estimate(), (Vector{2.0, 0.0}));
  EXPECT_FALSE(driver.coordinator().BelievesAbove());
  EXPECT_EQ(driver.coordinator().full_syncs(), 1);
  // Init cost: 1 state request + 3 reports + 1 estimate broadcast.
  EXPECT_EQ(driver.bus().messages_sent(), 5);
  EXPECT_EQ(driver.bus().site_messages_sent(), 3);
}

TEST(RuntimeTest, EpsilonTBroadcastMatchesSurfaceDistance) {
  const L2Norm norm;
  RuntimeDriver driver(2, norm, BasicConfig(7.0));
  driver.Initialize({Vector{3.0, 0.0}, Vector{1.0, 0.0}});
  // e = (2, 0); surface ‖v‖ = 7 → ε_T = 5.
  EXPECT_NEAR(driver.coordinator().epsilon_T(), 5.0, 1e-9);
}

TEST(RuntimeTest, QuietCyclesCostNothing) {
  const L2Norm norm;
  RuntimeDriver driver(4, norm, BasicConfig(100.0));
  const std::vector<Vector> locals(4, Vector{1.0, 1.0});
  driver.Initialize(locals);
  const long after_init = driver.bus().messages_sent();
  for (int t = 0; t < 20; ++t) driver.Tick(locals);
  EXPECT_EQ(driver.bus().messages_sent(), after_init);
}

TEST(RuntimeTest, TrueCrossingFlipsBelief) {
  const L2Norm norm;
  RuntimeConfig config = BasicConfig(3.0, /*step=*/10.0);
  RuntimeDriver driver(2, norm, config);
  driver.Initialize({Vector{1.0, 0.0}, Vector{1.0, 0.0}});
  EXPECT_FALSE(driver.coordinator().BelievesAbove());

  // Both sites jump outward; with drifts this large the sampling
  // probabilities clamp to ~1 and the alarm cascades to a full sync.
  for (int t = 0; t < 5; ++t) {
    driver.Tick({Vector{6.0, 0.0}, Vector{6.0, 0.0}});
    if (driver.coordinator().BelievesAbove()) break;
  }
  EXPECT_TRUE(driver.coordinator().BelievesAbove());
  EXPECT_GE(driver.coordinator().full_syncs(), 2);  // init + crossing
}

TEST(RuntimeTest, PartialResolutionAvoidsFullSync) {
  const L2Norm norm;
  RuntimeConfig config = BasicConfig(6.0, /*step=*/10.0);
  config.seed = 3;
  // Keep U tight so a single-site Horvitz–Thompson sample stays
  // informative: the inverse-probability weight of a lone report is
  // U/(ln(1/δ)·√N), so a large U would inflate v̂ toward the surface and
  // conservatively escalate.
  config.u_threshold_factor = 2.0;
  const int n = 40;
  RuntimeDriver driver(n, norm, config);
  std::vector<Vector> locals(n, Vector{1.0, 0.0});
  driver.Initialize(locals);

  // One outlier site swings far (its ball reaches past T = 6) while the
  // 40-site average barely moves: some cycle will sample it, alarm, and the
  // HT-vetted probe must dismiss the alarm.
  locals[0] = Vector{6.5, 0.0};
  long partials = 0;
  for (int t = 0; t < 40 && partials == 0; ++t) {
    driver.Tick(locals);
    partials = driver.coordinator().partial_resolutions();
  }
  EXPECT_GE(partials, 1);
  EXPECT_EQ(driver.coordinator().full_syncs(), 1);  // init only
  EXPECT_FALSE(driver.coordinator().BelievesAbove());
}

TEST(RuntimeTest, CooldownSuppressesRepeatAlarms) {
  const L2Norm norm;
  RuntimeConfig config = BasicConfig(6.0, /*step=*/0.5);
  config.seed = 3;
  const int n = 40;
  RuntimeDriver driver(n, norm, config);
  std::vector<Vector> locals(n, Vector{1.0, 0.0});
  driver.Initialize(locals);

  locals[0] = Vector{3.5, 0.0};  // persistent outlier, harmless average
  long first_partial_cycle = -1;
  long second_partial_cycle = -1;
  for (int t = 1; t <= 200; ++t) {
    driver.Tick(locals);
    const long partials = driver.coordinator().partial_resolutions();
    if (partials >= 1 && first_partial_cycle < 0) first_partial_cycle = t;
    if (partials >= 2 && second_partial_cycle < 0) {
      second_partial_cycle = t;
      break;
    }
  }
  if (first_partial_cycle >= 0 && second_partial_cycle >= 0) {
    // With step 0.5 and several units of room, the certified mute spans
    // multiple cycles: repeat alarms cannot be adjacent.
    EXPECT_GT(second_partial_cycle - first_partial_cycle, 1);
  }
}

TEST(RuntimeTest, MatchesSimulatorCycleForCycle) {
  // The runtime nodes and the simulator's SGM call one decision core
  // (gm/sgm_core.h) and derive the same per-site coin streams, so on a
  // fault-free bus they must decide identically every cycle: belief, sync
  // kind, first-trial site set and estimate, compared exactly. The sim runs
  // with both escalation knobs off (the runtime has neither). 400 sites is
  // above the reliability layer's 256-entry in-flight cap.
  long flips = 0;
  for (const int sites : {24, 120, 400}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      for (const StressFunction function :
           {StressFunction::kL2Norm, StressFunction::kLinfDistance}) {
        StressConfig config;
        config.seed = seed;
        config.num_sites = sites;
        config.function = function;
        const StressReport report = RunDriverEquivalence(config);
        EXPECT_TRUE(report.ok()) << report.Summary();
        EXPECT_EQ(report.cycles, config.cycles) << report.Summary();
        flips += report.belief_flips;
      }
    }
  }
  EXPECT_GT(flips, 0) << "no run crossed the threshold";
}

TEST(RuntimeTest, SiteFirstTrialFlagConsistent) {
  const L2Norm norm;
  RuntimeConfig config = BasicConfig(5.0);
  RuntimeDriver driver(5, norm, config);
  std::vector<Vector> locals(5, Vector{1.0, 0.0});
  driver.Initialize(locals);
  driver.Tick(locals);
  // Zero drift ⇒ zero sampling probability ⇒ nobody in the first trial.
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(driver.site(i).in_first_trial());
  }
}

TEST(RuntimeTest, MessageTypeNamesExist) {
  EXPECT_STREQ(
      RuntimeMessage::TypeName(RuntimeMessage::Type::kLocalViolation).c_str(),
      "LocalViolation");
  EXPECT_STREQ(
      RuntimeMessage::TypeName(RuntimeMessage::Type::kNewEstimate).c_str(),
      "NewEstimate");
}

}  // namespace
}  // namespace sgm
