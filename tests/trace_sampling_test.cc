// Head-based trace sampling: decision determinism, rate-1.0 byte-identity
// with the pre-sampling format, multi-seed volume reduction with unchanged
// protocol behavior, and Prometheus exposition of the obs.* self-cost
// meters. See docs/OBSERVABILITY.md ("Trace sampling").

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/telemetry.h"
#include "obs/trace.h"
#include "sim/stress.h"

namespace sgm {
namespace {

std::string Jsonl(const TraceLog& log) {
  std::ostringstream out;
  log.WriteJsonl(out);
  return out.str();
}

TEST(TraceSampleDecisionTest, DeterministicAndRateFaithful) {
  for (std::int64_t root = 1; root <= 200; ++root) {
    EXPECT_EQ(TraceSampleDecision(7, root, 0.3),
              TraceSampleDecision(7, root, 0.3));
    EXPECT_TRUE(TraceSampleDecision(7, root, 1.0));
    EXPECT_FALSE(TraceSampleDecision(7, root, 0.0));
  }
  // The decision is a hash of (seed, root): different seeds must not agree
  // everywhere, and the empirical keep rate should track the nominal one.
  int kept = 0;
  int seed_disagreements = 0;
  for (std::int64_t root = 1; root <= 2000; ++root) {
    const bool a = TraceSampleDecision(7, root, 0.25);
    if (a) ++kept;
    if (a != TraceSampleDecision(8, root, 0.25)) ++seed_disagreements;
  }
  EXPECT_GT(kept, 2000 * 0.15);
  EXPECT_LT(kept, 2000 * 0.35);
  EXPECT_GT(seed_disagreements, 0);
}

// A TraceLog explicitly configured at rate 1.0 must behave exactly like a
// log that never heard of sampling: same events, same bytes. This is the
// unit-level half of the byte-identity contract (the CI trace job checks
// the end-to-end half against a committed dst_stress trace).
TEST(TraceSamplingTest, RateOneIsByteIdenticalToUnconfiguredLog) {
  TraceLog legacy;
  TraceLog sampled;
  sampled.ConfigureSampling(1.0, 42);
  for (TraceLog* log : {&legacy, &sampled}) {
    log->SetCycle(3);
    log->Emit(TraceEventId::kSyncCycleBegin, -1,
              {{"span", 17}, {"trigger", "local_alarm"}});
    log->Emit(TraceEventId::kMsgSend, -1,
              {{"type", "kProbeRequest"}, {"span", 18}, {"parent", 17},
               {"bytes", 48}});
    log->Emit(TraceEventId::kHeartbeat, 4);
    log->Emit(TraceEventId::kDrop, 2, {{"type", "kReport"}});
    log->Emit(TraceEventId::kBoundViolation, -1,
              {{"kind", "false_negative"}, {"span", 17}});
  }
  EXPECT_EQ(Jsonl(legacy), Jsonl(sampled));
  EXPECT_EQ(legacy.self_cost().events_recorded,
            sampled.self_cost().events_recorded);
  EXPECT_EQ(sampled.self_cost().events_sampled_out, 0);
}

// At a low rate, cascade events whose span carries the unsampled tag are
// dropped, span-tag bits are stripped from everything that IS recorded,
// and the exempt categories survive regardless of their span.
TEST(TraceSamplingTest, TaggedCascadesDropAndExemptCategoriesSurvive) {
  TraceLog log;
  log.ConfigureSampling(0.5, 42);
  const std::int64_t tagged = 21 | kSpanUnsampledBit;
  log.Emit(TraceEventId::kSyncCycleBegin, -1,
           {{"span", tagged}, {"trigger", "local_alarm"}});
  log.Emit(TraceEventId::kMsgSend, -1,
           {{"type", "kReport"}, {"span", 22 | kSpanUnsampledBit},
            {"parent", tagged}, {"bytes", 48}});
  log.Emit(TraceEventId::kSyncCycleBegin, -1,
           {{"span", 23}, {"trigger", "local_alarm"}});
  log.Emit(TraceEventId::kAlertRaised, -1,
           {{"span", tagged}, {"metric", "transport.wire_messages"}});
  log.Emit(TraceEventId::kCheckpointWrite, -1, {{"span", tagged}});

  const std::vector<TraceEvent> events = log.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "sync_cycle_begin");
  EXPECT_EQ(events[0].args[0].int_value, 23);  // untagged cascade kept
  EXPECT_EQ(events[1].cat, "alert");
  EXPECT_EQ(events[1].args[0].int_value, 21);  // tag stripped on record
  EXPECT_EQ(events[2].cat, "recovery");
  EXPECT_EQ(log.self_cost().events_sampled_out, 2);
}

// Same seed + same rate ⇒ byte-identical trace across runs, the replay
// contract extended to sampled traces.
TEST(TraceSamplingTest, SampledRuntimeTraceReplaysByteIdentical) {
  std::string first;
  for (int run = 0; run < 2; ++run) {
    Telemetry telemetry;
    StressConfig config;
    config.seed = 42;
    config.cycles = 80;
    config.drop_probability = 0.1;
    config.telemetry = &telemetry;
    config.trace_sample_rate = 0.1;
    const StressReport report = RunRuntimeStress(config);
    EXPECT_TRUE(report.ok()) << report.Summary();
    const std::string jsonl = Jsonl(telemetry.trace);
    EXPECT_FALSE(jsonl.empty());
    if (run == 0) {
      first = jsonl;
    } else {
      EXPECT_EQ(first, jsonl) << "same seed+rate must replay byte-for-byte";
    }
  }
}

long CountCategory(const std::vector<TraceEvent>& events,
                   const std::string& cat) {
  long n = 0;
  for (const TraceEvent& event : events) {
    if (event.cat == cat) ++n;
  }
  return n;
}

// The acceptance sweep: across many seeds, rate 0.1 cuts trace bytes by at
// least 80% while leaving every protocol-visible number — invariants,
// sync/reliability counters, the audit confusion matrix, and the
// unconditional audit/alert planes — exactly where the full trace left
// them. Sampling observes; it never steers.
TEST(TraceSamplingTest, FiftySeedSweepCutsBytesWithoutChangingBehavior) {
  long long full_bytes = 0;
  long long sampled_bytes = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    StressConfig config;
    config.seed = seed;
    config.cycles = 60;
    config.drop_probability = 0.1;
    config.audit = true;

    Telemetry full;
    config.telemetry = &full;
    config.trace_sample_rate = 1.0;
    const StressReport full_report = RunRuntimeStress(config);

    Telemetry sampled;
    config.telemetry = &sampled;
    config.trace_sample_rate = 0.1;
    const StressReport sampled_report = RunRuntimeStress(config);

    ASSERT_TRUE(full_report.ok()) << full_report.Summary();
    ASSERT_TRUE(sampled_report.ok()) << sampled_report.Summary();
    EXPECT_EQ(full_report.fn_cycles, sampled_report.fn_cycles);
    EXPECT_EQ(full_report.full_syncs, sampled_report.full_syncs);
    EXPECT_EQ(full_report.degraded_syncs, sampled_report.degraded_syncs);
    EXPECT_EQ(full_report.retransmissions, sampled_report.retransmissions);
    EXPECT_EQ(full_report.rejoins_granted, sampled_report.rejoins_granted);
    EXPECT_EQ(full_report.stale_epoch_drops,
              sampled_report.stale_epoch_drops);
    EXPECT_EQ(full_report.max_observed_run, sampled_report.max_observed_run);
    EXPECT_EQ(full_report.audit.true_positives,
              sampled_report.audit.true_positives);
    EXPECT_EQ(full_report.audit.false_positives,
              sampled_report.audit.false_positives);
    EXPECT_EQ(full_report.audit.false_negatives,
              sampled_report.audit.false_negatives);
    EXPECT_EQ(full_report.audit.true_negatives,
              sampled_report.audit.true_negatives);

    const std::vector<TraceEvent> full_events = full.trace.events();
    const std::vector<TraceEvent> sampled_events = sampled.trace.events();
    // audit.* and alert.* are exempt from sampling: identical counts.
    EXPECT_EQ(CountCategory(full_events, "audit"),
              CountCategory(sampled_events, "audit"));
    EXPECT_EQ(CountCategory(full_events, "alert"),
              CountCategory(sampled_events, "alert"));
    // The hot emitters (transport msg_send/retransmit) skip the Emit call
    // outright for unsampled cascades, so the sampled run sees fewer
    // emits — but everything that IS emitted is accounted for.
    const TraceLog::SelfCost cost = sampled.trace.self_cost();
    EXPECT_LE(cost.events_emitted, full.trace.self_cost().events_emitted);
    EXPECT_EQ(cost.events_emitted,
              cost.events_recorded + cost.events_sampled_out);

    full_bytes += static_cast<long long>(Jsonl(full.trace).size());
    sampled_bytes += static_cast<long long>(Jsonl(sampled.trace).size());
  }
  EXPECT_LE(sampled_bytes * 5, full_bytes)
      << "rate 0.1 must cut trace bytes by >=80%: full=" << full_bytes
      << " sampled=" << sampled_bytes;
}

// The obs.* self-cost meters flow registry → Prometheus text exposition.
TEST(TraceSamplingTest, PrometheusExposesObsSelfCostMeters) {
  Telemetry telemetry;
  StressConfig config;
  config.seed = 5;
  config.cycles = 40;
  config.telemetry = &telemetry;
  config.trace_sample_rate = 0.1;
  const StressReport report = RunRuntimeStress(config);
  ASSERT_TRUE(report.ok()) << report.Summary();

  std::ostringstream out;
  telemetry.WritePrometheus(out);
  const std::string text = out.str();
  for (const char* needle :
       {"\nsgm_obs_trace_events_total ", "\nsgm_obs_trace_recorded_total ",
        "\nsgm_obs_trace_sampled_out_total ",
        "\nsgm_obs_telemetry_ns_total "}) {
    EXPECT_NE(text.find(needle), std::string::npos)
        << "missing exposition line " << needle;
  }
  EXPECT_NE(text.find("# TYPE sgm_obs_trace_events_total counter"),
            std::string::npos);
  const TraceLog::SelfCost cost = telemetry.trace.self_cost();
  EXPECT_GT(cost.events_emitted, 0);
  EXPECT_GT(cost.events_sampled_out, 0);
  EXPECT_EQ(cost.events_emitted,
            cost.events_recorded + cost.events_sampled_out);
}

}  // namespace
}  // namespace sgm
