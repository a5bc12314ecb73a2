// Self-test of the benchmark: the exact-percentile rule, the traced
// harness's parity with sgm::RuntimeDriver on small seeds, the ledger's
// accounting identity and coverage gate, and agreement of the metric and
// workload names with BENCHMARK.json. Build and run with `python3 sgmbench/run.py --test`.
#include <gtest/gtest.h>

#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "ledger.h"
#include "obs/json.h"
#include "sim_bench.h"
#include "stats.h"
#include "workload.h"

namespace sgmbench {
namespace {

TEST(ExactPercentile, ReportsOnlyWithTenSamplesBeyond) {
  std::vector<double> samples(1000);
  std::iota(samples.begin(), samples.end(), 1.0);
  double p99 = 0.0;
  ASSERT_TRUE(ExactPercentile(samples, 0.99, &p99));
  EXPECT_EQ(p99, 990.0);  // rank ceil(0.99 * 1000); ten samples above it

  samples.pop_back();  // 999 samples: only nine would lie beyond
  double unchanged = -1.0;
  EXPECT_FALSE(ExactPercentile(samples, 0.99, &unchanged));
  EXPECT_EQ(unchanged, -1.0);

  std::vector<double> twenty(20);
  std::iota(twenty.begin(), twenty.end(), 1.0);
  double p50 = 0.0;
  ASSERT_TRUE(ExactPercentile(twenty, 0.50, &p50));
  EXPECT_EQ(p50, 10.0);
  twenty.pop_back();
  EXPECT_FALSE(ExactPercentile(twenty, 0.50, &p50));
}

TEST(ExactPercentile, ReturnsASampleNeverAnInterpolation) {
  // Two clusters far apart: any interpolating estimator lands between them.
  std::vector<double> samples;
  for (int i = 0; i < 600; ++i) samples.push_back(1000.0 + i);
  for (int i = 0; i < 600; ++i) samples.push_back(9000.0 + i);
  for (const double q : {0.25, 0.5, 0.75, 0.99}) {
    double value = 0.0;
    ASSERT_TRUE(ExactPercentile(samples, q, &value));
    EXPECT_NE(std::find(samples.begin(), samples.end(), value), samples.end())
        << "q=" << q;
  }
  double p50 = 0.0;
  ASSERT_TRUE(ExactPercentile(samples, 0.5, &p50));
  EXPECT_EQ(p50, 1599.0);  // rank 600 of 1200, the top of the low cluster
}

WorkloadSpec SmallSpec(const std::string& base, int sites) {
  WorkloadSpec spec = *FindWorkload(base);
  spec.sites = sites;
  spec.warmup_cycles = 20;
  spec.episode_cycles = 200;
  return spec;
}

void ExpectParity(const WorkloadSpec& spec, std::uint64_t seed) {
  RunTotals plain_totals;
  RunTotals traced_totals;
  Decisions plain;
  Decisions traced;
  Ledger ledger;
  TracedCounters counters;
  RunDriverEpisode(spec, seed, 0, &plain_totals, &plain);
  RunTracedEpisode(spec, seed, 0, &ledger, &counters, &traced_totals,
                   &traced);
  EXPECT_EQ(plain.belief, traced.belief);
  EXPECT_EQ(plain.full_syncs, traced.full_syncs);
  EXPECT_EQ(plain.partial_resolutions, traced.partial_resolutions);
  EXPECT_EQ(plain.paper_msgs, traced.paper_msgs);
  EXPECT_EQ(plain_totals.paper_bytes, traced_totals.paper_bytes);
  EXPECT_EQ(plain_totals.wire_bytes, traced_totals.wire_bytes);
  // The comparison has something to compare: the protocol synced.
  EXPECT_GT(plain.full_syncs, 0);
  EXPECT_GT(plain.paper_msgs, 0);
}

TEST(TracedHarness, ReproducesDriverDecisionsFaultFree) {
  ExpectParity(SmallSpec("fleet", 64), 3);
}

TEST(TracedHarness, ReproducesDriverDecisionsUnderFaultsAndCheckpoints) {
  const WorkloadSpec spec = SmallSpec("faulty", 32);
  ASSERT_TRUE(spec.faults);
  ASSERT_TRUE(spec.checkpoint);
  ExpectParity(spec, 3);
  ExpectParity(spec, 4);
}

TEST(TracedHarness, ParityCheckSeesADifferentRun) {
  const WorkloadSpec spec = SmallSpec("faulty", 32);
  RunTotals totals;
  Decisions episode0;
  Decisions episode1;
  Ledger ledger;
  TracedCounters counters;
  RunDriverEpisode(spec, 3, 0, &totals, &episode0);
  RunTracedEpisode(spec, 3, 1, &ledger, &counters, &totals, &episode1);
  EXPECT_FALSE(episode0 == episode1);
}

TEST(Ledger, SelfTimesDriverAndTracerSumToWallTime) {
  const WorkloadSpec spec = SmallSpec("faulty", 32);
  RunTotals totals;
  Decisions decisions;
  Ledger ledger;
  TracedCounters counters;
  RunTracedEpisode(spec, 5, 0, &ledger, &counters, &totals, &decisions);
  const Ledger::Totals& t = ledger.totals();
  double sum = t.tracer_ns;
  for (const double ns : t.self_ns) sum += ns;
  ASSERT_GT(t.wall_ns, 0.0);
  EXPECT_NEAR(sum / t.wall_ns, 1.0, 1e-9);
  EXPECT_GT(t.calls[kRtOnDeliver], 0);
  EXPECT_GT(t.calls[kCheckpoint], 0);
  EXPECT_GT(t.allocs[kRtSend] + t.allocs[kRtOnDeliver], 0);
  EXPECT_EQ(counters.cycles, spec.episode_cycles);
}

void BusyWaitNs(std::int64_t ns) {
  const std::int64_t end = NowNs() + ns;
  while (NowNs() < end) {
  }
}

TEST(Ledger, CoverageGateFiresWhenTimeRunsOutsideEverySpan) {
  Ledger uncovered;
  uncovered.Start();
  BusyWaitNs(2000000);  // owned by kDriver: no layer is charged
  uncovered.Stop();
  EXPECT_LT(LedgerCoverage(uncovered.totals()), 0.1);
  RunTotals failing;
  CheckCoverageGate(LedgerCoverage(uncovered.totals()), &failing);
  EXPECT_EQ(failing.gate_failures.size(), 1u);

  Ledger covered;
  covered.Start();
  {
    Span span(&covered, kSiteObserve);
    BusyWaitNs(2000000);
  }
  covered.Stop();
  EXPECT_GT(LedgerCoverage(covered.totals()), 0.99);
  RunTotals passing;
  CheckCoverageGate(LedgerCoverage(covered.totals()), &passing);
  EXPECT_TRUE(passing.gate_failures.empty());
}

std::vector<std::string> NamesIn(const sgm::JsonValue& list) {
  std::vector<std::string> names;
  for (const sgm::JsonValue& entry : list.array()) {
    names.push_back(entry.Find("name")->string_value());
  }
  return names;
}

std::vector<std::string> NamesIn(const MetricList& metrics) {
  std::vector<std::string> names;
  for (const auto& item : metrics.items()) names.push_back(item.first);
  return names;
}

TEST(BenchmarkJson, MetricNamesMatchWhatTheBenchmarkReports) {
  std::ifstream file(SGMBENCH_JSON);
  ASSERT_TRUE(file.good()) << SGMBENCH_JSON;
  std::stringstream text;
  text << file.rdbuf();
  const sgm::Result<sgm::JsonValue> parsed = sgm::JsonValue::Parse(text.str());
  ASSERT_TRUE(parsed.ok());
  const sgm::JsonValue& json = parsed.ValueOrDie();

  std::vector<std::string> e2e = NamesIn(EndToEndMetrics(RunTotals()));
  std::vector<std::string> declared = NamesIn(*json.Find("end_to_end"));
  std::sort(e2e.begin(), e2e.end());
  std::sort(declared.begin(), declared.end());
  EXPECT_EQ(e2e, declared);

  std::vector<std::string> layers = NamesIn(PerLayerMetrics({}));
  std::vector<std::string> declared_layers =
      NamesIn(*json.Find("per_layer"));
  std::sort(layers.begin(), layers.end());
  std::sort(declared_layers.begin(), declared_layers.end());
  EXPECT_EQ(layers, declared_layers);

  // fleet runs on demand only (see README.md): BENCHMARK.json lists the
  // gated workloads.
  std::vector<std::string> workloads;
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.gated) workloads.push_back(spec.name);
  }
  EXPECT_EQ(workloads, NamesIn(*json.Find("workloads")));
}

}  // namespace
}  // namespace sgmbench
