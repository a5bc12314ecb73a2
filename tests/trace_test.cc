// TraceLog: logical timestamps, JSONL schema round-trip through the
// validator, Chrome trace_event output shape, and escaping.

#include "obs/trace.h"

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/crc32c.h"
#include "gtest/gtest.h"
#include "obs/json.h"

namespace sgm {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// Emits `count` events that exercise every argument kind, cycle and
// epoch stamps, and a process label switched on part-way through.
void FillLargeTrace(TraceLog* log, int count) {
  for (int i = 0; i < count; ++i) {
    if (i % 97 == 0) log->SetCycle(i / 97);
    if (i % 1000 == 0) log->SetEpoch(i / 1000);
    if (i == count / 2) log->SetProcess("site-3");
    const int actor = i % 129 - 1;
    switch (i % 4) {
      case 0:
        log->Emit("transport", "msg_send", actor,
                  {{"type", "DriftReport"},
                   {"span", static_cast<std::int64_t>(i)},
                   {"parent", static_cast<std::int64_t>(i / 2)},
                   {"bytes", 64 + i % 7}});
        break;
      case 1:
        log->Emit("reliability", "retransmit", actor,
                  {{"sender", actor},
                   {"seq", static_cast<std::int64_t>(i) * 3},
                   {"attempt", i % 4}});
        break;
      case 2:
        log->Emit("fault", "delay", actor,
                  {{"type", "Ack \"quoted\""}, {"rounds", i % 3}});
        break;
      default:
        log->Emit("protocol", "partial_resolution", actor,
                  {{"estimate", i / 7.0}, {"scale", 1e-9 * i}});
        break;
    }
  }
}

TEST(TraceLogTest, LargeTraceWritesPinnedJsonl) {
  // Well past any small-buffer regime of the event store: the bytes a
  // 120k-event log writes are pinned (size and CRC32C), so no change to how
  // events are stored can alter the JSONL format.
  TraceLog log;
  FillLargeTrace(&log, 120000);
  ASSERT_EQ(log.size(), 120000u);
  std::ostringstream out;
  log.WriteJsonl(out);
  const std::string text = out.str();
  EXPECT_EQ(text.size(), 18011843u);
  EXPECT_EQ(Crc32c(reinterpret_cast<const std::uint8_t*>(text.data()),
                   text.size()),
            0xb476bad9u);

  // Each line is its event's own rendering, in emit order.
  std::string rebuilt;
  for (const TraceEvent& event : log.events()) {
    std::ostringstream line;
    TraceLog::AppendEventJson(event, line);
    rebuilt += line.str() + "\n";
  }
  EXPECT_EQ(text, rebuilt);
}

TEST(TraceLogTest, TimestampsAreMonotoneAndCycleStamped) {
  TraceLog log;
  log.Emit("run", "run_begin", -1);
  log.SetCycle(7);
  log.Emit("reliability", "heartbeat", 3);
  log.Emit("protocol", "epoch_bump", -1, {{"epoch", 2}});

  const std::vector<TraceEvent> events = log.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].ts, 0);
  EXPECT_EQ(events[0].cycle, 0);
  EXPECT_EQ(events[1].ts, 1);
  EXPECT_EQ(events[1].cycle, 7);
  EXPECT_EQ(events[2].ts, 2);
  EXPECT_EQ(events[2].actor, -1);
  ASSERT_EQ(events[2].args.size(), 1u);
  EXPECT_EQ(events[2].args[0].key, "epoch");
  EXPECT_EQ(events[2].args[0].int_value, 2);
}

// One event of every catalog entry, with its required args, must survive
// the JSONL writer → line validator round trip. This is the test that
// keeps writer, catalog and docs/OBSERVABILITY.md aligned.
TEST(TraceLogTest, EveryCatalogEventValidatesAfterJsonlRoundTrip) {
  TraceLog log;
  log.SetCycle(12);
  log.Emit("protocol", "local_alarm", 4);
  log.Emit("protocol", "probe_begin", -1, {{"epoch", 3}});
  log.Emit("protocol", "partial_resolution", -1);
  log.Emit("protocol", "one_d_resolution", -1);
  log.Emit("protocol", "full_sync_begin", -1, {{"epoch", 3}});
  log.Emit("protocol", "full_sync_complete", -1,
           {{"epoch", 3}, {"degraded", 0}});
  log.Emit("protocol", "sync_rerequest", -1, {{"epoch", 3}, {"site", 2}});
  log.Emit("protocol", "epoch_bump", -1, {{"epoch", 4}});
  log.Emit("protocol", "anchor_applied", 2,
           {{"epoch", 4}, {"source", "new_estimate"}});
  log.Emit("protocol", "epoch_gap", 2, {{"from_epoch", 2}, {"to_epoch", 4}});
  log.Emit("protocol", "stale_epoch_drop", 2, {{"msg_epoch", 1}});
  log.Emit("protocol", "late_report", -1, {{"site", 5}});
  log.Emit("reliability", "heartbeat", 0);
  log.Emit("reliability", "rejoin_request", 1);
  log.Emit("reliability", "rejoin_grant", 1, {{"epoch", 4}});
  log.Emit("reliability", "retransmit", 0,
           {{"sender", 0}, {"seq", 17}, {"attempt", 2}});
  log.Emit("reliability", "give_up", 0, {{"sender", 0}, {"seq", 17}});
  log.Emit("reliability", "duplicate_suppressed", 3,
           {{"sender", 1}, {"seq", 9}});
  log.Emit("failure", "heartbeat_miss", 6, {{"misses", 2}});
  log.Emit("failure", "suspect", 6, {{"misses", 4}});
  log.Emit("failure", "dead", 6, {{"deaths", 1}});
  log.Emit("failure", "unreachable", 6);
  log.Emit("failure", "quarantined", 6, {{"until_cycle", 40}});
  log.Emit("failure", "rejoin_begin", 6);
  log.Emit("failure", "rejoin_complete", 6);
  log.Emit("fault", "site_crash", 8);
  log.Emit("fault", "site_recover", 8);
  log.Emit("fault", "drop", 8, {{"type", "Report"}});
  log.Emit("fault", "duplicate", 8, {{"type", "Ack"}});
  log.Emit("fault", "delay", 8, {{"type", "Probe"}, {"rounds", 2}});
  log.Emit("run", "run_begin", -1);
  log.Emit("run", "cell_begin", -1, {{"seed", 1}, {"drop", 0.3}});

  std::ostringstream out;
  log.WriteJsonl(out);
  const std::vector<std::string> lines = Lines(out.str());
  ASSERT_EQ(lines.size(), log.size());
  for (const std::string& line : lines) {
    std::string error;
    EXPECT_TRUE(ValidateTraceJsonLine(line, &error)) << line << ": " << error;
  }
}

TEST(TraceValidatorTest, RejectsMalformedLines) {
  std::string error;
  EXPECT_FALSE(ValidateTraceJsonLine("not json", &error));
  EXPECT_FALSE(ValidateTraceJsonLine("[1,2]", &error));
  // Missing structural keys.
  EXPECT_FALSE(ValidateTraceJsonLine(
      R"({"cycle":0,"cat":"run","name":"run_begin","actor":0,"args":{}})",
      &error));
  // Unknown event name.
  EXPECT_FALSE(ValidateTraceJsonLine(
      R"({"ts":0,"cycle":0,"cat":"run","name":"bogus","actor":0,"args":{}})",
      &error));
  EXPECT_NE(error.find("unknown event"), std::string::npos);
  // Wrong category for a known name.
  EXPECT_FALSE(ValidateTraceJsonLine(
      R"({"ts":0,"cycle":0,"cat":"fault","name":"heartbeat","actor":0,)"
      R"("args":{}})",
      &error));
  // Missing required arg.
  EXPECT_FALSE(ValidateTraceJsonLine(
      R"({"ts":0,"cycle":0,"cat":"protocol","name":"epoch_bump","actor":0,)"
      R"("args":{}})",
      &error));
  EXPECT_NE(error.find("epoch"), std::string::npos);
  // Extra args beyond the required set are allowed.
  EXPECT_TRUE(ValidateTraceJsonLine(
      R"({"ts":0,"cycle":0,"cat":"protocol","name":"epoch_bump","actor":0,)"
      R"("args":{"epoch":1,"extra":"ok"}})",
      &error))
      << error;
}

TEST(TraceLogTest, ChromeTraceParsesAndNamesThreads) {
  TraceLog log;
  log.SetCycle(5);
  log.Emit("protocol", "epoch_bump", -1, {{"epoch", 1}});
  log.Emit("reliability", "heartbeat", 2);

  std::ostringstream out;
  log.WriteChromeTrace(out);
  auto parsed = JsonValue::Parse(out.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const JsonValue* events = parsed.ValueOrDie().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // 2 thread_name metadata rows (coordinator + site 2) + 2 instant events.
  ASSERT_EQ(events->array().size(), 4u);

  const JsonValue& coordinator_meta = events->array()[0];
  EXPECT_EQ(coordinator_meta.Find("ph")->string_value(), "M");
  EXPECT_DOUBLE_EQ(coordinator_meta.NumberOr("tid", -1), 0.0);  // actor -1
  EXPECT_EQ(coordinator_meta.Find("args")->Find("name")->string_value(),
            "coordinator");

  const JsonValue& instant = events->array()[2];
  EXPECT_EQ(instant.Find("name")->string_value(), "epoch_bump");
  EXPECT_EQ(instant.Find("ph")->string_value(), "i");
  // The cycle rides along as an arg on every instant event.
  EXPECT_DOUBLE_EQ(instant.Find("args")->NumberOr("cycle", -1), 5.0);
}

TEST(JsonEscapeTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(TraceLogTest, JsonlEscapesStringArgs) {
  TraceLog log;
  log.Emit("fault", "drop", 0, {{"type", "weird\"name"}});
  std::ostringstream out;
  log.WriteJsonl(out);
  std::string error;
  EXPECT_TRUE(ValidateTraceJsonLine(Lines(out.str())[0], &error)) << error;
}

}  // namespace
}  // namespace sgm
