// TraceLog: logical timestamps, JSONL schema round-trip through the
// validator, Chrome trace_event output shape, and escaping.

#include "obs/trace.h"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "core/crc32c.h"
#include "gtest/gtest.h"
#include "obs/json.h"

namespace {

// Every operator new in this binary is counted, so a test can assert that
// a code path allocates nothing.
std::atomic<long> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never sees free() meet a new-expression.
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

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
        log->Emit(TraceEventId::kMsgSend, actor,
                  {{"type", "DriftReport"},
                   {"span", static_cast<std::int64_t>(i)},
                   {"parent", static_cast<std::int64_t>(i / 2)},
                   {"bytes", 64 + i % 7}});
        break;
      case 1:
        log->Emit(TraceEventId::kRetransmit, actor,
                  {{"sender", actor},
                   {"seq", static_cast<std::int64_t>(i) * 3},
                   {"attempt", i % 4}});
        break;
      case 2:
        log->Emit(TraceEventId::kDelay, actor,
                  {{"type", "Ack \"quoted\""}, {"rounds", i % 3}});
        break;
      default:
        log->Emit(TraceEventId::kPartialResolution, actor,
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

TEST(TraceLogTest, EmitDoesNotAllocatePerEvent) {
  // A sampled-out emit touches no memory but the log's counters.
  TraceLog sampled;
  sampled.ConfigureSampling(0.1, 7);
  long before = g_allocations.load();
  for (int i = 0; i < 10000; ++i) {
    sampled.Emit(TraceEventId::kMsgSend, i % 128,
                 {{"type", "DriftReport"},
                  {"span", static_cast<std::int64_t>(i) | kSpanUnsampledBit},
                  {"bytes", 48}});
  }
  const long sampled_out_allocations = g_allocations.load() - before;
  EXPECT_EQ(sampled_out_allocations, 0);
  EXPECT_EQ(sampled.self_cost().events_sampled_out, 10000);

  // A recorded emit allocates only when it opens a new arena chunk: each
  // record is a 24-byte header plus 16 bytes per field, packed into
  // 64 KiB chunks.
  constexpr long kEvents = 100000;
  constexpr long kRecordBytes = 24 + 3 * 16;
  constexpr long kChunks = kEvents * kRecordBytes / (64 * 1024 - 16) + 1;
  TraceLog recorded;
  before = g_allocations.load();
  for (long i = 0; i < kEvents; ++i) {
    recorded.Emit(TraceEventId::kMsgSend, static_cast<int>(i % 128),
                  {{"type", "DriftReport"},
                   {"span", static_cast<std::int64_t>(i)},
                   {"bytes", 48}});
  }
  const long recorded_allocations = g_allocations.load() - before;
  EXPECT_EQ(recorded.size(), static_cast<std::size_t>(kEvents));
  EXPECT_GT(recorded_allocations, 0);
  EXPECT_LE(recorded_allocations, kChunks);
}

TEST(TraceLogTest, TimestampsAreMonotoneAndCycleStamped) {
  TraceLog log;
  log.Emit(TraceEventId::kRunBegin, -1);
  log.SetCycle(7);
  log.Emit(TraceEventId::kHeartbeat, 3);
  log.Emit(TraceEventId::kEpochBump, -1, {{"epoch", 2}});

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
  log.Emit(TraceEventId::kLocalAlarm, 4);
  log.Emit(TraceEventId::kProbeBegin, -1, {{"epoch", 3}});
  log.Emit(TraceEventId::kPartialResolution, -1);
  log.Emit(TraceEventId::kOneDResolution, -1);
  log.Emit(TraceEventId::kFullSyncBegin, -1, {{"epoch", 3}});
  log.Emit(TraceEventId::kFullSyncComplete, -1,
           {{"epoch", 3}, {"degraded", 0}});
  log.Emit(TraceEventId::kSyncRerequest, -1, {{"epoch", 3}, {"site", 2}});
  log.Emit(TraceEventId::kEpochBump, -1, {{"epoch", 4}});
  log.Emit(TraceEventId::kAnchorApplied, 2,
           {{"epoch", 4}, {"source", "new_estimate"}});
  log.Emit(TraceEventId::kEpochGap, 2, {{"from_epoch", 2}, {"to_epoch", 4}});
  log.Emit(TraceEventId::kStaleEpochDrop, 2, {{"msg_epoch", 1}});
  log.Emit(TraceEventId::kLateReport, -1, {{"site", 5}});
  log.Emit(TraceEventId::kHeartbeat, 0);
  log.Emit(TraceEventId::kRejoinRequest, 1);
  log.Emit(TraceEventId::kRejoinGrant, 1, {{"epoch", 4}});
  log.Emit(TraceEventId::kRetransmit, 0,
           {{"sender", 0}, {"seq", 17}, {"attempt", 2}});
  log.Emit(TraceEventId::kGiveUp, 0, {{"sender", 0}, {"seq", 17}});
  log.Emit(TraceEventId::kDuplicateSuppressed, 3,
           {{"sender", 1}, {"seq", 9}});
  log.Emit(TraceEventId::kHeartbeatMiss, 6, {{"misses", 2}});
  log.Emit(TraceEventId::kSuspect, 6, {{"misses", 4}});
  log.Emit(TraceEventId::kDead, 6, {{"deaths", 1}});
  log.Emit(TraceEventId::kUnreachable, 6);
  log.Emit(TraceEventId::kQuarantined, 6, {{"until_cycle", 40}});
  log.Emit(TraceEventId::kRejoinBegin, 6);
  log.Emit(TraceEventId::kRejoinComplete, 6);
  log.Emit(TraceEventId::kSiteCrash, 8);
  log.Emit(TraceEventId::kSiteRecover, 8);
  log.Emit(TraceEventId::kDrop, 8, {{"type", "Report"}});
  log.Emit(TraceEventId::kDuplicate, 8, {{"type", "Ack"}});
  log.Emit(TraceEventId::kDelay, 8, {{"type", "Probe"}, {"rounds", 2}});
  log.Emit(TraceEventId::kRunBegin, -1);
  log.Emit(TraceEventId::kCellBegin, -1, {{"seed", 1}, {"drop", 0.3}});

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
  log.Emit(TraceEventId::kEpochBump, -1, {{"epoch", 1}});
  log.Emit(TraceEventId::kHeartbeat, 2);

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

std::vector<std::string> BacktickedNames(const std::string& cell) {
  std::vector<std::string> names;
  std::size_t at = 0;
  while ((at = cell.find('`', at)) != std::string::npos) {
    const std::size_t end = cell.find('`', at + 1);
    if (end == std::string::npos) break;
    names.push_back(cell.substr(at + 1, end - at - 1));
    at = end + 1;
  }
  return names;
}

// docs/OBSERVABILITY.md documents the catalog as a `| cat | name | required
// args |` table; it must list exactly kTraceCatalog's events, categories
// and required args (in order).
TEST(TraceCatalogTest, DocsTableMatchesCatalog) {
  std::ifstream docs(std::string(SGM_SOURCE_DIR) + "/docs/OBSERVABILITY.md");
  ASSERT_TRUE(docs) << "cannot open docs/OBSERVABILITY.md";
  struct Row {
    std::string cat;
    std::vector<std::string> args;
  };
  std::map<std::string, Row> documented;
  bool in_table = false;
  std::string line;
  while (std::getline(docs, line)) {
    if (line.rfind("| cat | name | required args |", 0) == 0) {
      in_table = true;
      continue;
    }
    if (!in_table) continue;
    if (line.rfind("|---", 0) == 0) continue;
    if (line.rfind("|", 0) != 0) break;
    std::vector<std::string> cells;
    std::stringstream row(line.substr(1));
    std::string cell;
    while (std::getline(row, cell, '|')) cells.push_back(cell);
    ASSERT_GE(cells.size(), 3u) << line;
    std::string cat = cells[0];
    cat.erase(0, cat.find_first_not_of(' '));
    cat.erase(cat.find_last_not_of(' ') + 1);
    for (const std::string& name : BacktickedNames(cells[1])) {
      EXPECT_TRUE(documented.count(name) == 0) << "documented twice: " << name;
      documented[name] = {cat, BacktickedNames(cells[2])};
    }
  }
  ASSERT_FALSE(documented.empty()) << "event table not found";

  EXPECT_EQ(documented.size(), std::size(kTraceCatalog));
  for (const TraceEventSpec& spec : kTraceCatalog) {
    const std::string name(spec.name);
    const auto it = documented.find(name);
    if (it == documented.end()) {
      ADD_FAILURE() << "undocumented event: " << name;
      continue;
    }
    EXPECT_EQ(it->second.cat, spec.category) << name;
    std::vector<std::string> required;
    for (const TraceKey key : spec.required) {
      required.emplace_back(key.name());
    }
    EXPECT_EQ(it->second.args, required) << name;
  }
}

TEST(JsonEscapeTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(TraceLogTest, JsonlEscapesStringArgs) {
  TraceLog log;
  log.Emit(TraceEventId::kDrop, 0, {{"type", "weird\"name"}});
  std::ostringstream out;
  log.WriteJsonl(out);
  std::string error;
  EXPECT_TRUE(ValidateTraceJsonLine(Lines(out.str())[0], &error)) << error;
}

}  // namespace
}  // namespace sgm
