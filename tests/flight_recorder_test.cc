// FlightRecorder: ring semantics (wrap, overwrite accounting, oversize
// drop), dump parseability, TraceLog mirroring, and the crash contract —
// a forked child that abort()s leaves a JSONL dump the merge pipeline
// ingests with zero orphans.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "obs/trace_merge.h"

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

TEST(FlightRecorderTest, KeepsMostRecentWindowOldestFirst) {
  FlightRecorder ring(4);
  for (int i = 0; i < 10; ++i) {
    ring.Record("{\"n\": " + std::to_string(i) + "}");
  }
  const std::vector<std::string> lines = Lines(ring.DumpString());
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines.front(), "{\"n\": 6}");
  EXPECT_EQ(lines.back(), "{\"n\": 9}");
  EXPECT_EQ(ring.lines_recorded(), 10);
  EXPECT_EQ(ring.overwrites(), 6);
  EXPECT_EQ(ring.lines_dropped(), 0);
}

TEST(FlightRecorderTest, OversizeLinesAreDroppedWholeNotTruncated) {
  FlightRecorder ring(4);
  ring.Record("{\"ok\": 1}");
  ring.Record(std::string(FlightRecorder::kSlotBytes + 1, 'x'));
  ring.Record("{\"ok\": 2}");
  const std::vector<std::string> lines = Lines(ring.DumpString());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"ok\": 1}");
  EXPECT_EQ(lines[1], "{\"ok\": 2}");
  EXPECT_EQ(ring.lines_dropped(), 1);
}

// Events mirrored from a TraceLog render to the same schema-valid lines
// the regular JSONL writer would produce for the tail window.
TEST(FlightRecorderTest, MirroredTraceEventsValidateAndParse) {
  FlightRecorder ring(8);
  TraceLog log;
  log.AttachFlightRecorder(&ring);
  log.SetProcess("coordinator");
  log.SetCycle(4);
  log.Emit(TraceEventId::kSyncCycleBegin, -1,
           {{"span", 9}, {"trigger", "local_alarm"}});
  log.Emit(TraceEventId::kHeartbeat, 2);
  log.Emit(TraceEventId::kEpochBump, -1, {{"epoch", 1}});

  const std::vector<std::string> lines = Lines(ring.DumpString());
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) {
    std::string error;
    EXPECT_TRUE(ValidateTraceJsonLine(line, &error)) << line << ": " << error;
    TraceEvent event;
    EXPECT_TRUE(ParseTraceEventLine(line, &event, &error)) << error;
    EXPECT_EQ(event.proc, "coordinator");
  }
  EXPECT_EQ(ring.lines_recorded(), 3);
}

// The crash contract, end to end: a forked child arms the crash dump,
// emits through a TraceLog, then abort()s. The parent must find a dump
// whose every line parses and which merges into a span forest with no
// orphan attributable to the dump (the cascade root is in the window).
TEST(FlightRecorderTest, AbortingChildLeavesMergeIngestibleDump) {
  const std::string path =
      ::testing::TempDir() + "/flight-abort-dump.jsonl";
  std::remove(path.c_str());

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: mimic a daemon role — process label, armed recorder, a short
    // burst of cascade traffic — then die the ugly way.
    FlightRecorder& ring = FlightRecorder::Instance();
    TraceLog log;
    log.AttachFlightRecorder(&ring);
    log.SetProcess("site-3");
    log.SetCycle(11);
    log.Emit(TraceEventId::kSyncCycleBegin, -1,
             {{"span", 31}, {"trigger", "local_alarm"}});
    log.Emit(TraceEventId::kMsgSend, -1,
             {{"type", "kProbeRequest"},
              {"span", 32},
              {"parent", 31},
              {"bytes", 64}});
    log.Emit(TraceEventId::kHeartbeat, 3);
    ring.InstallCrashDump(path);
    std::abort();
  }

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child should die by signal";
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "crash dump missing at " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::vector<std::string> lines = Lines(buffer.str());
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) {
    std::string error;
    EXPECT_TRUE(ValidateTraceJsonLine(line, &error)) << line << ": " << error;
  }

  // Merge-ingest the dump like trace_inspect --merge would.
  std::vector<TraceEvent> events;
  std::string warning;
  const Status loaded = LoadTraceJsonlTolerant(path, "site-3",
                                               /*validate=*/true, &events,
                                               &warning);
  ASSERT_TRUE(loaded.ok()) << loaded.message();
  EXPECT_TRUE(warning.empty()) << warning;
  ASSERT_EQ(events.size(), 3u);
  const SpanForestSummary forest =
      SummarizeSpanForest(MergeTraceTimelines({std::move(events)}));
  EXPECT_EQ(forest.roots, 1);
  EXPECT_TRUE(forest.orphans.empty())
      << "dump introduced orphans: " << forest.orphans.front();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sgm
