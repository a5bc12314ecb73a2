#ifndef SGM_OBS_TRACE_H_
#define SGM_OBS_TRACE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace sgm {

class FlightRecorder;

// ── Head-based trace sampling ────────────────────────────────────────────
//
// The coordinator decides, per root span (one sync cascade), whether the
// cascade is traced, and carries the decision inside the span id itself:
// an unsampled cascade's spans have kSpanUnsampledBit set. Sites echo span
// ids verbatim, so the decision propagates across processes with zero new
// wire fields and zero frame-size change. TraceLog strips the bit before
// anything is recorded, so written traces always show the raw minted ids.

/// Tag bit marking a span id as belonging to an unsampled cascade. Bit 62
/// keeps tagged ids positive (span ids are small minted counters, so the
/// payload bits never collide with the tag).
constexpr std::int64_t kSpanUnsampledBit = std::int64_t{1} << 62;

/// The raw minted span id, with any sampling tag removed.
constexpr std::int64_t SpanId(std::int64_t span) {
  return span & ~kSpanUnsampledBit;
}

/// True when the span carries the unsampled tag.
constexpr bool SpanUnsampled(std::int64_t span) {
  return (span & kSpanUnsampledBit) != 0;
}

/// The coordinator's deterministic per-cascade sampling decision: true ⇒
/// the cascade rooted at `root_span` is traced. Seeded (same seed + rate →
/// same decisions, the determinism contract), rate 1.0 ⇒ always true and
/// 0.0 ⇒ always false.
bool TraceSampleDecision(std::uint64_t seed, std::int64_t root_span,
                         double rate);

/// One structured argument of a trace event. Values are integers, doubles
/// or short strings; keys are lower_snake identifiers.
struct TraceArg {
  enum class Kind { kInt, kDouble, kString };

  TraceArg(std::string k, std::int64_t v)
      : key(std::move(k)), kind(Kind::kInt), int_value(v) {}
  TraceArg(std::string k, int v)
      : TraceArg(std::move(k), static_cast<std::int64_t>(v)) {}
  TraceArg(std::string k, double v)
      : key(std::move(k)), kind(Kind::kDouble), double_value(v) {}
  TraceArg(std::string k, std::string v)
      : key(std::move(k)), kind(Kind::kString), string_value(std::move(v)) {}
  TraceArg(std::string k, const char* v)
      : TraceArg(std::move(k), std::string(v)) {}

  std::string key;
  Kind kind;
  std::int64_t int_value = 0;
  double double_value = 0.0;
  std::string string_value;
};

/// One protocol-lifecycle event.
///
/// Timestamps are *logical*: `ts` is the event's position in the run (a
/// process-wide monotone index, incremented per emit) and `cycle` the update
/// cycle it occurred in. No wall clock enters a trace, so a replay from the
/// same seed reproduces the file byte-for-byte (the determinism contract
/// dst_stress and the CI trace job rely on).
struct TraceEvent {
  long ts = 0;       ///< monotone per-log event index (logical time)
  long cycle = 0;    ///< update cycle the event belongs to
  std::string cat;   ///< "protocol" | "reliability" | "failure" | "fault" | ...
  std::string name;  ///< event type, see docs/OBSERVABILITY.md catalog
  int actor = 0;     ///< site id, or kCoordinatorId (-1) for the coordinator
  /// Emitting process label (`"coordinator"`, `"site-3"`, ...). Empty in
  /// single-process runs; set via TraceLog::SetProcess in daemon/fork
  /// deployments so per-process files can be merged (serialized as the
  /// optional `"proc"` JSONL key).
  std::string proc;
  /// Coordinator-issued trace epoch active when the event was emitted, or
  /// -1 before the first epoch is known (serialized as the optional
  /// `"tepoch"` key). Sites stamp the epoch they last anchored to, so the
  /// merged timeline can group events by protocol incarnation.
  long epoch = -1;
  std::vector<TraceArg> args;
};

/// Append-only structured event log with JSONL and Chrome trace_event
/// output. Thread-safe (a mutex serializes emits); in the single-threaded
/// simulation drivers the emit order — and therefore the file — is fully
/// deterministic.
class TraceLog {
 public:
  TraceLog() = default;
  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  /// Sets the cycle stamped on subsequent events (drivers call this once
  /// per update cycle).
  void SetCycle(long cycle);
  long cycle() const;

  /// Sets the process label stamped on subsequent events. Call once at
  /// process start (before the run emits) so every line of this process's
  /// file carries the same `"proc"` key. Unset → key omitted, keeping
  /// single-process traces byte-identical to the pre-merge format.
  void SetProcess(std::string label);
  std::string process() const;

  /// Sets the coordinator-issued trace epoch stamped on subsequent events.
  /// The coordinator calls this when it mints an epoch (bump / recovery
  /// fence); sites call it when they anchor to one (rejoin/full-sync), so
  /// the stamp is always coordinator-issued. Negative → key omitted.
  void SetEpoch(long epoch);
  long epoch() const;

  void Emit(std::string cat, std::string name, int actor,
            std::vector<TraceArg> args = {});

  /// Arms head-based sampling: cascade events whose span carries
  /// kSpanUnsampledBit are skipped, and span-less high-volume "noise"
  /// events (heartbeats, injected faults, duplicate suppressions) are kept
  /// with a deterministic per-(actor, cycle) coin at the same rate. The
  /// audit/alert/recovery categories and all rare lifecycle events are
  /// never sampled out. Rate 1.0 (the default) records everything and is
  /// byte-identical to the pre-sampling format. The seed and rate must
  /// match the RuntimeConfig driving the coordinator — both come from the
  /// same config in every driver.
  void ConfigureSampling(double rate, std::uint64_t seed);
  double sample_rate() const;

  /// Mirrors every recorded event into `recorder` (rendered to its JSONL
  /// line at emit time), so a fatal signal can dump the recent window.
  /// Pass nullptr to detach. The recorder must outlive the log.
  void AttachFlightRecorder(FlightRecorder* recorder);
  FlightRecorder* flight_recorder() const;

  /// What the telemetry itself cost so far (the obs.* meter sources).
  struct SelfCost {
    long events_emitted = 0;      ///< Emit calls, sampled or not
    long events_recorded = 0;     ///< events kept in the log
    long events_sampled_out = 0;  ///< events skipped by sampling
    long long bytes_written = 0;  ///< JSONL bytes produced by WriteJsonl
    long long telemetry_ns = 0;   ///< wall ns inside Emit (metrics-only)
  };
  SelfCost self_cost() const;

  std::size_t size() const;
  /// Snapshot accessor for tests; copies under the lock.
  std::vector<TraceEvent> events() const;

  /// One `{"ts":..,"cycle":..,"cat":..,"name":..,"actor":..,"args":{..}}`
  /// object per line, in emit order.
  void WriteJsonl(std::ostream& out) const;

  /// Chrome trace_event JSON (load via chrome://tracing or Perfetto): each
  /// event becomes an instant event on the actor's pseudo-thread (tid 0 =
  /// coordinator, tid i+1 = site i), ts in logical units, plus
  /// thread_name metadata rows.
  void WriteChromeTrace(std::ostream& out) const;

  static void AppendEventJson(const TraceEvent& event, std::ostream& out);

 private:
  /// The sampling gate; caller holds mu_. Strips span tags from `args` and
  /// returns whether the event is recorded.
  bool ShouldRecordLocked(const std::string& cat, const std::string& name,
                          int actor, std::vector<TraceArg>* args);

  mutable std::mutex mu_;
  long cycle_ = 0;
  long next_ts_ = 0;
  std::string proc_;
  long epoch_ = -1;
  double sample_rate_ = 1.0;
  std::uint64_t sample_seed_ = 0;
  FlightRecorder* flight_ = nullptr;
  mutable SelfCost self_cost_;
  /// Recorded events. A deque never moves what it already holds, so a long
  /// run's emits stay O(1) instead of periodically copying the whole log.
  std::deque<TraceEvent> events_;
};

/// Validates one JSONL trace line against the event schema: structural keys
/// (ts/cycle/cat/name/actor/args), a known event name, the name's expected
/// category, and its required argument keys. Returns false and fills
/// `error` on the first problem. The catalog lives in trace.cc and is
/// documented in docs/OBSERVABILITY.md.
bool ValidateTraceJsonLine(const std::string& line, std::string* error);

/// JSON string escaping shared by the trace/metric writers.
std::string JsonEscape(const std::string& text);

/// Deterministic JSON number formatting shared by the trace/alert writers:
/// integral values print without a fraction, everything else as %.17g (the
/// shortest round-trippable form), so replaying a seed reproduces every
/// JSONL artifact byte for byte.
void AppendJsonNumber(std::ostream& out, double value);

}  // namespace sgm

#endif  // SGM_OBS_TRACE_H_
