#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "core/check.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"

namespace sgm {

namespace {

void AppendArgs(const std::vector<TraceArg>& args, std::ostream& out) {
  out << "{";
  bool first = true;
  for (const TraceArg& arg : args) {
    out << (first ? "" : ",") << "\"" << JsonEscape(arg.key) << "\":";
    switch (arg.kind) {
      case TraceArg::Kind::kInt:
        out << arg.int_value;
        break;
      case TraceArg::Kind::kDouble:
        AppendJsonNumber(out, arg.double_value);
        break;
      case TraceArg::Kind::kString:
        out << "\"" << JsonEscape(arg.string_value) << "\"";
        break;
    }
    first = false;
  }
  out << "}";
}

/// How head-based sampling treats an event (docs/OBSERVABILITY.md):
///  * kAlways  — rare lifecycle/diagnostic events, never sampled out;
///  * kCascade — rides a coordinator-minted span: skipped when the span
///    carries kSpanUnsampledBit (span-less instances always record);
///  * kNoise   — span-less high-volume chatter, kept by a deterministic
///    per-(actor, cycle) coin at the configured rate.
enum class SampleClass { kAlways, kCascade, kNoise };

/// The event catalog: every name a conforming trace may contain, its
/// category, the argument keys that must be present, and its sampling
/// class. Extra args are allowed (events may carry more context than the
/// schema demands); unknown names are schema violations. Keep in sync with
/// docs/OBSERVABILITY.md.
struct EventSpec {
  const char* cat;
  std::vector<const char*> required_args;
  SampleClass sample = SampleClass::kAlways;
};

const std::map<std::string, EventSpec>& EventCatalog() {
  static const auto* catalog = new std::map<std::string, EventSpec>{
      // Protocol lifecycle (coordinator / site / sim protocols).
      {"sync_cycle_begin",
       {"protocol", {"span", "trigger"}, SampleClass::kCascade}},
      {"local_alarm", {"protocol", {}}},
      {"probe_begin", {"protocol", {"epoch"}, SampleClass::kCascade}},
      {"partial_resolution", {"protocol", {}, SampleClass::kCascade}},
      {"one_d_resolution", {"protocol", {}, SampleClass::kCascade}},
      {"full_sync_begin", {"protocol", {"epoch"}, SampleClass::kCascade}},
      {"full_sync_complete",
       {"protocol", {"epoch", "degraded"}, SampleClass::kCascade}},
      {"sync_rerequest",
       {"protocol", {"epoch", "site"}, SampleClass::kCascade}},
      {"epoch_bump", {"protocol", {"epoch"}}},
      {"anchor_applied",
       {"protocol", {"epoch", "source"}, SampleClass::kCascade}},
      {"epoch_gap", {"protocol", {"from_epoch", "to_epoch"}}},
      {"stale_epoch_drop", {"protocol", {"msg_epoch"}}},
      {"late_report", {"protocol", {"site"}}},
      // Reliability layer (acks, rejoin handshake, heartbeats).
      {"heartbeat", {"reliability", {}, SampleClass::kNoise}},
      {"rejoin_request", {"reliability", {}}},
      {"rejoin_grant", {"reliability", {"epoch"}}},
      {"retransmit",
       {"reliability", {"sender", "seq", "attempt"}, SampleClass::kCascade}},
      {"give_up", {"reliability", {"sender", "seq"}}},
      {"duplicate_suppressed",
       {"reliability", {"sender", "seq"}, SampleClass::kNoise}},
      {"queue_evict", {"reliability", {"dest", "seq"}}},
      // Failure detector transitions.
      {"heartbeat_miss", {"failure", {"misses"}, SampleClass::kNoise}},
      {"suspect", {"failure", {"misses"}}},
      {"dead", {"failure", {"deaths"}}},
      {"unreachable", {"failure", {}}},
      {"quarantined", {"failure", {"until_cycle"}}},
      {"rejoin_begin", {"failure", {}}},
      {"rejoin_complete", {"failure", {}}},
      // Lag quarantine (FailureDetector): missed barrier deadlines, the
      // lagging verdict, and the staleness-window close on catch-up.
      {"deadline_miss", {"failure", {"misses"}, SampleClass::kNoise}},
      {"lagging", {"failure", {"since_cycle"}}},
      {"lag_recovered", {"failure", {"staleness_cycles"}}},
      // Per-span transport cost attribution (ReliableTransport).
      {"msg_send", {"transport", {"type", "span", "bytes"},
                    SampleClass::kCascade}},
      // Online accuracy auditing (AccuracyAuditor).
      {"bound_violation", {"audit", {"kind", "span"}}},
      // Online anomaly detection (AnomalyDetector): a tracked signal's
      // per-cycle value left its Welford z-score band.
      {"alert_raised", {"alert", {"metric", "kind", "value", "mean", "z"}}},
      // Injected faults (SimTransport).
      {"site_crash", {"fault", {}}},
      {"site_recover", {"fault", {}}},
      {"drop", {"fault", {"type"}, SampleClass::kNoise}},
      {"duplicate", {"fault", {"type"}, SampleClass::kNoise}},
      {"delay", {"fault", {"type", "rounds"}, SampleClass::kNoise}},
      {"corrupt", {"fault", {"type"}, SampleClass::kNoise}},
      {"coordinator_crash", {"fault", {"epoch"}}},
      // Crash recovery (checkpoint writes and the recovery state machine).
      {"checkpoint_write", {"recovery", {"epoch", "bytes"}}},
      {"recovery_begin", {"recovery", {"span", "epoch", "wal_replayed"}}},
      {"recovery_complete", {"recovery", {"span", "epoch", "grants"}}},
      {"snapshot_fallback", {"recovery", {"discarded"}}},
      {"wal_torn_tail", {"recovery", {"bytes"}}},
      // Deadline-driven barriers and lag quarantine (CoordinatorServer /
      // CoordinatorNode): straggler handling, never sampled away.
      {"barrier_slow", {"degraded", {"deadline_ms"}}},
      {"barrier_deadline", {"degraded", {"missed", "quarantined"}}},
      {"degraded_cycle", {"degraded", {"missing"}}},
      {"site_quarantined", {"degraded", {}}},
      // Socket-session lifecycle (CoordinatorServer / SiteClient).
      {"site_hello", {"session", {"fd"}}},
      {"site_rehello", {"session", {"fd"}}},
      {"site_disconnect", {"session", {}}},
      {"connection_lost", {"session", {"reason"}}},
      {"reconnect", {"session", {"attempt"}}},
      // Injected network chaos (ChaosSocketTransport).
      {"chaos_reset", {"chaos", {}}},
      {"chaos_half_open", {"chaos", {}}},
      {"chaos_stall", {"chaos", {"ms"}}},
      // Run/benchmark markers emitted by the tools.
      {"run_begin", {"run", {}}},
      {"cell_begin", {"run", {}}},
  };
  return *catalog;
}

/// SplitMix64 finalizer — the same mixing the seeded RNGs use, applied to
/// sampling decisions so they are a pure function of (seed, key).
std::uint64_t MixBits(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic coin: true with probability ~`rate` as a function of the
/// mixed key alone.
bool SampledCoin(std::uint64_t key, double rate) {
  // Top 53 bits → uniform double in [0, 1).
  const double u =
      static_cast<double>(MixBits(key) >> 11) * (1.0 / 9007199254740992.0);
  return u < rate;
}

/// The audit/alert/recovery planes are diagnostic surfaces an operator must
/// be able to trust at any rate; they bypass sampling entirely (checked
/// before the span scan — bound_violation carries a possibly-tagged span).
bool ExemptCategory(const std::string& cat) {
  return cat == "audit" || cat == "alert" || cat == "recovery";
}

/// Removes kSpanUnsampledBit from span-carrying args so recorded traces
/// always show the raw minted ids (and rate-1.0 output stays identical —
/// the bit is never set there).
void StripSpanTags(std::vector<TraceArg>* args) {
  for (TraceArg& arg : *args) {
    if (arg.kind != TraceArg::Kind::kInt) continue;
    if (arg.key == "span" || arg.key == "parent") {
      arg.int_value = SpanId(arg.int_value);
    }
  }
}

}  // namespace

bool TraceSampleDecision(std::uint64_t seed, std::int64_t root_span,
                         double rate) {
  if (rate >= 1.0) return true;
  if (rate <= 0.0) return false;
  return SampledCoin(seed ^ MixBits(static_cast<std::uint64_t>(
                                SpanId(root_span))),
                     rate);
}

void AppendJsonNumber(std::ostream& out, double value) {
  if (value == static_cast<double>(static_cast<long long>(value)) &&
      value > -1e15 && value < 1e15) {
    out << static_cast<long long>(value);
  } else {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    out << buffer;
  }
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void TraceLog::SetCycle(long cycle) {
  std::lock_guard<std::mutex> lock(mu_);
  cycle_ = cycle;
}

long TraceLog::cycle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cycle_;
}

void TraceLog::SetProcess(std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  proc_ = std::move(label);
}

std::string TraceLog::process() const {
  std::lock_guard<std::mutex> lock(mu_);
  return proc_;
}

void TraceLog::SetEpoch(long epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  epoch_ = epoch;
}

long TraceLog::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

void TraceLog::ConfigureSampling(double rate, std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  sample_rate_ = rate;
  sample_seed_ = seed;
}

double TraceLog::sample_rate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sample_rate_;
}

void TraceLog::AttachFlightRecorder(FlightRecorder* recorder) {
  std::lock_guard<std::mutex> lock(mu_);
  flight_ = recorder;
}

FlightRecorder* TraceLog::flight_recorder() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flight_;
}

TraceLog::SelfCost TraceLog::self_cost() const {
  std::lock_guard<std::mutex> lock(mu_);
  return self_cost_;
}

bool TraceLog::ShouldRecordLocked(const std::string& cat,
                                  const std::string& name, int actor,
                                  std::vector<TraceArg>* args) {
  if (ExemptCategory(cat)) {
    StripSpanTags(args);
    return true;
  }
  const auto& catalog = EventCatalog();
  const auto it = catalog.find(name);
  const SampleClass cls =
      it == catalog.end() ? SampleClass::kAlways : it->second.sample;
  switch (cls) {
    case SampleClass::kAlways:
      StripSpanTags(args);
      return true;
    case SampleClass::kCascade:
      for (const TraceArg& arg : *args) {
        if (arg.kind == TraceArg::Kind::kInt && arg.key == "span" &&
            SpanUnsampled(arg.int_value)) {
          return false;
        }
      }
      // Span-less (or span-0) instances have no cascade to follow — the
      // sim protocols emit these — so they always record.
      StripSpanTags(args);
      return true;
    case SampleClass::kNoise:
      return SampledCoin(sample_seed_ ^
                             MixBits(static_cast<std::uint64_t>(actor) *
                                         0x51ed270b0f4dULL +
                                     static_cast<std::uint64_t>(cycle_)),
                         sample_rate_);
  }
  return true;
}

void TraceLog::Emit(std::string cat, std::string name, int actor,
                    std::vector<TraceArg> args) {
  std::lock_guard<std::mutex> lock(mu_);
  ++self_cost_.events_emitted;
  if (sample_rate_ < 1.0 && !ShouldRecordLocked(cat, name, actor, &args)) {
    // Sampled-out fast path: counter bumps and the sampling decision only —
    // deliberately untimed, since a pair of clock reads would cost several
    // times the path itself and the whole point of sampling is that skipped
    // events are nearly free.
    ++self_cost_.events_sampled_out;
    return;
  }
  // Self-cost timing is itself sampled (every 13th recorded event, scaled
  // back up): a clock-read pair costs as much as storing the event, so
  // timing each one would double the overhead the meter exists to expose.
  // The stride is prime so it can't alias the event store's fixed-size
  // block allocations (which would attribute every allocation to a timed
  // event and overstate the extrapolation).
  const bool timed = self_cost_.events_recorded % 13 == 0;
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point();
  ++self_cost_.events_recorded;
  TraceEvent& event = events_.emplace_back();
  event.ts = next_ts_++;
  event.cycle = cycle_;
  event.cat = std::move(cat);
  event.name = std::move(name);
  event.actor = actor;
  if (!proc_.empty()) event.proc = proc_;
  event.epoch = epoch_;
  event.args = std::move(args);
  if (flight_ != nullptr) {
    // Render at emit: the recorder must hold finished lines a signal
    // handler can dump without touching the heap or this lock.
    std::ostringstream line;
    AppendEventJson(event, line);
    flight_->Record(line.str());
  }
  if (timed) {
    self_cost_.telemetry_ns +=
        13 * std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - start)
                 .count();
  }
}

std::size_t TraceLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> TraceLog::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {events_.begin(), events_.end()};
}

void TraceLog::AppendEventJson(const TraceEvent& event, std::ostream& out) {
  out << "{\"ts\":" << event.ts << ",\"cycle\":" << event.cycle << ",\"cat\":\""
      << JsonEscape(event.cat) << "\",\"name\":\"" << JsonEscape(event.name)
      << "\",\"actor\":" << event.actor;
  // Optional cross-process keys: omitted when unset so single-process
  // traces keep the historical byte-identical format.
  if (!event.proc.empty()) {
    out << ",\"proc\":\"" << JsonEscape(event.proc) << "\"";
  }
  if (event.epoch >= 0) {
    out << ",\"tepoch\":" << event.epoch;
  }
  out << ",\"args\":";
  AppendArgs(event.args, out);
  out << "}";
}

void TraceLog::WriteJsonl(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  long long bytes = 0;
  for (const TraceEvent& event : events_) {
    std::ostringstream line;
    AppendEventJson(event, line);
    line << "\n";
    const std::string rendered = line.str();
    bytes += static_cast<long long>(rendered.size());
    out << rendered;
  }
  self_cost_.bytes_written += bytes;
}

void TraceLog::WriteChromeTrace(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"traceEvents\":[\n";
  // Pseudo-thread naming: tid 0 is the coordinator, tid i+1 is site i.
  std::set<int> actors;
  for (const TraceEvent& event : events_) actors.insert(event.actor);
  bool first = true;
  for (const int actor : actors) {
    out << (first ? "" : ",\n")
        << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
        << actor + 1 << ",\"args\":{\"name\":\"";
    if (actor < 0) {
      out << "coordinator";
    } else {
      out << "site " << actor;
    }
    out << "\"}}";
    first = false;
  }
  for (const TraceEvent& event : events_) {
    out << (first ? "" : ",\n")
        << "{\"name\":\"" << JsonEscape(event.name) << "\",\"cat\":\""
        << JsonEscape(event.cat) << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0"
        << ",\"tid\":" << event.actor + 1 << ",\"ts\":" << event.ts
        << ",\"args\":";
    std::vector<TraceArg> args = event.args;
    args.emplace_back("cycle", event.cycle);
    AppendArgs(args, out);
    out << "}";
    first = false;
  }
  out << "\n]}\n";
}

bool ValidateTraceJsonLine(const std::string& line, std::string* error) {
  SGM_CHECK(error != nullptr);
  const Result<JsonValue> parsed = JsonValue::Parse(line);
  if (!parsed.ok()) {
    *error = "not valid JSON: " + parsed.status().message();
    return false;
  }
  const JsonValue& value = parsed.ValueOrDie();
  if (!value.is_object()) {
    *error = "trace line is not a JSON object";
    return false;
  }
  for (const char* key : {"ts", "cycle", "actor"}) {
    const JsonValue* field = value.Find(key);
    if (field == nullptr || !field->is_number()) {
      *error = std::string("missing or non-numeric \"") + key + "\"";
      return false;
    }
  }
  const JsonValue* name = value.Find("name");
  const JsonValue* cat = value.Find("cat");
  if (name == nullptr || !name->is_string() || cat == nullptr ||
      !cat->is_string()) {
    *error = "missing or non-string \"name\"/\"cat\"";
    return false;
  }
  const JsonValue* args = value.Find("args");
  if (args == nullptr || !args->is_object()) {
    *error = "missing or non-object \"args\"";
    return false;
  }
  // Optional cross-process stamps: when present they must be well-typed.
  if (const JsonValue* proc = value.Find("proc")) {
    if (!proc->is_string() || proc->string_value().empty()) {
      *error = "\"proc\" must be a non-empty string when present";
      return false;
    }
  }
  if (const JsonValue* tepoch = value.Find("tepoch")) {
    if (!tepoch->is_number()) {
      *error = "\"tepoch\" must be numeric when present";
      return false;
    }
  }
  const auto& catalog = EventCatalog();
  const auto it = catalog.find(name->string_value());
  if (it == catalog.end()) {
    *error = "unknown event name \"" + name->string_value() + "\"";
    return false;
  }
  if (cat->string_value() != it->second.cat) {
    *error = "event \"" + name->string_value() + "\" expects category \"" +
             it->second.cat + "\", got \"" + cat->string_value() + "\"";
    return false;
  }
  for (const char* required : it->second.required_args) {
    if (args->Find(required) == nullptr) {
      *error = "event \"" + name->string_value() +
               "\" missing required arg \"" + required + "\"";
      return false;
    }
  }
  return true;
}

}  // namespace sgm
