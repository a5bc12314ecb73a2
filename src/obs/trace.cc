#include "obs/trace.h"

#include <array>
#include <bit>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>

#include "core/check.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"

namespace sgm {

namespace {

constexpr TraceKey kSpanKey("span");
constexpr TraceKey kParentKey("parent");

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

/// Reads a trivially copyable value from record bytes.
template <typename T>
T Load(const unsigned char* at) {
  std::array<unsigned char, sizeof(T)> raw;
  std::memcpy(raw.data(), at, sizeof(T));
  return std::bit_cast<T>(raw);
}

void AppendEscaped(std::string* out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          *out += buffer;
        } else {
          *out += c;
        }
    }
  }
}

void AppendInt(std::string* out, long long value) {
  char buffer[24];
  const std::to_chars_result end =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, end.ptr);
}

void AppendNumber(std::string* out, double value) {
  if (value == static_cast<double>(static_cast<long long>(value)) &&
      value > -1e15 && value < 1e15) {
    AppendInt(out, static_cast<long long>(value));
  } else {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    *out += buffer;
  }
}

void AppendString(std::string* out, std::string_view text) {
  *out += '"';
  AppendEscaped(out, text);
  *out += '"';
}

/// Starts one `"key":` pair of an args object.
void AppendKey(std::string* out, std::string_view key, bool* first) {
  if (!*first) *out += ',';
  *first = false;
  AppendString(out, key);
  *out += ':';
}

/// What every rendering of an event needs besides its args, whichever
/// form (record or decoded) the event is in.
struct EventHead {
  long ts;
  long cycle;
  std::string_view cat;
  std::string_view name;
  int actor;
  std::string_view proc;  ///< empty = unset
  long epoch;             ///< negative = unset
};

EventHead HeadOf(const TraceEvent& event) {
  return {event.ts,    event.cycle, event.cat,  event.name,
          event.actor, event.proc,  event.epoch};
}

void AppendArgPairs(const std::vector<TraceArg>& args, std::string* out,
                    bool* first) {
  for (const TraceArg& arg : args) {
    AppendKey(out, arg.key, first);
    switch (arg.kind) {
      case TraceArg::Kind::kInt:
        AppendInt(out, arg.int_value);
        break;
      case TraceArg::Kind::kDouble:
        AppendNumber(out, arg.double_value);
        break;
      case TraceArg::Kind::kString:
        AppendString(out, arg.string_value);
        break;
    }
  }
}

/// One JSONL object (no newline). `append_pairs(out, &first)` writes the
/// event's args.
template <typename AppendPairs>
void AppendEventLine(std::string* out, const EventHead& head,
                     AppendPairs&& append_pairs) {
  *out += "{\"ts\":";
  AppendInt(out, head.ts);
  *out += ",\"cycle\":";
  AppendInt(out, head.cycle);
  *out += ",\"cat\":";
  AppendString(out, head.cat);
  *out += ",\"name\":";
  AppendString(out, head.name);
  *out += ",\"actor\":";
  AppendInt(out, head.actor);
  // Optional cross-process keys: omitted when unset so single-process
  // traces keep the historical byte-identical format.
  if (!head.proc.empty()) {
    *out += ",\"proc\":";
    AppendString(out, head.proc);
  }
  if (head.epoch >= 0) {
    *out += ",\"tepoch\":";
    AppendInt(out, head.epoch);
  }
  *out += ",\"args\":{";
  bool first = true;
  append_pairs(out, &first);
  *out += "}}";
}

/// Chrome trace_event JSON. `for_each(visit)` calls
/// `visit(head, append_pairs)` for every event in order; it runs twice.
template <typename ForEach>
void WriteChromeEvents(std::ostream& out, ForEach&& for_each) {
  out << "{\"traceEvents\":[\n";
  // Pseudo-thread naming: tid 0 is the coordinator, tid i+1 is site i.
  std::set<int> actors;
  for_each([&](const EventHead& head, auto&&) { actors.insert(head.actor); });
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
  std::string line;
  for_each([&](const EventHead& head, auto&& append_pairs) {
    line.assign(first ? "" : ",\n");
    line += "{\"name\":";
    AppendString(&line, head.name);
    line += ",\"cat\":";
    AppendString(&line, head.cat);
    line += ",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":";
    AppendInt(&line, head.actor + 1);
    line += ",\"ts\":";
    AppendInt(&line, head.ts);
    line += ",\"args\":{";
    bool first_pair = true;
    append_pairs(&line, &first_pair);
    // The cycle rides along as an arg on every instant event.
    AppendKey(&line, "cycle", &first_pair);
    AppendInt(&line, head.cycle);
    line += "}}";
    out << line;
    first = false;
  });
  out << "\n]}\n";
}

}  // namespace

// ── Record storage ───────────────────────────────────────────────────────
//
// A record is a RecordHeader followed by num_fields TraceFields, copied in
// byte for byte. `ts` is not stored: it is the record's index, because ts
// advances exactly once per recorded event.

struct TraceLog::RecordHeader {
  std::int64_t cycle;
  std::int64_t epoch;
  std::int32_t actor;
  std::uint16_t proc;  ///< string-table index + 1; 0 = unset
  TraceEventId id;
  std::uint8_t num_fields;
};
static_assert(sizeof(TraceField) == 16);
static_assert(std::is_trivially_copyable_v<TraceField>);

struct TraceLog::Chunk {
  /// Payload bytes; with the two header words the chunk is 64 KiB, small
  /// enough that a short run's trace holds little memory it never uses.
  static constexpr std::size_t kBytes = 64 * 1024 - 16;

  static_assert(sizeof(RecordHeader) == 24);
  static_assert(std::is_trivially_copyable_v<RecordHeader>);
  static_assert(sizeof(RecordHeader) + kMaxFields * sizeof(TraceField) <=
                kBytes);

  std::unique_ptr<Chunk> next;
  std::size_t used = 0;
  alignas(8) unsigned char bytes[kBytes];
};

/// One record read back from its chunk.
class TraceLog::RecordView {
 public:
  RecordView(const unsigned char* at, long ts, const TraceLog& log)
      : header_(Load<RecordHeader>(at)),
        fields_(at + sizeof(RecordHeader)),
        ts_(ts),
        log_(&log) {}

  std::size_t bytes() const {
    return sizeof(RecordHeader) + header_.num_fields * sizeof(TraceField);
  }

  EventHead head() const {
    const TraceEventSpec& spec = TraceSpec(header_.id);
    return {ts_,
            static_cast<long>(header_.cycle),
            spec.category,
            spec.name,
            header_.actor,
            header_.proc == 0 ? std::string_view()
                              : std::string_view(
                                    log_->strings_[header_.proc - 1u]),
            static_cast<long>(header_.epoch)};
  }

  TraceField field(std::size_t i) const {
    return Load<TraceField>(fields_ + i * sizeof(TraceField));
  }

  void AppendArgPairs(std::string* out, bool* first) const {
    for (std::size_t i = 0; i < header_.num_fields; ++i) {
      const TraceField f = field(i);
      AppendKey(out, f.key_.name(), first);
      switch (f.kind_) {
        case TraceField::Kind::kInt:
          AppendInt(out, f.int_);
          break;
        case TraceField::Kind::kDouble:
          AppendNumber(out, f.double_);
          break;
        case TraceField::Kind::kStatic:
          AppendString(out, f.static_);
          break;
        case TraceField::Kind::kInterned:
          AppendString(out, log_->strings_[f.interned_]);
          break;
      }
    }
  }

  void AppendLine(std::string* out) const {
    AppendEventLine(out, head(), [this](std::string* o, bool* first) {
      AppendArgPairs(o, first);
    });
  }

  TraceEvent Decode() const {
    const EventHead h = head();
    TraceEvent event;
    event.ts = h.ts;
    event.cycle = h.cycle;
    event.cat = std::string(h.cat);
    event.name = std::string(h.name);
    event.actor = h.actor;
    event.proc = std::string(h.proc);
    event.epoch = h.epoch;
    event.args.reserve(header_.num_fields);
    for (std::size_t i = 0; i < header_.num_fields; ++i) {
      const TraceField f = field(i);
      std::string key(f.key_.name());
      switch (f.kind_) {
        case TraceField::Kind::kInt:
          event.args.emplace_back(std::move(key), f.int_);
          break;
        case TraceField::Kind::kDouble:
          event.args.emplace_back(std::move(key), f.double_);
          break;
        case TraceField::Kind::kStatic:
          event.args.emplace_back(std::move(key), std::string(f.static_));
          break;
        case TraceField::Kind::kInterned:
          event.args.emplace_back(std::move(key),
                                  log_->strings_[f.interned_]);
          break;
      }
    }
    return event;
  }

 private:
  RecordHeader header_;
  const unsigned char* fields_;
  long ts_;
  const TraceLog* log_;
};

template <typename Visit>
void TraceLog::ForEachRecordLocked(Visit&& visit) const {
  long ts = 0;
  for (const Chunk* chunk = head_.get(); chunk != nullptr;
       chunk = chunk->next.get()) {
    std::size_t offset = 0;
    while (offset < chunk->used) {
      const RecordView record(chunk->bytes + offset, ts++, *this);
      visit(record);
      offset += record.bytes();
    }
  }
}

TraceLog::TraceLog() = default;

TraceLog::~TraceLog() {
  // Unlink chunk by chunk: destroying the chain from its head would
  // recurse once per chunk.
  while (head_ != nullptr) head_ = std::move(head_->next);
}

unsigned char* TraceLog::AllocateLocked(std::size_t bytes) {
  if (tail_ == nullptr || Chunk::kBytes - tail_->used < bytes) {
    // For-overwrite: record bytes are written before they are read, so the
    // chunk's pages are first touched as records fill them.
    std::unique_ptr<Chunk> chunk = std::make_unique_for_overwrite<Chunk>();
    Chunk* fresh = chunk.get();
    if (tail_ == nullptr) {
      head_ = std::move(chunk);
    } else {
      tail_->next = std::move(chunk);
    }
    tail_ = fresh;
  }
  unsigned char* at = tail_->bytes + tail_->used;
  tail_->used += bytes;
  return at;
}

InternedString TraceLog::InternLocked(std::string_view text) {
  const auto it = string_index_.find(text);
  if (it != string_index_.end()) return InternedString(it->second);
  SGM_CHECK(strings_.size() < UINT32_MAX);
  const auto index = static_cast<std::uint32_t>(strings_.size());
  const std::string& stored = strings_.emplace_back(text);
  string_index_.emplace(stored, index);
  return InternedString(index);
}

InternedString TraceLog::Intern(std::string_view text) {
  std::lock_guard<std::mutex> lock(mu_);
  return InternLocked(text);
}

bool TraceSampleDecision(std::uint64_t seed, std::int64_t root_span,
                         double rate) {
  if (rate >= 1.0) return true;
  if (rate <= 0.0) return false;
  return SampledCoin(seed ^ MixBits(static_cast<std::uint64_t>(
                                SpanId(root_span))),
                     rate);
}

void AppendJsonNumber(std::ostream& out, double value) {
  std::string text;
  AppendNumber(&text, value);
  out << text;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  AppendEscaped(&out, text);
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
  if (label.empty()) {
    proc_ = 0;
    return;
  }
  const std::uint32_t index = InternLocked(label).index_;
  SGM_CHECK(index < UINT16_MAX);
  proc_ = static_cast<std::uint16_t>(index + 1);
}

std::string TraceLog::process() const {
  std::lock_guard<std::mutex> lock(mu_);
  return proc_ == 0 ? std::string() : strings_[proc_ - 1u];
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

bool TraceLog::SampledLocked(TraceEventId id, int actor,
                             std::span<const TraceField> fields) const {
  switch (TraceSpec(id).sample) {
    case TraceSampleClass::kAlways:
      return true;
    case TraceSampleClass::kCascade:
      // Span-less (or span-0) instances have no cascade to follow — the
      // sim protocols emit these — so they always record.
      for (const TraceField& field : fields) {
        if (field.kind_ == TraceField::Kind::kInt && field.key_ == kSpanKey &&
            SpanUnsampled(field.int_)) {
          return false;
        }
      }
      return true;
    case TraceSampleClass::kNoise:
      return SampledCoin(sample_seed_ ^
                             MixBits(static_cast<std::uint64_t>(actor) *
                                         0x51ed270b0f4dULL +
                                     static_cast<std::uint64_t>(cycle_)),
                         sample_rate_);
  }
  return true;
}

void TraceLog::Emit(TraceEventId id, int actor,
                    std::span<const TraceField> fields) {
  std::lock_guard<std::mutex> lock(mu_);
  ++self_cost_.events_emitted;
  const bool sampling = sample_rate_ < 1.0;
  if (sampling && !SampledLocked(id, actor, fields)) {
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
  // The stride is prime so it can't alias the arena's chunk allocations
  // (which would attribute every allocation to a timed event and overstate
  // the extrapolation).
  const bool timed = self_cost_.events_recorded % 13 == 0;
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point();
  SGM_CHECK(fields.size() <= kMaxFields);
  const long ts = self_cost_.events_recorded++;
  unsigned char* const record =
      AllocateLocked(sizeof(RecordHeader) + fields.size() * sizeof(TraceField));
  const RecordHeader header{cycle_,
                            epoch_,
                            actor,
                            proc_,
                            id,
                            static_cast<std::uint8_t>(fields.size())};
  std::memcpy(record, &header, sizeof(header));
  unsigned char* at = record + sizeof(header);
  for (TraceField field : fields) {
    if (field.kind_ == TraceField::Kind::kInterned) {
      SGM_CHECK(field.interned_ < strings_.size());
    } else if (sampling && field.kind_ == TraceField::Kind::kInt &&
               (field.key_ == kSpanKey || field.key_ == kParentKey)) {
      // Only a sampling log can see tagged spans; recorded traces always
      // show the raw minted ids.
      field.int_ = SpanId(field.int_);
    }
    std::memcpy(at, &field, sizeof(field));
    at += sizeof(field);
  }
  if (flight_ != nullptr) {
    // Render at emit: the recorder must hold finished lines a signal
    // handler can dump without touching the heap or this lock.
    flight_line_.clear();
    RecordView(record, ts, *this).AppendLine(&flight_line_);
    flight_->Record(flight_line_);
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
  return static_cast<std::size_t>(self_cost_.events_recorded);
}

std::vector<TraceEvent> TraceLog::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> events;
  events.reserve(static_cast<std::size_t>(self_cost_.events_recorded));
  ForEachRecordLocked(
      [&](const RecordView& record) { events.push_back(record.Decode()); });
  return events;
}

void TraceLog::AppendEventJson(const TraceEvent& event, std::ostream& out) {
  std::string line;
  AppendEventLine(&line, HeadOf(event),
                  [&](std::string* o, bool* first) {
                    AppendArgPairs(event.args, o, first);
                  });
  out << line;
}

void TraceLog::WriteJsonl(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  constexpr std::size_t kFlushBytes = 1 << 16;
  std::string buffer;
  long long bytes = 0;
  ForEachRecordLocked([&](const RecordView& record) {
    record.AppendLine(&buffer);
    buffer += '\n';
    if (buffer.size() >= kFlushBytes) {
      bytes += static_cast<long long>(buffer.size());
      out << buffer;
      buffer.clear();
    }
  });
  bytes += static_cast<long long>(buffer.size());
  out << buffer;
  self_cost_.bytes_written += bytes;
}

void TraceLog::WriteChromeTrace(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  WriteChromeEvents(out, [this](auto&& visit) {
    ForEachRecordLocked([&](const RecordView& record) {
      visit(record.head(), [&](std::string* o, bool* first) {
        record.AppendArgPairs(o, first);
      });
    });
  });
}

void WriteChromeTrace(const std::vector<TraceEvent>& events,
                      std::ostream& out) {
  WriteChromeEvents(out, [&](auto&& visit) {
    for (const TraceEvent& event : events) {
      visit(HeadOf(event), [&](std::string* o, bool* first) {
        AppendArgPairs(event.args, o, first);
      });
    }
  });
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
  const std::optional<TraceEventId> id = FindTraceEvent(name->string_value());
  if (!id) {
    *error = "unknown event name \"" + name->string_value() + "\"";
    return false;
  }
  const TraceEventSpec& spec = TraceSpec(*id);
  if (cat->string_value() != spec.category) {
    *error = "event \"" + name->string_value() + "\" expects category \"" +
             std::string(spec.category) + "\", got \"" +
             cat->string_value() + "\"";
    return false;
  }
  for (const TraceKey required : spec.required) {
    const std::string key(required.name());
    if (args->Find(key) == nullptr) {
      *error = "event \"" + name->string_value() +
               "\" missing required arg \"" + key + "\"";
      return false;
    }
  }
  return true;
}

}  // namespace sgm
