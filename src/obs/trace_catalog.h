#ifndef SGM_OBS_TRACE_CATALOG_H_
#define SGM_OBS_TRACE_CATALOG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string_view>

namespace sgm {

// ── The trace event catalog ──────────────────────────────────────────────
//
// One constexpr table names every event a trace may contain: its category,
// its sampling class and the argument keys it must carry. TraceLog::Emit
// takes a TraceEventId (an index into the table), the sampling gate reads
// the class from it, ValidateTraceJsonLine checks lines against it, and
// docs/OBSERVABILITY.md documents it (TraceCatalogTest keeps the two equal).

/// Every argument key a trace event may carry. Keys are spelled as string
/// literals at call sites and resolved to an index at compile time, so a
/// misspelt key does not compile.
inline constexpr std::string_view kTraceKeyNames[] = {
    // Spans, epochs and protocol context.
    "span", "parent", "trigger", "epoch", "from_epoch", "to_epoch",
    "msg_epoch", "degraded", "site", "source", "missing", "cycle",
    // Reliability and failure detection.
    "sender", "seq", "attempt", "dest", "misses", "deaths", "until_cycle",
    "since_cycle", "staleness_cycles",
    // Messages, faults and sessions.
    "type", "bytes", "rounds", "fd", "reason", "ms",
    // Recovery and barriers.
    "discarded", "wal_replayed", "grants", "deadline_ms", "missed",
    "quarantined",
    // Audit and alerts.
    "kind", "run", "abs_error", "surface_distance", "metric", "value", "mean",
    "z",
    // Run markers, and numeric context the storage-format tests attach.
    "seed", "drop", "estimate", "scale",
};

/// A key from kTraceKeyNames.
class TraceKey {
 public:
  /// The key spelled by a string literal; an unknown spelling is a compile
  /// error.
  template <std::size_t N>
  consteval TraceKey(const char (&name)[N])  // NOLINT: implicit on purpose
      : index_(IndexOf(std::string_view(name, N - 1))) {}

  /// By-name lookup for keys read back from a trace file.
  static constexpr std::optional<TraceKey> Find(std::string_view name) {
    for (std::size_t i = 0; i < std::size(kTraceKeyNames); ++i) {
      if (kTraceKeyNames[i] == name) {
        return TraceKey(static_cast<std::uint8_t>(i));
      }
    }
    return std::nullopt;
  }

  constexpr std::string_view name() const { return kTraceKeyNames[index_]; }
  constexpr bool operator==(const TraceKey&) const = default;

 private:
  constexpr explicit TraceKey(std::uint8_t index) : index_(index) {}

  static constexpr std::uint8_t IndexOf(std::string_view name) {
    const std::optional<TraceKey> key = Find(name);
    if (!key) throw "unknown trace key";  // not a constant: compile error
    return key->index_;
  }

  std::uint8_t index_;
};

/// How head-based sampling treats an event (docs/OBSERVABILITY.md):
///  * kAlways  — rare lifecycle and diagnostic events, never sampled out;
///  * kCascade — rides a coordinator-minted span: skipped when the span
///    carries kSpanUnsampledBit (span-less instances always record);
///  * kNoise   — span-less high-volume chatter, kept by a deterministic
///    per-(actor, cycle) coin at the configured rate.
enum class TraceSampleClass : std::uint8_t { kAlways, kCascade, kNoise };

/// Every event a trace may contain; the value indexes kTraceCatalog.
enum class TraceEventId : std::uint8_t {
  // Protocol lifecycle (coordinator / site / sim protocols).
  kSyncCycleBegin,
  kLocalAlarm,
  kProbeBegin,
  kPartialResolution,
  kOneDResolution,
  kFullSyncBegin,
  kFullSyncComplete,
  kSyncRerequest,
  kEpochBump,
  kAnchorApplied,
  kEpochGap,
  kStaleEpochDrop,
  kLateReport,
  // Reliability layer (acks, rejoin handshake, heartbeats).
  kHeartbeat,
  kRejoinRequest,
  kRejoinGrant,
  kRetransmit,
  kGiveUp,
  kDuplicateSuppressed,
  kQueueEvict,
  // Failure detector transitions, including lag quarantine.
  kHeartbeatMiss,
  kSuspect,
  kDead,
  kUnreachable,
  kQuarantined,
  kRejoinBegin,
  kRejoinComplete,
  kDeadlineMiss,
  kLagging,
  kLagRecovered,
  // Per-span transport cost attribution (ReliableTransport).
  kMsgSend,
  // Online accuracy auditing and anomaly detection.
  kBoundViolation,
  kAlertRaised,
  // Injected faults (SimTransport, RuntimeDriver).
  kSiteCrash,
  kSiteRecover,
  kDrop,
  kDuplicate,
  kDelay,
  kCorrupt,
  kCoordinatorCrash,
  // Crash recovery (checkpoint writes and the recovery state machine).
  kCheckpointWrite,
  kRecoveryBegin,
  kRecoveryComplete,
  kSnapshotFallback,
  kWalTornTail,
  // Deadline-driven barriers and lag quarantine.
  kBarrierSlow,
  kBarrierDeadline,
  kDegradedCycle,
  kSiteQuarantined,
  // Socket-session lifecycle (CoordinatorServer / SiteClient).
  kSiteHello,
  kSiteRehello,
  kSiteDisconnect,
  kConnectionLost,
  kReconnect,
  // Injected network chaos (ChaosSocketTransport).
  kChaosReset,
  kChaosHalfOpen,
  kChaosStall,
  // Run/benchmark markers emitted by the tools.
  kRunBegin,
  kCellBegin,
};

/// The argument keys an event must carry. Extra args are allowed: events
/// may carry more context than the schema demands.
class TraceKeyList {
 public:
  static constexpr std::size_t kCapacity = 5;

  constexpr TraceKeyList(std::initializer_list<TraceKey> keys) {
    if (keys.size() > kCapacity) throw "too many required keys";
    for (const TraceKey key : keys) keys_[size_++] = key;
  }

  constexpr const TraceKey* begin() const { return keys_.data(); }
  constexpr const TraceKey* end() const { return keys_.data() + size_; }
  constexpr std::size_t size() const { return size_; }

 private:
  // Unused slots repeat a valid key; only the first size_ are read.
  std::array<TraceKey, kCapacity> keys_{"span", "span", "span", "span",
                                        "span"};
  std::size_t size_ = 0;
};

struct TraceEventSpec {
  TraceEventId id;
  std::string_view category;
  std::string_view name;
  TraceSampleClass sample;
  TraceKeyList required;
};

inline constexpr TraceEventSpec kTraceCatalog[] = {
    {TraceEventId::kSyncCycleBegin, "protocol", "sync_cycle_begin",
     TraceSampleClass::kCascade, {"span", "trigger"}},
    {TraceEventId::kLocalAlarm, "protocol", "local_alarm",
     TraceSampleClass::kAlways, {}},
    {TraceEventId::kProbeBegin, "protocol", "probe_begin",
     TraceSampleClass::kCascade, {"epoch"}},
    {TraceEventId::kPartialResolution, "protocol", "partial_resolution",
     TraceSampleClass::kCascade, {}},
    {TraceEventId::kOneDResolution, "protocol", "one_d_resolution",
     TraceSampleClass::kCascade, {}},
    {TraceEventId::kFullSyncBegin, "protocol", "full_sync_begin",
     TraceSampleClass::kCascade, {"epoch"}},
    {TraceEventId::kFullSyncComplete, "protocol", "full_sync_complete",
     TraceSampleClass::kCascade, {"epoch", "degraded"}},
    {TraceEventId::kSyncRerequest, "protocol", "sync_rerequest",
     TraceSampleClass::kCascade, {"epoch", "site"}},
    {TraceEventId::kEpochBump, "protocol", "epoch_bump",
     TraceSampleClass::kAlways, {"epoch"}},
    {TraceEventId::kAnchorApplied, "protocol", "anchor_applied",
     TraceSampleClass::kCascade, {"epoch", "source"}},
    {TraceEventId::kEpochGap, "protocol", "epoch_gap",
     TraceSampleClass::kAlways, {"from_epoch", "to_epoch"}},
    {TraceEventId::kStaleEpochDrop, "protocol", "stale_epoch_drop",
     TraceSampleClass::kAlways, {"msg_epoch"}},
    {TraceEventId::kLateReport, "protocol", "late_report",
     TraceSampleClass::kAlways, {"site"}},
    {TraceEventId::kHeartbeat, "reliability", "heartbeat",
     TraceSampleClass::kNoise, {}},
    {TraceEventId::kRejoinRequest, "reliability", "rejoin_request",
     TraceSampleClass::kAlways, {}},
    {TraceEventId::kRejoinGrant, "reliability", "rejoin_grant",
     TraceSampleClass::kAlways, {"epoch"}},
    {TraceEventId::kRetransmit, "reliability", "retransmit",
     TraceSampleClass::kCascade, {"sender", "seq", "attempt"}},
    {TraceEventId::kGiveUp, "reliability", "give_up",
     TraceSampleClass::kAlways, {"sender", "seq"}},
    {TraceEventId::kDuplicateSuppressed, "reliability",
     "duplicate_suppressed", TraceSampleClass::kNoise, {"sender", "seq"}},
    {TraceEventId::kQueueEvict, "reliability", "queue_evict",
     TraceSampleClass::kAlways, {"dest", "seq"}},
    {TraceEventId::kHeartbeatMiss, "failure", "heartbeat_miss",
     TraceSampleClass::kNoise, {"misses"}},
    {TraceEventId::kSuspect, "failure", "suspect", TraceSampleClass::kAlways,
     {"misses"}},
    {TraceEventId::kDead, "failure", "dead", TraceSampleClass::kAlways,
     {"deaths"}},
    {TraceEventId::kUnreachable, "failure", "unreachable",
     TraceSampleClass::kAlways, {}},
    {TraceEventId::kQuarantined, "failure", "quarantined",
     TraceSampleClass::kAlways, {"until_cycle"}},
    {TraceEventId::kRejoinBegin, "failure", "rejoin_begin",
     TraceSampleClass::kAlways, {}},
    {TraceEventId::kRejoinComplete, "failure", "rejoin_complete",
     TraceSampleClass::kAlways, {}},
    {TraceEventId::kDeadlineMiss, "failure", "deadline_miss",
     TraceSampleClass::kNoise, {"misses"}},
    {TraceEventId::kLagging, "failure", "lagging", TraceSampleClass::kAlways,
     {"since_cycle"}},
    {TraceEventId::kLagRecovered, "failure", "lag_recovered",
     TraceSampleClass::kAlways, {"staleness_cycles"}},
    {TraceEventId::kMsgSend, "transport", "msg_send",
     TraceSampleClass::kCascade, {"type", "span", "bytes"}},
    // The audit, alert and recovery planes are diagnostic surfaces an
    // operator must trust at any rate: all their events are kAlways.
    {TraceEventId::kBoundViolation, "audit", "bound_violation",
     TraceSampleClass::kAlways, {"kind", "span"}},
    {TraceEventId::kAlertRaised, "alert", "alert_raised",
     TraceSampleClass::kAlways, {"metric", "kind", "value", "mean", "z"}},
    {TraceEventId::kSiteCrash, "fault", "site_crash",
     TraceSampleClass::kAlways, {}},
    {TraceEventId::kSiteRecover, "fault", "site_recover",
     TraceSampleClass::kAlways, {}},
    {TraceEventId::kDrop, "fault", "drop", TraceSampleClass::kNoise,
     {"type"}},
    {TraceEventId::kDuplicate, "fault", "duplicate", TraceSampleClass::kNoise,
     {"type"}},
    {TraceEventId::kDelay, "fault", "delay", TraceSampleClass::kNoise,
     {"type", "rounds"}},
    {TraceEventId::kCorrupt, "fault", "corrupt", TraceSampleClass::kNoise,
     {"type"}},
    {TraceEventId::kCoordinatorCrash, "fault", "coordinator_crash",
     TraceSampleClass::kAlways, {"epoch"}},
    {TraceEventId::kCheckpointWrite, "recovery", "checkpoint_write",
     TraceSampleClass::kAlways, {"epoch", "bytes"}},
    {TraceEventId::kRecoveryBegin, "recovery", "recovery_begin",
     TraceSampleClass::kAlways, {"span", "epoch", "wal_replayed"}},
    {TraceEventId::kRecoveryComplete, "recovery", "recovery_complete",
     TraceSampleClass::kAlways, {"span", "epoch", "grants"}},
    {TraceEventId::kSnapshotFallback, "recovery", "snapshot_fallback",
     TraceSampleClass::kAlways, {"discarded"}},
    {TraceEventId::kWalTornTail, "recovery", "wal_torn_tail",
     TraceSampleClass::kAlways, {"bytes"}},
    {TraceEventId::kBarrierSlow, "degraded", "barrier_slow",
     TraceSampleClass::kAlways, {"deadline_ms"}},
    {TraceEventId::kBarrierDeadline, "degraded", "barrier_deadline",
     TraceSampleClass::kAlways, {"missed", "quarantined"}},
    {TraceEventId::kDegradedCycle, "degraded", "degraded_cycle",
     TraceSampleClass::kAlways, {"missing"}},
    {TraceEventId::kSiteQuarantined, "degraded", "site_quarantined",
     TraceSampleClass::kAlways, {}},
    {TraceEventId::kSiteHello, "session", "site_hello",
     TraceSampleClass::kAlways, {"fd"}},
    {TraceEventId::kSiteRehello, "session", "site_rehello",
     TraceSampleClass::kAlways, {"fd"}},
    {TraceEventId::kSiteDisconnect, "session", "site_disconnect",
     TraceSampleClass::kAlways, {}},
    {TraceEventId::kConnectionLost, "session", "connection_lost",
     TraceSampleClass::kAlways, {"reason"}},
    {TraceEventId::kReconnect, "session", "reconnect",
     TraceSampleClass::kAlways, {"attempt"}},
    {TraceEventId::kChaosReset, "chaos", "chaos_reset",
     TraceSampleClass::kAlways, {}},
    {TraceEventId::kChaosHalfOpen, "chaos", "chaos_half_open",
     TraceSampleClass::kAlways, {}},
    {TraceEventId::kChaosStall, "chaos", "chaos_stall",
     TraceSampleClass::kAlways, {"ms"}},
    {TraceEventId::kRunBegin, "run", "run_begin", TraceSampleClass::kAlways,
     {}},
    {TraceEventId::kCellBegin, "run", "cell_begin", TraceSampleClass::kAlways,
     {}},
};

/// True when every catalog entry sits at the index its id names.
constexpr bool TraceCatalogIsIndexed() {
  for (std::size_t i = 0; i < std::size(kTraceCatalog); ++i) {
    if (static_cast<std::size_t>(kTraceCatalog[i].id) != i) return false;
  }
  return true;
}
static_assert(TraceCatalogIsIndexed(),
              "kTraceCatalog rows must follow TraceEventId order");
static_assert(std::size(kTraceCatalog) ==
                  static_cast<std::size_t>(TraceEventId::kCellBegin) + 1,
              "every TraceEventId needs a kTraceCatalog row");

constexpr const TraceEventSpec& TraceSpec(TraceEventId id) {
  return kTraceCatalog[static_cast<std::size_t>(id)];
}

/// By-name lookup for events read back from a trace file.
constexpr std::optional<TraceEventId> FindTraceEvent(std::string_view name) {
  for (const TraceEventSpec& spec : kTraceCatalog) {
    if (spec.name == name) return spec.id;
  }
  return std::nullopt;
}

}  // namespace sgm

#endif  // SGM_OBS_TRACE_CATALOG_H_
