#ifndef SGM_OBS_FLIGHT_RECORDER_H_
#define SGM_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace sgm {

/// Always-on in-memory crash recorder: a fixed-size ring of the most recent
/// trace events, each stored as its finished JSONL line, so a process that
/// dies mid-chaos leaves a postmortem window `trace_inspect --merge` can
/// ingest alongside the regular per-process traces.
///
/// Writer protocol per slot: `len` is zeroed, the line is copied, then
/// `len` is published — a dump (including one racing from a fatal-signal
/// handler on another thread) skips any slot whose `len` is 0, so a torn
/// half-written slot is silently dropped instead of corrupting the file.
/// Record() itself serializes writers with a plain mutex; the ring is only
/// ever appended to, never reallocated, so the signal path touches nothing
/// but preallocated memory and write(2).
class FlightRecorder {
 public:
  /// Payload bytes per slot; longer rendered lines are dropped (counted in
  /// lines_dropped) rather than truncated, so every dumped line parses.
  static constexpr std::size_t kSlotBytes = 704;

  explicit FlightRecorder(std::size_t capacity = 1024);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends one rendered JSONL line (without trailing newline) to the
  /// ring, overwriting the oldest entry when full.
  void Record(std::string_view line);

  /// The current window, oldest line first, one event per line — the
  /// /flightrecorder HTTP payload and the on-demand dump format.
  std::string DumpString() const;

  /// Writes DumpString() to `path`. Returns false when the file cannot be
  /// opened or written.
  bool DumpToFile(const std::string& path) const;

  /// Arms the fatal-signal dump: on SIGSEGV or SIGABRT the ring is written
  /// to `path` with async-signal-safe calls only (open/write/close), then
  /// the default disposition is restored and the signal re-raised so the
  /// process still dies with the original cause. Process-global: the last
  /// recorder armed wins. `path` is copied into a fixed buffer now — no
  /// allocation happens on the signal path.
  void InstallCrashDump(const std::string& path);

  std::size_t capacity() const { return capacity_; }
  long lines_recorded() const { return recorded_.load(); }
  /// Ring wraps: entries lost to overwriting since the start.
  long overwrites() const { return overwrites_.load(); }
  /// Lines longer than kSlotBytes, dropped whole.
  long lines_dropped() const { return dropped_.load(); }

  /// The process-wide recorder the daemon roles arm and expose.
  static FlightRecorder& Instance();

  /// Signal-handler core; public so the free handler function can reach
  /// it, but async-signal-safe and const — usable from any context.
  void SignalSafeDump(const char* path) const;

 private:
  struct Slot {
    std::atomic<std::uint32_t> len{0};
    char data[kSlotBytes];
  };

  const std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::mutex mu_;
  std::uint64_t head_ = 0;  ///< next slot index to write (monotone)
  std::atomic<long> recorded_{0};
  std::atomic<long> overwrites_{0};
  std::atomic<long> dropped_{0};
};

}  // namespace sgm

#endif  // SGM_OBS_FLIGHT_RECORDER_H_
