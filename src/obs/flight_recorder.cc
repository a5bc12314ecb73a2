#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cstring>
#include <fstream>

namespace sgm {

namespace {

/// Process-global crash-dump wiring. Fixed storage only: the handler must
/// not allocate, and sig_atomic_t-free pointer reads are fine here because
/// InstallCrashDump happens-before any signal we care about (it is called
/// during single-threaded startup in the daemons and before fault injection
/// in the tests).
FlightRecorder* g_crash_recorder = nullptr;
char g_crash_path[512] = {0};

void CrashDumpHandler(int sig) {
  if (g_crash_recorder != nullptr && g_crash_path[0] != '\0') {
    g_crash_recorder->SignalSafeDump(g_crash_path);
  }
  // Re-deliver with the default action so the process still dies by the
  // original signal (wait status, core dumps and CI all see the truth).
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      slots_(new Slot[capacity == 0 ? 1 : capacity]) {}

void FlightRecorder::Record(std::string_view line) {
  if (line.size() > kSlotBytes) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slots_[head_ % capacity_];
  if (head_ >= capacity_) overwrites_.fetch_add(1, std::memory_order_relaxed);
  ++head_;
  // Unpublish → copy → publish: a concurrent dump skips the torn window.
  slot.len.store(0, std::memory_order_release);
  std::memcpy(slot.data, line.data(), line.size());
  slot.len.store(static_cast<std::uint32_t>(line.size()),
                 std::memory_order_release);
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

std::string FlightRecorder::DumpString() const {
  std::string out;
  // The mutex is deliberately not taken: DumpString must work from
  // contexts where a writer holds it (the HTTP thread is fine either way,
  // the signal path must not block). Oldest-first order; `head_` is read
  // unsynchronized, so the window edge may be one event stale — harmless
  // for a diagnostic dump.
  const std::uint64_t head = head_;
  const std::uint64_t start = head > capacity_ ? head - capacity_ : 0;
  for (std::uint64_t i = start; i < head; ++i) {
    const Slot& slot = slots_[i % capacity_];
    const std::uint32_t len = slot.len.load(std::memory_order_acquire);
    if (len == 0 || len > kSlotBytes) continue;
    out.append(slot.data, len);
    out.push_back('\n');
  }
  return out;
}

bool FlightRecorder::DumpToFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << DumpString();
  return static_cast<bool>(out);
}

void FlightRecorder::SignalSafeDump(const char* path) const {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  const std::uint64_t head = head_;
  const std::uint64_t start = head > capacity_ ? head - capacity_ : 0;
  for (std::uint64_t i = start; i < head; ++i) {
    const Slot& slot = slots_[i % capacity_];
    const std::uint32_t len = slot.len.load(std::memory_order_acquire);
    if (len == 0 || len > kSlotBytes) continue;
    if (::write(fd, slot.data, len) < 0) break;
    if (::write(fd, "\n", 1) < 0) break;
  }
  ::close(fd);
}

void FlightRecorder::InstallCrashDump(const std::string& path) {
  std::strncpy(g_crash_path, path.c_str(), sizeof(g_crash_path) - 1);
  g_crash_path[sizeof(g_crash_path) - 1] = '\0';
  g_crash_recorder = this;
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = CrashDumpHandler;
  ::sigemptyset(&action.sa_mask);
  ::sigaction(SIGSEGV, &action, nullptr);
  ::sigaction(SIGABRT, &action, nullptr);
}

FlightRecorder& FlightRecorder::Instance() {
  static auto* instance = new FlightRecorder();
  return *instance;
}

}  // namespace sgm
