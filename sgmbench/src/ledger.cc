#include "ledger.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <new>

#include <x86intrin.h>

namespace sgmbench {
namespace {

/// Owner of the calling thread while a Ledger interval runs, else -1.
thread_local int t_alloc_owner = -1;
/// operator new calls charged per owner. Only the thread running a traced
/// interval increments it, so it needs no synchronisation.
long g_allocs[kNumLayers] = {};

std::int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case kDriver: return "driver";
    case kBus: return "transport.bus";
    case kSimTransport: return "sim_transport";
    case kRtSend: return "reliable_transport.send";
    case kRtOnDeliver: return "reliable_transport.on_deliver";
    case kRtAdvanceRound: return "reliable_transport.advance_round";
    case kSiteObserve: return "site_node.observe";
    case kSiteOnMessage: return "site_node.on_message";
    case kCoordBeginCycle: return "coordinator_node.begin_cycle";
    case kCoordOnMessage: return "coordinator_node.on_message";
    case kCoordOnQuiescent: return "coordinator_node.on_quiescent";
    case kCheckpoint: return "checkpoint";
    case kObsPublish: return "obs.publish_metrics";
    case kNumLayers: break;
  }
  return "?";
}

std::uint64_t ReadTicks() { return __rdtsc(); }

std::uint64_t Ledger::TransitionTicks() {
  static const std::uint64_t kTicks = [] {
    constexpr int kPairs = 20000;
    Ledger probe(0);
    std::uint64_t best = ~std::uint64_t{0};
    for (int trial = 0; trial < 5; ++trial) {
      const std::uint64_t start = ReadTicks();
      for (int i = 0; i < kPairs; ++i) {
        probe.Enter(kBus);
        probe.Leave();
      }
      best = std::min(best, (ReadTicks() - start) / (2 * kPairs));
    }
    t_alloc_owner = -1;
    return best;
  }();
  return kTicks;
}

Ledger::Ledger(std::uint64_t transition_ticks)
    : transition_ticks_(transition_ticks) {
  stack_.reserve(16);
}

void Ledger::Start() {
  stack_.clear();
  owner_ = kDriver;
  ticks_.fill(0);
  tracer_ticks_ = 0;
  calls_.fill(0);
  for (int l = 0; l < kNumLayers; ++l) allocs_base_[l] = g_allocs[l];
  start_ns_ = SteadyNs();
  start_ticks_ = ReadTicks();
  last_ = start_ticks_;
  t_alloc_owner = kDriver;
}

void Ledger::Charge() {
  const std::uint64_t now = ReadTicks();
  const std::uint64_t elapsed = now - last_;
  const std::uint64_t overhead = std::min(elapsed, transition_ticks_);
  ticks_[owner_] += elapsed - overhead;
  tracer_ticks_ += overhead;
  last_ = now;
}

void Ledger::Enter(Layer layer) {
  Charge();
  stack_.push_back(owner_);
  owner_ = layer;
  t_alloc_owner = layer;
  ++calls_[layer];
}

void Ledger::Leave() {
  Charge();
  owner_ = stack_.back();
  stack_.pop_back();
  t_alloc_owner = owner_;
}

void Ledger::Stop() {
  Charge();
  t_alloc_owner = -1;
  const double wall_ns = static_cast<double>(SteadyNs() - start_ns_);
  const double ticks = static_cast<double>(last_ - start_ticks_);
  const double ns_per_tick = ticks > 0.0 ? wall_ns / ticks : 0.0;
  for (int l = 0; l < kNumLayers; ++l) {
    totals_.self_ns[l] += static_cast<double>(ticks_[l]) * ns_per_tick;
    totals_.calls[l] += calls_[l];
    totals_.allocs[l] += g_allocs[l] - allocs_base_[l];
  }
  totals_.tracer_ns += static_cast<double>(tracer_ticks_) * ns_per_tick;
  totals_.wall_ns += wall_ns;
}

}  // namespace sgmbench

// Counting allocator: charges each operator new call to the layer that owns
// the calling thread in a traced interval; everywhere else it is malloc.
void* operator new(std::size_t size) {
  if (sgmbench::t_alloc_owner >= 0) ++sgmbench::g_allocs[sgmbench::t_alloc_owner];
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
