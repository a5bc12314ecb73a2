// Per-layer time and allocation ledger for the traced benchmark run.
//
// Owner model: at every moment of a traced interval exactly one layer owns
// the thread. Entering a layer's public function reads the clock once,
// charges the elapsed ticks to the previous owner and makes the entered
// layer the owner; leaving does the same in reverse. A layer's charge is
// therefore its self time (span minus child spans). Spans are recorded only
// from the benchmark's own files, around calls into the program's public
// classes.
//
// Each transition costs a clock read plus bookkeeping, and every interval
// between two reads contains exactly one transition's worth of that cost.
// The ledger calibrates the cost once per process (a tight loop of empty
// spans) and charges it to a separate "tracer" account instead of to the
// owner, so the self times of the layers, of kDriver and of the tracer sum to
// the traced wall time.
#ifndef SGMBENCH_LEDGER_H_
#define SGMBENCH_LEDGER_H_

#include <array>
#include <cstdint>
#include <vector>

namespace sgmbench {

enum Layer : int {
  kDriver = 0,  ///< the benchmark's copy of the route-to-quiescence loop
  kBus,
  kSimTransport,
  kRtSend,
  kRtOnDeliver,
  kRtAdvanceRound,
  kSiteObserve,
  kSiteOnMessage,
  kCoordBeginCycle,
  kCoordOnMessage,
  kCoordOnQuiescent,
  kCheckpoint,
  kObsPublish,
  kNumLayers,
};

/// Dotted metric prefix of each layer, e.g. "reliable_transport.send".
const char* LayerName(Layer layer);

/// Reads the time-stamp counter (the cheapest clock here; converted to ns
/// with a ratio calibrated against steady_clock over each traced interval).
std::uint64_t ReadTicks();

class Ledger {
 public:
  struct Totals {
    std::array<double, kNumLayers> self_ns{};
    std::array<long, kNumLayers> calls{};
    std::array<long, kNumLayers> allocs{};
    double tracer_ns = 0.0;  ///< calibrated cost of the spans themselves
    double wall_ns = 0.0;
  };

  Ledger() : Ledger(TransitionTicks()) {}

  /// Starts a traced interval owned by kDriver. Counting of operator new
  /// calls by owner is on only between Start and Stop, on this thread.
  void Start();
  /// Ends the interval and folds it into totals().
  void Stop();

  void Enter(Layer layer);
  void Leave();

  const Totals& totals() const { return totals_; }

 private:
  explicit Ledger(std::uint64_t transition_ticks);
  /// Ticks between consecutive clock reads when spans do no work: the
  /// least per-interval cost over a few trials of empty Enter/Leave pairs,
  /// measured once per process.
  static std::uint64_t TransitionTicks();
  void Charge();

  std::vector<Layer> stack_;
  Layer owner_ = kDriver;
  std::uint64_t transition_ticks_ = 0;  ///< calibrated, per interval
  std::uint64_t tracer_ticks_ = 0;
  std::uint64_t last_ = 0;
  std::uint64_t start_ticks_ = 0;
  std::int64_t start_ns_ = 0;
  std::array<std::uint64_t, kNumLayers> ticks_{};
  std::array<long, kNumLayers> calls_{};
  std::array<long, kNumLayers> allocs_base_{};
  Totals totals_;
};

/// RAII span: Enter on construction, Leave on destruction.
class Span {
 public:
  Span(Ledger* ledger, Layer layer) : ledger_(ledger) {
    ledger_->Enter(layer);
  }
  ~Span() { ledger_->Leave(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Ledger* ledger_;
};

}  // namespace sgmbench

#endif  // SGMBENCH_LEDGER_H_
