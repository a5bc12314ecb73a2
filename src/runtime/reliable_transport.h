#ifndef SGM_RUNTIME_RELIABLE_TRANSPORT_H_
#define SGM_RUNTIME_RELIABLE_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "runtime/transport.h"

namespace sgm {

struct Telemetry;
class MetricRegistry;
class RoundClock;

/// Tuning knobs of the ack/retransmit layer. Every stochastic choice (the
/// retransmission jitter) draws from the single `seed`, so dst_stress
/// replays stay bit-for-bit identical.
struct ReliableTransportConfig {
  std::uint64_t seed = 7;
  /// Retransmission attempts per message per destination before the link is
  /// reported dead to the failure-detector hook. Bounds the quiescence loop:
  /// a message is in flight for at most max_retransmits backoff periods.
  int max_retransmits = 4;
  /// First retransmission fires this many transport rounds after the
  /// original send.
  int base_backoff_rounds = 1;
  /// Exponential backoff ceiling (rounds), before jitter.
  int max_backoff_rounds = 8;
  /// Cap on tracked in-flight messages awaiting an ack on any one directed
  /// link (sender → destination). When a new tracked send would exceed it,
  /// the link's oldest entry releases that expectation (best-effort from
  /// then on, counted in queue_evictions), so a long-unresponsive peer —
  /// a dead link the failure detector has not yet condemned, or a crashed
  /// coordinator — cannot grow the retransmit queue without bound. Counted
  /// per link, not per destination: the coordinator awaiting one report
  /// from each of N sites is N links with one entry each, never a backlog.
  int max_in_flight_per_peer = 256;
  /// Receive-side dedup window per link: seqs retained above the compaction
  /// floor. The window holds the seen seqs themselves, not a bitmask over
  /// a seq range: the coordinator's seqs are shared by all its
  /// destinations, so a range window would take a late retransmit to one
  /// site for a duplicate — ack it and lose it — once dedup_window other
  /// coordinator seqs passed during its backoff. Duplicates arrive within
  /// max_delay + max_backoff * max_retransmits rounds of the original — a
  /// handful of messages — so the default is orders of magnitude above the
  /// correctness requirement while keeping memory bounded.
  int dedup_window = 1024;
  /// Time source for the retransmission round counter (not owned, nullable).
  /// Null keeps the built-in logical counter — one round per AdvanceRound()
  /// call, the deterministic-simulation behaviour. The socket runtime
  /// injects a MonotonicRoundClock so backoff deadlines track real elapsed
  /// time instead of driver drains (see runtime/round_clock.h).
  RoundClock* round_clock = nullptr;
};

/// Reliability decorator over any Transport: per-sender sequence numbers,
/// per-destination acks, retransmission with exponential backoff plus
/// deterministic seeded jitter, and receive-side duplicate suppression.
///
/// Sits between the protocol nodes and the (possibly fault-injecting) lower
/// transport. The runtime driver is the event loop: it forwards every
/// delivered message through OnDeliver() (which consumes acks, suppresses
/// duplicates and emits acks for fresh data) and calls AdvanceRound()
/// whenever the network drains, which is when due retransmissions fire.
///
/// What is sequenced and tracked: the seven protocol data kinds plus
/// kRejoinGrant. kAck is never tracked (no ack-of-ack), and kHeartbeat /
/// kRejoinRequest are fire-and-forget — the protocol re-emits them
/// periodically, so transport-level retries would only add traffic.
///
/// Accounting: original sends pass through with `retransmit == false` and
/// count toward the paper-comparable figures in the layer below;
/// retransmitted copies are flagged `retransmit = true` and acks are
/// control messages, so both land only in the transport totals. With a
/// fault-free network nothing is ever retransmitted and the
/// paper-comparable counters are byte-identical to a wiring without this
/// layer (the transport-parity stress leg enforces this).
///
/// State layout: the protocol is a star — every link has the coordinator at
/// one end — and site ids are dense, so all per-endpoint and per-link state
/// lives in arrays indexed by id, not in ordered maps. Each sender keeps its
/// tracked messages in one queue in seq order (acks find their entry by
/// binary search), each entry's unacked destinations are a bitset plus a
/// count, and each of the 2N links keeps its own dedup window. Sweeps visit
/// senders in id order and each queue in seq order — the (sender, seq)
/// order that fixes the sequence of jitter draws, so seeded replays stay
/// byte-identical.
class ReliableTransport final : public Transport {
 public:
  /// Point-in-time view of the layer's activity counters: one struct
  /// instead of loose per-counter accessors, so call sites snapshot all of
  /// them coherently and new counters ride along without API churn. Served
  /// into a MetricRegistry as `transport.*` by PublishMetrics.
  struct Stats {
    /// Sequenced original sends that entered retransmission tracking.
    long tracked_sends = 0;
    /// Ack-timeout retransmission copies placed on the wire.
    long retransmissions = 0;
    /// Transport-level acks emitted (one per fresh or re-seen delivery).
    long acks_sent = 0;
    /// Receive-side duplicates dropped (fault-injected or retransmit
    /// overlap), each re-acked in case the first ack was lost.
    long duplicates_suppressed = 0;
    /// Messages abandoned after max_retransmits (dead-link reports fired).
    long give_ups = 0;
    /// Queue-cap evictions: tracked expectations released because
    /// max_in_flight_per_peer was reached on their directed link.
    long queue_evictions = 0;
    /// Dedup-window compactions: seen-seqs promoted into the floor once the
    /// window exceeded dedup_window entries.
    long dedup_evictions = 0;
  };

  /// `lower` is not owned and must outlive this object. `telemetry` is
  /// optional (nullable): when present, retransmissions/give-ups/duplicate
  /// suppressions are traced as reliability events.
  ReliableTransport(Transport* lower, int num_sites,
                    const ReliableTransportConfig& config,
                    Telemetry* telemetry = nullptr);

  /// Sender side: stamps a sequence number on trackable messages, records
  /// them for retransmission, and forwards to the lower transport.
  void Send(const RuntimeMessage& message) override;

  /// Receive side, called by the driver for each message popped off the
  /// network, once per destination (`receiver` is a site id or
  /// kCoordinatorId; broadcast fan-out calls this once per site). Consumes
  /// acks, drops duplicates (re-acking them, in case the first ack was
  /// lost), acks fresh sequenced data, and appends to `deliver` the
  /// messages the node should actually process.
  void OnDeliver(int receiver, const RuntimeMessage& message,
                 std::vector<RuntimeMessage>* deliver);

  /// Advances the retransmission clock — one round with the built-in
  /// logical counter, or to the injected RoundClock's current round — and
  /// resends every unacked tracked message whose backoff deadline has
  /// expired. Messages that exhaust max_retransmits are abandoned and their
  /// unreachable site destinations reported through the dead-link handler.
  void AdvanceRound();

  /// True while any tracked message still awaits an ack — the driver must
  /// keep advancing rounds before declaring the network quiescent.
  bool HasUnacked() const { return live_in_flight_ > 0; }

  /// Marks a site link administratively down (failure detector verdict):
  /// pending expectations on it are released, and it is excluded from
  /// broadcast ack-expectation until marked up again. Unicasts to a down
  /// link are forwarded best-effort without tracking.
  void MarkLinkDown(int site);
  void MarkLinkUp(int site);
  bool IsLinkUp(int site) const;

  /// Drops every tracked in-flight entry originated by `sender` without
  /// firing the dead-link handler: the sending endpoint itself is gone (a
  /// coordinator crash), so its unacked traffic is void — not evidence of
  /// dead receivers. Sequence counters and dedup windows are untouched; a
  /// recovered endpoint keeps numbering from where it left off.
  void AbandonSender(int sender);

  /// Handler invoked when retransmissions of `message` to `site` were
  /// exhausted (a liveness signal for the failure detector; the message
  /// tells the coordinator *what* was lost — an undelivered anchor warrants
  /// a re-grant on next contact). Coordinator-side give-ups (site →
  /// coordinator traffic that was never acked) do not fire it — the
  /// coordinator is assumed reachable.
  void SetDeadLinkHandler(
      std::function<void(int site, const RuntimeMessage& message)> handler) {
    dead_link_handler_ = std::move(handler);
  }

  Stats stats() const { return stats_; }
  /// Mirrors the Stats counters into `registry` under `transport.*`
  /// (transport.retransmissions, transport.acks_sent, ...).
  void PublishMetrics(MetricRegistry* registry) const;

 private:
  /// A vector used as a FIFO: pop_front advances a head index, a drained
  /// queue resets in place (keeping its capacity), and the dead prefix is
  /// reclaimed only once it outgrows the live part. A pop is O(1)
  /// amortized, and a queue that drains between bursts — the common case —
  /// never moves an element.
  template <typename T>
  class SlidingQueue {
   public:
    bool empty() const { return head_ == items_.size(); }
    std::size_t size() const { return items_.size() - head_; }
    T* begin() { return items_.data() + head_; }
    T* end() { return items_.data() + items_.size(); }
    T& front() { return items_[head_]; }
    T& back() { return items_.back(); }
    void push_back(T item) { items_.push_back(std::move(item)); }
    /// Inserts before `pos` (an iterator into [begin(), end()]).
    void insert(const T* pos, T item) {
      items_.insert(items_.begin() + (pos - items_.data()), std::move(item));
    }
    void pop_front() {
      if (++head_ == items_.size()) {
        clear();
      } else if (head_ * 2 > items_.size()) {
        items_.erase(items_.begin(),
                     items_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
    }
    void clear() {
      items_.clear();
      head_ = 0;
    }

   private:
    std::vector<T> items_;
    std::size_t head_ = 0;
  };

  /// One tracked message. Its unacked destinations are a bitset over
  /// endpoint slots (bit `dest + 1`, so the coordinator is bit 0), sized to
  /// the highest destination, plus the count of set bits. An entry whose
  /// count reaches zero is resolved: it stays in its sender's queue as a
  /// hole until it reaches the front, where it is popped.
  struct InFlight {
    RuntimeMessage message;               ///< original, retransmit flag unset
    std::vector<std::uint64_t> awaiting;  ///< destinations yet to ack
    int awaiting_count = 0;               ///< set bits in `awaiting`
    int attempts = 0;                     ///< retransmissions performed so far
    long due_round = 0;                   ///< next retransmission round
  };

  /// Receive-side dedup state of one link: every seq <= floor is seen, and
  /// `above` holds the seen seqs > floor in ascending order, at most
  /// dedup_window of them. In-order arrival appends; compaction pops the
  /// lowest seq into the floor.
  struct SeenWindow {
    std::int64_t floor = 0;
    SlidingQueue<std::int64_t> above;
  };

  static bool Tracked(const RuntimeMessage& message);
  /// Dense index of an endpoint (kCoordinatorId → 0, site i → i + 1).
  int Slot(int endpoint) const;
  long NextBackoff(int attempts);
  void Ack(int receiver, const RuntimeMessage& message);
  void Resolve(int sender, std::int64_t seq, int receiver);
  static bool Awaits(const InFlight& entry, int dest);
  void AddAwait(InFlight* entry, int dest) const;
  /// Calls `visit(dest)` for each destination the entry still awaits, in
  /// ascending id order (the coordinator first).
  template <typename Visit>
  static void ForEachAwaited(const InFlight& entry, Visit visit);
  /// Releases `dest` from an entry's awaiting set, maintaining the per-peer
  /// pending count and the live-entry count. Returns true if the entry is
  /// now resolved.
  bool ReleaseAwait(InFlight* entry, int dest);
  /// Pops resolved entries off the front of the queue at `slot`, and marks
  /// the sender idle once its queue is empty.
  void PopResolved(std::size_t slot);
  /// The first sender slot >= `slot` with a non-empty queue, or
  /// in_flight_.size() if none. Sweeps step through senders with it, so
  /// idle endpoints cost a bit test, not a visit.
  std::size_t NextBusySender(std::size_t slot) const;
  /// Frees one queue slot on the link `sender` → `dest` by evicting that
  /// link's oldest in-flight expectation (the sender's queue is in send
  /// order).
  void EvictOldestOn(int sender, int dest);
  /// Dense index of the directed link `sender` → `receiver` (every link has
  /// the coordinator at one end): site → coordinator links at [site],
  /// coordinator → site links at [num_sites + site].
  std::size_t Link(int sender, int receiver) const;

  Transport* lower_;
  int num_sites_;
  ReliableTransportConfig config_;
  Telemetry* telemetry_;
  Rng rng_;
  std::function<void(int, const RuntimeMessage&)> dead_link_handler_;

  std::vector<bool> link_up_;
  // Per-endpoint state below is indexed by Slot(): the coordinator at 0,
  // site i at i + 1.
  /// Next sequence number per sender endpoint.
  std::vector<std::int64_t> next_seq_;
  /// Tracked messages per sender endpoint, in seq order. The front entry of
  /// every queue is unresolved; resolved entries further back are holes.
  std::vector<SlidingQueue<InFlight>> in_flight_;
  /// Bit s set ⇔ in_flight_[s] is non-empty.
  std::vector<std::uint64_t> busy_senders_;
  /// Unresolved entries across all queues.
  long live_in_flight_ = 0;
  /// In-flight expectations per directed link (indexed by Link()), bounded
  /// by max_in_flight_per_peer via eviction.
  std::vector<long> pending_per_link_;
  /// Receive-side dedup windows per directed link (indexed by Link()).
  std::vector<SeenWindow> seen_;

  long round_ = 0;
  Stats stats_;
};

}  // namespace sgm

#endif  // SGM_RUNTIME_RELIABLE_TRANSPORT_H_
