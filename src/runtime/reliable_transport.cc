#include "runtime/reliable_transport.h"

#include <algorithm>
#include <bit>

#include "core/check.h"
#include "obs/telemetry.h"
#include "runtime/round_clock.h"

namespace sgm {

ReliableTransport::ReliableTransport(Transport* lower, int num_sites,
                                     const ReliableTransportConfig& config,
                                     Telemetry* telemetry)
    : lower_(lower),
      num_sites_(num_sites),
      config_(config),
      telemetry_(telemetry),
      rng_(config.seed),
      link_up_(num_sites, true),
      next_seq_(num_sites + 1, 0),
      in_flight_(num_sites + 1),
      busy_senders_(static_cast<std::size_t>(num_sites) / 64 + 1, 0),
      pending_per_link_(2 * static_cast<std::size_t>(num_sites), 0),
      seen_(2 * static_cast<std::size_t>(num_sites)) {
  SGM_CHECK(lower != nullptr);
  SGM_CHECK(num_sites > 0);
  SGM_CHECK(config.max_retransmits >= 0);
  SGM_CHECK(config.base_backoff_rounds >= 1);
  SGM_CHECK(config.max_backoff_rounds >= config.base_backoff_rounds);
  SGM_CHECK(config.max_in_flight_per_peer >= 1);
  SGM_CHECK(config.dedup_window >= 8);
}

bool ReliableTransport::Tracked(const RuntimeMessage& message) {
  // Session-control traffic (hello, lockstep cycle/barrier frames,
  // shutdown) is fire-and-forget: the socket runtime carries it over a
  // stream that already guarantees delivery and order, and the sim never
  // emits it. Tracking it would only add ack noise.
  if (message.is_session_control()) return false;
  switch (message.type) {
    case RuntimeMessage::Type::kAck:
    case RuntimeMessage::Type::kHeartbeat:
    case RuntimeMessage::Type::kRejoinRequest:
      return false;
    default:
      return true;
  }
}

long ReliableTransport::NextBackoff(int attempts) {
  long backoff = config_.base_backoff_rounds;
  for (int i = 0; i < attempts && backoff < config_.max_backoff_rounds; ++i) {
    backoff *= 2;
  }
  backoff = std::min<long>(backoff, config_.max_backoff_rounds);
  // Deterministic jitter: desynchronizes retransmission bursts without
  // breaking seed replay.
  return backoff + static_cast<long>(rng_.NextBounded(2));
}

int ReliableTransport::Slot(int endpoint) const {
  SGM_CHECK_MSG(endpoint >= kCoordinatorId && endpoint < num_sites_,
                "endpoint %d outside the %d-site topology", endpoint,
                num_sites_);
  return endpoint + 1;
}

bool ReliableTransport::Awaits(const InFlight& entry, int dest) {
  if (dest < kCoordinatorId) return false;
  const auto bit = static_cast<std::size_t>(dest + 1);
  return bit / 64 < entry.awaiting.size() &&
         ((entry.awaiting[bit / 64] >> (bit % 64)) & 1) != 0;
}

void ReliableTransport::AddAwait(InFlight* entry, int dest) const {
  const auto bit = static_cast<std::size_t>(Slot(dest));
  if (bit / 64 >= entry->awaiting.size()) {
    entry->awaiting.resize(bit / 64 + 1, 0);
  }
  const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
  if ((entry->awaiting[bit / 64] & mask) == 0) {
    entry->awaiting[bit / 64] |= mask;
    ++entry->awaiting_count;
  }
}

template <typename Visit>
void ReliableTransport::ForEachAwaited(const InFlight& entry, Visit visit) {
  for (std::size_t word = 0; word < entry.awaiting.size(); ++word) {
    for (std::uint64_t bits = entry.awaiting[word]; bits != 0;
         bits &= bits - 1) {
      visit(static_cast<int>(word * 64 + std::countr_zero(bits)) - 1);
    }
  }
}

bool ReliableTransport::ReleaseAwait(InFlight* entry, int dest) {
  if (!Awaits(*entry, dest)) return false;
  const auto bit = static_cast<std::size_t>(dest + 1);
  entry->awaiting[bit / 64] &= ~(std::uint64_t{1} << (bit % 64));
  --pending_per_link_[Link(entry->message.from, dest)];
  if (--entry->awaiting_count > 0) return false;
  --live_in_flight_;
  return true;
}

void ReliableTransport::PopResolved(std::size_t slot) {
  SlidingQueue<InFlight>& queue = in_flight_[slot];
  while (!queue.empty() && queue.front().awaiting_count == 0) {
    queue.pop_front();
  }
  if (queue.empty()) {
    busy_senders_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
  }
}

std::size_t ReliableTransport::NextBusySender(std::size_t slot) const {
  std::size_t word = slot / 64;
  if (word >= busy_senders_.size()) return in_flight_.size();
  std::uint64_t bits = busy_senders_[word] & (~std::uint64_t{0} << (slot % 64));
  while (bits == 0) {
    if (++word == busy_senders_.size()) return in_flight_.size();
    bits = busy_senders_[word];
  }
  return word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
}

void ReliableTransport::EvictOldestOn(int sender, int dest) {
  const auto slot = static_cast<std::size_t>(Slot(sender));
  for (InFlight& entry : in_flight_[slot]) {
    if (!Awaits(entry, dest)) continue;
    ++stats_.queue_evictions;
    if (telemetry_ != nullptr) {
      telemetry_->trace.Emit(TraceEventId::kQueueEvict, sender,
                             {{"dest", dest}, {"seq", entry.message.seq}});
    }
    if (ReleaseAwait(&entry, dest)) PopResolved(slot);
    return;
  }
}

void ReliableTransport::MarkLinkDown(int site) {
  if (site < 0 || site >= num_sites_) return;
  link_up_[site] = false;
  // Release every pending expectation on the dead link; entries whose last
  // awaited destination this was complete immediately.
  for (std::size_t slot = NextBusySender(0); slot < in_flight_.size();
       slot = NextBusySender(slot + 1)) {
    for (InFlight& entry : in_flight_[slot]) ReleaseAwait(&entry, site);
    PopResolved(slot);
  }
}

void ReliableTransport::AbandonSender(int sender) {
  const auto slot = static_cast<std::size_t>(Slot(sender));
  for (const InFlight& entry : in_flight_[slot]) {
    if (entry.awaiting_count == 0) continue;
    ForEachAwaited(entry, [this, sender](int dest) {
      --pending_per_link_[Link(sender, dest)];
    });
    --live_in_flight_;
  }
  in_flight_[slot].clear();
  PopResolved(slot);
}

void ReliableTransport::MarkLinkUp(int site) {
  if (site >= 0 && site < num_sites_) link_up_[site] = true;
}

bool ReliableTransport::IsLinkUp(int site) const {
  return site >= 0 && site < num_sites_ && link_up_[site];
}

void ReliableTransport::Send(const RuntimeMessage& message) {
  if (!Tracked(message)) {
    lower_->Send(message);
    return;
  }
  const auto sender = static_cast<std::size_t>(Slot(message.from));
  RuntimeMessage stamped = message;
  stamped.seq = ++next_seq_[sender];
  stamped.retransmit = false;

  InFlight entry;
  if (stamped.to == kBroadcastId) {
    entry.awaiting.resize(static_cast<std::size_t>(num_sites_) / 64 + 1, 0);
    for (int site = 0; site < num_sites_; ++site) {
      if (link_up_[site]) AddAwait(&entry, site);
    }
  } else if (stamped.to >= 0 && stamped.to < num_sites_ &&
             !link_up_[stamped.to]) {
    // Administratively-down destination: best-effort, no tracking (the
    // rejoin machinery owns resynchronization).
  } else {
    AddAwait(&entry, stamped.to);
  }
  if (entry.awaiting_count > 0) {
    ++stats_.tracked_sends;
    entry.due_round = round_ + NextBackoff(0);
    ForEachAwaited(entry, [this, &stamped](int dest) {
      // Per-link queue cap: free a slot before claiming one, so the newest
      // message (the one the protocol currently cares about) always tracks.
      long& pending = pending_per_link_[Link(stamped.from, dest)];
      if (pending >= config_.max_in_flight_per_peer) {
        EvictOldestOn(stamped.from, dest);
      }
      ++pending;
    });
    entry.message = stamped;
    in_flight_[sender].push_back(std::move(entry));
    busy_senders_[sender / 64] |= std::uint64_t{1} << (sender % 64);
    ++live_in_flight_;
  }
  if (telemetry_ != nullptr && stamped.span != 0 &&
      !SpanUnsampled(stamped.span)) {
    // Per-span cost attribution: one msg_send per span-carrying original
    // transmission, so trace_inspect --spans can charge message/byte cost
    // to the cycle phase that caused it. Span-less traffic (heartbeats,
    // acks, rejoin requests) stays out of the span trees, and an unsampled
    // cascade skips the whole formatting call, not just the recording.
    telemetry_->trace.Emit(
        TraceEventId::kMsgSend, stamped.from,
        {{"type", RuntimeMessage::TypeName(stamped.type)},
         {"span", stamped.span},
         {"parent", stamped.parent_span},
         {"bytes", static_cast<std::int64_t>(WireBytes(stamped))}});
  }
  lower_->Send(stamped);
}

void ReliableTransport::Ack(int receiver, const RuntimeMessage& message) {
  RuntimeMessage ack;
  ack.type = RuntimeMessage::Type::kAck;
  ack.from = receiver;
  ack.to = message.from;
  ack.epoch = message.epoch;
  ack.seq = message.seq;
  ++stats_.acks_sent;
  lower_->Send(ack);
}

void ReliableTransport::Resolve(int sender, std::int64_t seq, int receiver) {
  if (sender < kCoordinatorId || sender >= num_sites_) return;
  const auto slot = static_cast<std::size_t>(Slot(sender));
  SlidingQueue<InFlight>& queue = in_flight_[slot];
  InFlight* it = std::lower_bound(
      queue.begin(), queue.end(), seq,
      [](const InFlight& entry, std::int64_t s) {
        return entry.message.seq < s;
      });
  if (it == queue.end() || it->message.seq != seq) return;
  if (ReleaseAwait(it, receiver)) PopResolved(slot);
}

std::size_t ReliableTransport::Link(int sender, int receiver) const {
  const int site = receiver == kCoordinatorId ? sender : receiver;
  SGM_CHECK_MSG((receiver == kCoordinatorId) != (sender == kCoordinatorId) &&
                    site >= 0 && site < num_sites_,
                "link %d -> %d does not end at the coordinator", sender,
                receiver);
  return static_cast<std::size_t>(
      receiver == kCoordinatorId ? site : num_sites_ + site);
}

void ReliableTransport::OnDeliver(int receiver, const RuntimeMessage& message,
                                  std::vector<RuntimeMessage>* deliver) {
  SGM_CHECK(deliver != nullptr);
  if (message.type == RuntimeMessage::Type::kAck) {
    // message.to is the original sender whose seq is being acknowledged.
    Resolve(message.to, message.seq, message.from);
    return;
  }
  if (message.seq == 0) {  // unsequenced control (heartbeat, rejoin request)
    deliver->push_back(message);
    return;
  }

  SeenWindow& window = seen_[Link(message.from, receiver)];
  SlidingQueue<std::int64_t>& above = window.above;
  // In-order arrival (the common case) lands past the newest seen seq.
  const std::int64_t* pos =
      above.empty() || message.seq > above.back()
          ? above.end()
          : std::lower_bound(above.begin(), above.end(), message.seq);
  const bool duplicate = message.seq <= window.floor ||
                         (pos != above.end() && *pos == message.seq);
  if (duplicate) {
    ++stats_.duplicates_suppressed;
    if (telemetry_ != nullptr) {
      telemetry_->trace.Emit(TraceEventId::kDuplicateSuppressed, receiver,
                             {{"sender", message.from}, {"seq", message.seq}});
    }
    Ack(receiver, message);  // the previous ack may have been lost
    return;
  }
  above.insert(pos, message.seq);
  while (above.size() > static_cast<std::size_t>(config_.dedup_window)) {
    // Compact: promote the lowest retained seq into the floor. Anything
    // older than the window is long past its retransmission horizon.
    window.floor = above.front();
    above.pop_front();
    ++stats_.dedup_evictions;
  }
  Ack(receiver, message);
  deliver->push_back(message);
}

void ReliableTransport::AdvanceRound() {
  // Built-in logical counter by default (byte-identical seed replay); an
  // injected clock supplies the round instead, clamped so the counter never
  // moves backwards even if the clock misbehaves.
  round_ = config_.round_clock != nullptr
               ? std::max(round_, config_.round_clock->AdvanceRound())
               : round_ + 1;
  if (live_in_flight_ == 0) return;
  // Handlers can re-enter (MarkLinkDown mutates in_flight_), so collect the
  // exhausted links during the sweep and report them after it. The sweep
  // runs in (sender, seq) order, which fixes the order of NextBackoff draws.
  std::vector<std::pair<int, RuntimeMessage>> exhausted_links;
  for (std::size_t slot = NextBusySender(0); slot < in_flight_.size();
       slot = NextBusySender(slot + 1)) {
    for (InFlight& entry : in_flight_[slot]) {
      if (entry.awaiting_count == 0 || entry.due_round > round_) continue;
      if (entry.attempts >= config_.max_retransmits) {
        // Exhausted: report still-awaited site links as dead and abandon.
        ++stats_.give_ups;
        if (telemetry_ != nullptr) {
          telemetry_->trace.Emit(
              TraceEventId::kGiveUp, entry.message.from,
              {{"sender", entry.message.from}, {"seq", entry.message.seq}});
        }
        ForEachAwaited(entry, [&](int dest) {
          --pending_per_link_[Link(entry.message.from, dest)];
          if (dest >= 0) exhausted_links.emplace_back(dest, entry.message);
        });
        entry.awaiting.clear();
        entry.awaiting_count = 0;
        --live_in_flight_;
        continue;
      }
      ++entry.attempts;
      entry.due_round = round_ + NextBackoff(entry.attempts);
      // A broadcast retransmits as unicast copies to the missing sites
      // only; dedup on the receiver keys by (sender, seq), so overlap with
      // the original broadcast is suppressed.
      RuntimeMessage copy = entry.message;
      copy.retransmit = true;
      ForEachAwaited(entry, [&](int dest) {
        copy.to = dest;
        ++stats_.retransmissions;
        if (telemetry_ != nullptr && !SpanUnsampled(copy.span)) {
          telemetry_->trace.Emit(
              TraceEventId::kRetransmit, copy.from,
              {{"sender", copy.from},
               {"seq", copy.seq},
               {"attempt", entry.attempts},
               {"span", copy.span},
               {"bytes", static_cast<std::int64_t>(WireBytes(copy))}});
        }
        lower_->Send(copy);
      });
    }
    PopResolved(slot);
  }
  if (dead_link_handler_) {
    for (const auto& [site, message] : exhausted_links) {
      dead_link_handler_(site, message);
    }
  }
}

void ReliableTransport::PublishMetrics(MetricRegistry* registry) const {
  if (registry == nullptr) return;
  registry->GetCounter("transport.tracked_sends")->Set(stats_.tracked_sends);
  registry->GetCounter("transport.retransmissions")
      ->Set(stats_.retransmissions);
  registry->GetCounter("transport.acks_sent")->Set(stats_.acks_sent);
  registry->GetCounter("transport.duplicates_suppressed")
      ->Set(stats_.duplicates_suppressed);
  registry->GetCounter("transport.give_ups")->Set(stats_.give_ups);
  registry->GetCounter("transport.queue_evictions")
      ->Set(stats_.queue_evictions);
  registry->GetCounter("transport.dedup_evictions")
      ->Set(stats_.dedup_evictions);
}

}  // namespace sgm
