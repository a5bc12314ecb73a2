// Unit tests of the ack/retransmit reliability decorator: sequencing, ack
// resolution, backoff retransmission, give-up reporting, receive-side
// dedup, and the control-message / link-administration exemptions.

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/reliable_transport.h"
#include "runtime/round_clock.h"
#include "runtime/transport.h"

namespace sgm {
namespace {

RuntimeMessage Report(int from) {
  RuntimeMessage m;
  m.type = RuntimeMessage::Type::kStateReport;
  m.from = from;
  m.to = kCoordinatorId;
  m.payload = Vector{1.0, 2.0};
  return m;
}

RuntimeMessage EstimateBroadcast() {
  RuntimeMessage m;
  m.type = RuntimeMessage::Type::kNewEstimate;
  m.from = kCoordinatorId;
  m.to = kBroadcastId;
  m.payload = Vector{3.0, 4.0};
  return m;
}

/// Feeds one message through the receive stack and returns what survived.
std::vector<RuntimeMessage> DeliverTo(ReliableTransport* rt, int receiver,
                                      const RuntimeMessage& message) {
  std::vector<RuntimeMessage> fresh;
  rt->OnDeliver(receiver, message, &fresh);
  return fresh;
}

/// Jumps `step` rounds per AdvanceRound, so every entry due within the jump
/// fires in one retransmission sweep.
class SteppedRoundClock final : public RoundClock {
 public:
  explicit SteppedRoundClock(std::int64_t step) : step_(step) {}
  std::int64_t AdvanceRound() override { return round_ += step_; }
  std::int64_t CurrentRound() const override { return round_; }

 private:
  std::int64_t step_;
  std::int64_t round_ = 0;
};

RuntimeMessage AckOf(const RuntimeMessage& message, int receiver) {
  RuntimeMessage ack;
  ack.type = RuntimeMessage::Type::kAck;
  ack.from = receiver;
  ack.to = message.from;
  ack.seq = message.seq;
  return ack;
}

RuntimeMessage UnicastTo(int site) {
  RuntimeMessage m = EstimateBroadcast();
  m.to = site;
  return m;
}

/// Pops everything on the bus and returns the seqs, in wire order.
std::vector<std::int64_t> DrainSeqs(InMemoryBus* bus) {
  std::vector<std::int64_t> seqs;
  while (!bus->empty()) seqs.push_back(bus->Pop().seq);
  return seqs;
}

TEST(ReliableTransportTest, AckResolvesAndNothingRetransmits) {
  InMemoryBus bus;
  ReliableTransport rt(&bus, 2, ReliableTransportConfig{});
  rt.Send(Report(0));
  ASSERT_FALSE(bus.empty());
  const RuntimeMessage sent = bus.Pop();
  EXPECT_GT(sent.seq, 0);
  EXPECT_FALSE(sent.retransmit);
  EXPECT_TRUE(rt.HasUnacked());

  // Coordinator receives: the message survives and an ack goes back.
  const auto fresh = DeliverTo(&rt, kCoordinatorId, sent);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(rt.stats().acks_sent, 1);
  ASSERT_FALSE(bus.empty());
  const RuntimeMessage ack = bus.Pop();
  ASSERT_EQ(ack.type, RuntimeMessage::Type::kAck);
  EXPECT_EQ(ack.to, 0);
  EXPECT_EQ(ack.seq, sent.seq);

  // The ack resolves the in-flight entry; nothing ever retransmits.
  EXPECT_TRUE(DeliverTo(&rt, 0, ack).empty());
  EXPECT_FALSE(rt.HasUnacked());
  for (int i = 0; i < 32; ++i) rt.AdvanceRound();
  EXPECT_EQ(rt.stats().retransmissions, 0);
  EXPECT_TRUE(bus.empty());
}

TEST(ReliableTransportTest, LostMessageRetransmitsWithSameSequence) {
  InMemoryBus bus;
  ReliableTransport rt(&bus, 2, ReliableTransportConfig{});
  rt.Send(Report(1));
  const RuntimeMessage original = bus.Pop();  // dropped on the floor

  // base_backoff 1 + jitter {0,1}: the copy fires within two rounds.
  rt.AdvanceRound();
  if (bus.empty()) rt.AdvanceRound();
  ASSERT_FALSE(bus.empty());
  const RuntimeMessage copy = bus.Pop();
  EXPECT_TRUE(copy.retransmit);
  EXPECT_EQ(copy.seq, original.seq);
  EXPECT_EQ(copy.type, original.type);
  EXPECT_EQ(rt.stats().retransmissions, 1);
  EXPECT_TRUE(rt.HasUnacked());
}

TEST(ReliableTransportTest, DuplicateSuppressedAndReAcked) {
  InMemoryBus bus;
  ReliableTransport rt(&bus, 2, ReliableTransportConfig{});
  rt.Send(Report(0));
  const RuntimeMessage sent = bus.Pop();

  EXPECT_EQ(DeliverTo(&rt, kCoordinatorId, sent).size(), 1u);
  // The same (sender, seq) again — e.g. a retransmitted copy racing the
  // ack: suppressed, but re-acked in case the first ack was lost.
  EXPECT_TRUE(DeliverTo(&rt, kCoordinatorId, sent).empty());
  EXPECT_EQ(rt.stats().duplicates_suppressed, 1);
  EXPECT_EQ(rt.stats().acks_sent, 2);
}

TEST(ReliableTransportTest, BroadcastRetransmitsUnicastToSilentSitesOnly) {
  InMemoryBus bus;
  ReliableTransport rt(&bus, 3, ReliableTransportConfig{});
  rt.Send(EstimateBroadcast());
  const RuntimeMessage broadcast = bus.Pop();
  ASSERT_EQ(broadcast.to, kBroadcastId);

  // Sites 0 and 1 receive and ack; site 2 never sees it.
  for (int site : {0, 1}) {
    ASSERT_EQ(DeliverTo(&rt, site, broadcast).size(), 1u);
    const RuntimeMessage ack = bus.Pop();
    ASSERT_EQ(ack.type, RuntimeMessage::Type::kAck);
    EXPECT_TRUE(DeliverTo(&rt, kCoordinatorId, ack).empty());
  }
  EXPECT_TRUE(rt.HasUnacked());

  rt.AdvanceRound();
  if (bus.empty()) rt.AdvanceRound();
  ASSERT_FALSE(bus.empty());
  const RuntimeMessage copy = bus.Pop();
  EXPECT_TRUE(bus.empty());  // exactly one copy, for the one silent site
  EXPECT_TRUE(copy.retransmit);
  EXPECT_EQ(copy.to, 2);
  EXPECT_EQ(copy.seq, broadcast.seq);

  // Site 2's dedup still keys by (sender, seq): the late original would be
  // suppressed once the unicast copy has been delivered.
  ASSERT_EQ(DeliverTo(&rt, 2, copy).size(), 1u);
  bus.Pop();  // site 2's ack
  EXPECT_TRUE(DeliverTo(&rt, 2, broadcast).empty());
  EXPECT_EQ(rt.stats().duplicates_suppressed, 1);
}

TEST(ReliableTransportTest, GiveUpReportsDeadLinksWithTheLostMessage) {
  InMemoryBus bus;
  ReliableTransportConfig config;
  config.max_retransmits = 1;
  ReliableTransport rt(&bus, 2, config);
  std::vector<std::pair<int, RuntimeMessage::Type>> dead;
  rt.SetDeadLinkHandler([&](int site, const RuntimeMessage& m) {
    dead.emplace_back(site, m.type);
  });

  rt.Send(EstimateBroadcast());
  // Drop everything the transport ever puts on the wire.
  while (!bus.empty()) bus.Pop();
  for (int i = 0; i < 32 && rt.HasUnacked(); ++i) {
    rt.AdvanceRound();
    while (!bus.empty()) bus.Pop();
  }
  EXPECT_FALSE(rt.HasUnacked());
  EXPECT_EQ(rt.stats().give_ups, 1);
  ASSERT_EQ(dead.size(), 2u);  // both broadcast destinations were unreachable
  for (const auto& [site, type] : dead) {
    EXPECT_TRUE(site == 0 || site == 1);
    EXPECT_EQ(type, RuntimeMessage::Type::kNewEstimate);
  }
}

TEST(ReliableTransportTest, ControlMessagesAreNeverTracked) {
  InMemoryBus bus;
  ReliableTransport rt(&bus, 2, ReliableTransportConfig{});
  for (const RuntimeMessage::Type type :
       {RuntimeMessage::Type::kHeartbeat,
        RuntimeMessage::Type::kRejoinRequest}) {
    RuntimeMessage m;
    m.type = type;
    m.from = 0;
    m.to = kCoordinatorId;
    rt.Send(m);
    const RuntimeMessage sent = bus.Pop();
    EXPECT_EQ(sent.seq, 0);  // unsequenced
    EXPECT_FALSE(rt.HasUnacked());
    // Delivered verbatim; no ack is generated for unsequenced traffic.
    EXPECT_EQ(DeliverTo(&rt, kCoordinatorId, sent).size(), 1u);
    EXPECT_TRUE(bus.empty());
  }
  EXPECT_EQ(rt.stats().acks_sent, 0);
}

TEST(ReliableTransportTest, LinkDownReleasesAndExcludesFromTracking) {
  InMemoryBus bus;
  ReliableTransport rt(&bus, 3, ReliableTransportConfig{});

  // Pending expectations on a link are released when it goes down.
  RuntimeMessage unicast = EstimateBroadcast();
  unicast.to = 0;
  rt.Send(unicast);
  bus.Pop();
  ASSERT_TRUE(rt.HasUnacked());
  rt.MarkLinkDown(0);
  EXPECT_FALSE(rt.HasUnacked());
  EXPECT_FALSE(rt.IsLinkUp(0));

  // A fresh unicast to the down link is forwarded best-effort, untracked;
  // a broadcast only awaits the up links.
  rt.Send(unicast);
  EXPECT_FALSE(bus.empty());
  bus.Pop();
  EXPECT_FALSE(rt.HasUnacked());
  rt.Send(EstimateBroadcast());
  bus.Pop();
  ASSERT_TRUE(rt.HasUnacked());
  for (int site : {1, 2}) {
    RuntimeMessage ack;
    ack.type = RuntimeMessage::Type::kAck;
    ack.from = site;
    ack.to = kCoordinatorId;
    ack.seq = 3;  // third tracked send from the coordinator
    EXPECT_TRUE(DeliverTo(&rt, kCoordinatorId, ack).empty());
  }
  EXPECT_FALSE(rt.HasUnacked());

  rt.MarkLinkUp(0);
  EXPECT_TRUE(rt.IsLinkUp(0));
}

TEST(ReliableTransportTest, QueueCapEvictsOldestExpectationPerPeer) {
  InMemoryBus bus;
  ReliableTransportConfig config;
  config.max_in_flight_per_peer = 2;
  ReliableTransport rt(&bus, 2, config);
  int dead_links = 0;
  rt.SetDeadLinkHandler([&](int, const RuntimeMessage&) { ++dead_links; });

  RuntimeMessage unicast = EstimateBroadcast();
  unicast.to = 0;
  rt.Send(unicast);
  const std::int64_t oldest_seq = bus.Pop().seq;
  rt.Send(unicast);
  bus.Pop();
  // The third tracked send would exceed the cap on peer 0: the oldest
  // expectation is released — best-effort from then on, not a dead link.
  rt.Send(unicast);
  bus.Pop();
  EXPECT_EQ(rt.stats().queue_evictions, 1);
  EXPECT_EQ(dead_links, 0);

  // The evicted entry no longer retransmits; the two retained ones do.
  while (!bus.empty()) bus.Pop();
  rt.AdvanceRound();
  rt.AdvanceRound();
  std::vector<std::int64_t> retransmitted;
  while (!bus.empty()) retransmitted.push_back(bus.Pop().seq);
  EXPECT_EQ(retransmitted.size(), 2u);
  for (const std::int64_t seq : retransmitted) {
    EXPECT_NE(seq, oldest_seq);
  }
}

TEST(ReliableTransportTest, DedupWindowCompactsIntoFloorWithoutMisjudging) {
  InMemoryBus bus;
  ReliableTransportConfig config;
  config.dedup_window = 8;  // the smallest legal window
  ReliableTransport rt(&bus, 2, config);

  RuntimeMessage unicast = EstimateBroadcast();
  unicast.to = 0;
  std::vector<RuntimeMessage> delivered;
  for (int i = 0; i < 24; ++i) {
    rt.Send(unicast);
    const RuntimeMessage sent = bus.Pop();
    EXPECT_EQ(DeliverTo(&rt, 0, sent).size(), 1u);
    delivered.push_back(sent);
    while (!bus.empty()) bus.Pop();  // acks
  }
  EXPECT_GT(rt.stats().dedup_evictions, 0);

  // Seqs compacted below the floor are still recognized as duplicates: a
  // very late straggler copy must not be delivered twice.
  EXPECT_TRUE(DeliverTo(&rt, 0, delivered.front()).empty());
  EXPECT_TRUE(DeliverTo(&rt, 0, delivered.back()).empty());
  EXPECT_GE(rt.stats().duplicates_suppressed, 2);
}

TEST(ReliableTransportTest, AbandonSenderVoidsInFlightWithoutDeadVerdicts) {
  InMemoryBus bus;
  ReliableTransport rt(&bus, 3, ReliableTransportConfig{});
  int dead_links = 0;
  rt.SetDeadLinkHandler([&](int, const RuntimeMessage&) { ++dead_links; });

  rt.Send(EstimateBroadcast());
  const std::int64_t first_seq = bus.Pop().seq;
  ASSERT_TRUE(rt.HasUnacked());

  // The coordinator process died: its unacked traffic is void — the
  // receivers are fine, so no dead-link verdicts and no give-ups.
  rt.AbandonSender(kCoordinatorId);
  EXPECT_FALSE(rt.HasUnacked());
  EXPECT_EQ(dead_links, 0);
  EXPECT_EQ(rt.stats().give_ups, 0);
  for (int i = 0; i < 16; ++i) rt.AdvanceRound();
  EXPECT_TRUE(bus.empty());  // nothing left to retransmit

  // A recovered coordinator keeps numbering where it left off, so the
  // receivers' dedup windows stay coherent across the crash.
  rt.Send(EstimateBroadcast());
  EXPECT_EQ(bus.Pop().seq, first_seq + 1);
}

TEST(ReliableTransportTest, RetransmissionScheduleIsSeedDeterministic) {
  // Two transports with the same seed make identical jitter choices; a
  // different seed is allowed to differ (and does for this scenario).
  const auto schedule = [](std::uint64_t seed) {
    InMemoryBus bus;
    ReliableTransportConfig config;
    config.seed = seed;
    ReliableTransport rt(&bus, 2, config);
    rt.Send(Report(0));
    while (!bus.empty()) bus.Pop();
    std::vector<int> rounds;
    for (int i = 0; i < 64 && rt.HasUnacked(); ++i) {
      rt.AdvanceRound();
      if (!bus.empty()) rounds.push_back(i);
      while (!bus.empty()) bus.Pop();
    }
    return rounds;
  };
  EXPECT_EQ(schedule(7), schedule(7));
  EXPECT_FALSE(schedule(7).empty());
}

TEST(ReliableTransportTest, MidQueueAckRetransmitsOnlyTheRestInSeqOrder) {
  InMemoryBus bus;
  SteppedRoundClock clock(4);  // past every first deadline (1 + jitter)
  ReliableTransportConfig config;
  config.round_clock = &clock;
  ReliableTransport rt(&bus, 2, config);
  for (int i = 0; i < 4; ++i) rt.Send(UnicastTo(0));
  EXPECT_EQ(DrainSeqs(&bus), (std::vector<std::int64_t>{1, 2, 3, 4}));

  // Site 0 acks seq 2 only: a resolved hole in the middle of the queue.
  RuntimeMessage second = UnicastTo(0);
  second.seq = 2;
  EXPECT_TRUE(DeliverTo(&rt, kCoordinatorId, AckOf(second, 0)).empty());
  EXPECT_TRUE(rt.HasUnacked());

  rt.AdvanceRound();
  EXPECT_EQ(DrainSeqs(&bus), (std::vector<std::int64_t>{1, 3, 4}));
  EXPECT_EQ(rt.stats().retransmissions, 3);

  // Acking the rest, front hole included, empties the queue.
  for (const std::int64_t seq : {1, 3, 4}) {
    RuntimeMessage m = UnicastTo(0);
    m.seq = seq;
    DeliverTo(&rt, kCoordinatorId, AckOf(m, 0));
  }
  EXPECT_FALSE(rt.HasUnacked());
}

TEST(ReliableTransportTest, EvictionTakesOldestAcrossSendersPastHoles) {
  InMemoryBus bus;
  SteppedRoundClock clock(4);
  ReliableTransportConfig config;
  config.round_clock = &clock;
  config.max_in_flight_per_peer = 3;
  ReliableTransport rt(&bus, 2, config);

  // Site 0 sends seqs 1..3 to the coordinator; the coordinator acks seq 2,
  // leaving site 0's queue as [1, hole, 3].
  for (int i = 0; i < 3; ++i) rt.Send(Report(0));
  DrainSeqs(&bus);
  RuntimeMessage second = Report(0);
  second.seq = 2;
  DeliverTo(&rt, 0, AckOf(second, kCoordinatorId));
  rt.Send(Report(1));  // site 1 seq 1: three expectations on the coordinator
  DrainSeqs(&bus);
  EXPECT_EQ(rt.stats().queue_evictions, 0);

  // At the cap, each new send evicts the oldest live expectation in
  // (sender, seq) order: site 0's seq 1, then — past the hole — seq 3.
  rt.Send(Report(1));
  rt.Send(Report(1));
  DrainSeqs(&bus);
  EXPECT_EQ(rt.stats().queue_evictions, 2);

  rt.AdvanceRound();
  std::vector<std::pair<int, std::int64_t>> retransmitted;
  while (!bus.empty()) {
    const RuntimeMessage copy = bus.Pop();
    retransmitted.emplace_back(copy.from, copy.seq);
  }
  EXPECT_EQ(retransmitted, (std::vector<std::pair<int, std::int64_t>>{
                               {1, 1}, {1, 2}, {1, 3}}));
}

TEST(ReliableTransportTest, AbandonSenderWithHolesKeepsPeerCountsExact) {
  InMemoryBus bus;
  ReliableTransportConfig config;
  config.max_in_flight_per_peer = 3;
  ReliableTransport rt(&bus, 2, config);

  // Coordinator queue [1, hole, 3] toward site 0: two live expectations.
  for (int i = 0; i < 3; ++i) rt.Send(UnicastTo(0));
  DrainSeqs(&bus);
  RuntimeMessage second = UnicastTo(0);
  second.seq = 2;
  DeliverTo(&rt, kCoordinatorId, AckOf(second, 0));
  rt.AbandonSender(kCoordinatorId);
  EXPECT_FALSE(rt.HasUnacked());

  // Site 0's pending count is back to exactly zero: three sends fit under
  // the cap, and only the fourth evicts.
  for (int i = 0; i < 3; ++i) rt.Send(UnicastTo(0));
  EXPECT_EQ(rt.stats().queue_evictions, 0);
  rt.Send(UnicastTo(0));
  EXPECT_EQ(rt.stats().queue_evictions, 1);
}

TEST(ReliableTransportTest, OutOfOrderArrivalInsideWindowThenDuplicates) {
  InMemoryBus bus;
  ReliableTransport rt(&bus, 2, ReliableTransportConfig{});
  std::vector<RuntimeMessage> sent;
  for (int i = 0; i < 5; ++i) {
    rt.Send(UnicastTo(0));
    sent.push_back(bus.Pop());
  }

  // Seq 5 arrives first, then seq 3: both fresh.
  EXPECT_EQ(DeliverTo(&rt, 0, sent[4]).size(), 1u);
  EXPECT_EQ(DeliverTo(&rt, 0, sent[2]).size(), 1u);
  // Late copies of both are suppressed (and re-acked).
  EXPECT_TRUE(DeliverTo(&rt, 0, sent[4]).empty());
  EXPECT_TRUE(DeliverTo(&rt, 0, sent[2]).empty());
  EXPECT_EQ(rt.stats().duplicates_suppressed, 2);
  // The gaps are still open: seqs 1, 2 and 4 deliver once each.
  for (const int i : {0, 1, 3}) {
    EXPECT_EQ(DeliverTo(&rt, 0, sent[i]).size(), 1u);
    EXPECT_TRUE(DeliverTo(&rt, 0, sent[i]).empty());
  }
  EXPECT_EQ(rt.stats().duplicates_suppressed, 5);
  EXPECT_EQ(rt.stats().acks_sent, 10);
}

}  // namespace
}  // namespace sgm
