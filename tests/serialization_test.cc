#include "runtime/serialization.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "core/crc32c.h"
#include "core/rng.h"

namespace sgm {
namespace {

/// Recomputes the v4 CRC trailer after a deliberate field mutation, so a
/// test exercises the *field* validation rather than tripping the checksum.
void FixCrc(std::vector<std::uint8_t>* wire) {
  ASSERT_GE(wire->size(), 4u);
  const std::uint32_t crc = Crc32c(wire->data(), wire->size() - 4);
  std::memcpy(wire->data() + wire->size() - 4, &crc, sizeof(crc));
}

RuntimeMessage SampleMessage() {
  RuntimeMessage m;
  m.type = RuntimeMessage::Type::kDriftReport;
  m.from = 17;
  m.to = kCoordinatorId;
  m.epoch = 42;
  m.seq = 1009;
  m.scalar = 0.125;
  m.payload = Vector{1.5, -2.25, 0.0, 1e-9};
  return m;
}

TEST(SerializationTest, RoundTripPreservesEverything) {
  const RuntimeMessage original = SampleMessage();
  const auto wire = EncodeMessage(original);
  auto decoded = DecodeMessage(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const RuntimeMessage& m = decoded.ValueOrDie();
  EXPECT_EQ(m.type, original.type);
  EXPECT_EQ(m.from, original.from);
  EXPECT_EQ(m.to, original.to);
  EXPECT_EQ(m.epoch, original.epoch);
  EXPECT_EQ(m.seq, original.seq);
  EXPECT_EQ(m.retransmit, original.retransmit);
  EXPECT_EQ(m.scalar, original.scalar);
  EXPECT_EQ(m.payload, original.payload);
}

TEST(SerializationTest, RoundTripAllTypes) {
  using Type = RuntimeMessage::Type;
  for (Type type : {Type::kLocalViolation, Type::kProbeRequest,
                    Type::kDriftReport, Type::kResolved,
                    Type::kFullStateRequest, Type::kStateReport,
                    Type::kNewEstimate, Type::kAck, Type::kHeartbeat,
                    Type::kRejoinRequest, Type::kRejoinGrant}) {
    RuntimeMessage m;
    m.type = type;
    m.from = 3;
    m.to = kBroadcastId;
    const auto wire = EncodeMessage(m);
    auto decoded = DecodeMessage(wire);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.ValueOrDie().type, type);
  }
}

// The reliability layer's bookkeeping fields (epoch, seq, retransmit flag)
// must survive the wire intact — a mangled epoch would defeat the fence, a
// mangled seq the dedup.
TEST(SerializationTest, ReliabilityFieldsRoundTrip) {
  RuntimeMessage m;
  m.type = RuntimeMessage::Type::kAck;
  m.from = 5;
  m.to = 9;
  m.epoch = (std::int64_t{1} << 40) + 3;  // exercises the full i64 width
  m.seq = (std::int64_t{1} << 33) + 7;
  m.retransmit = true;
  auto decoded = DecodeMessage(EncodeMessage(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.ValueOrDie().epoch, m.epoch);
  EXPECT_EQ(decoded.ValueOrDie().seq, m.seq);
  EXPECT_TRUE(decoded.ValueOrDie().retransmit);
}

// Wire v3 carries the causal span pair; both must survive the full i64
// width — trace reconstruction keys span trees on exact ids.
TEST(SerializationTest, SpanFieldsRoundTrip) {
  RuntimeMessage m = SampleMessage();
  m.span = (std::int64_t{1} << 41) + 13;
  m.parent_span = (std::int64_t{1} << 35) + 5;
  auto decoded = DecodeMessage(EncodeMessage(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.ValueOrDie().span, m.span);
  EXPECT_EQ(decoded.ValueOrDie().parent_span, m.parent_span);
}

TEST(SerializationTest, EmptyPayloadRoundTrips) {
  RuntimeMessage m;
  m.type = RuntimeMessage::Type::kProbeRequest;
  auto decoded = DecodeMessage(EncodeMessage(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.ValueOrDie().payload.dim(), 0u);
}

// Golden wire sizes: 55 bytes of v4 header fields (u8 version + u8 type +
// u8 flags + i32 from + i32 to + i64 epoch + i64 seq + i64 span +
// i64 parent_span + f64 scalar + u32 dim) plus 8 bytes per payload double,
// plus the trailing u32 CRC32C over everything before it. These pin the
// format — any change to the layout must update the goldens knowingly.
TEST(SerializationTest, GoldenWireSizesPerKind) {
  using Type = RuntimeMessage::Type;
  constexpr std::size_t kHeader = 55 + 4;  // fields + CRC trailer

  const struct {
    Type type;
    std::size_t payload_dim;
    std::size_t wire_size;
  } kGolden[] = {
      {Type::kLocalViolation, 0, kHeader},
      {Type::kProbeRequest, 0, kHeader},
      {Type::kFullStateRequest, 0, kHeader},
      {Type::kResolved, 0, kHeader},           // mute count rides in scalar
      {Type::kAck, 0, kHeader},
      {Type::kHeartbeat, 0, kHeader},
      {Type::kRejoinRequest, 0, kHeader},
      {Type::kDriftReport, 8, kHeader + 64},   // drift vector, g_i in scalar
      {Type::kStateReport, 8, kHeader + 64},
      {Type::kNewEstimate, 8, kHeader + 64},
      {Type::kRejoinGrant, 8, kHeader + 64},   // estimate, ε_T in scalar
      {Type::kStateReport, 100, kHeader + 800},
  };
  for (const auto& golden : kGolden) {
    RuntimeMessage m;
    m.type = golden.type;
    m.from = 1;
    m.to = kCoordinatorId;
    m.scalar = 0.5;
    if (golden.payload_dim > 0) m.payload = Vector(golden.payload_dim);
    const auto wire = EncodeMessage(m);
    EXPECT_EQ(wire.size(), golden.wire_size)
        << RuntimeMessage::TypeName(golden.type).c_str() << " dim "
        << golden.payload_dim;
    auto decoded = DecodeMessage(wire);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.ValueOrDie().payload.dim(), golden.payload_dim);
  }
}

// The in-memory accounting (16-byte header + 8 bytes per *semantic*
// payload double) and the wire encoding (59-byte frame + raw vector) count
// slightly different things: the frame carries the reliability envelope
// (version, flags, epoch, seq), the causal span pair, the scalar field and
// the CRC trailer, which the accounting bills abstractly. The divergence
// must stay below six doubles per message — the accounting remains a
// faithful proxy for real wire cost.
TEST(SerializationTest, AccountingTracksWireSizePerKind) {
  using Type = RuntimeMessage::Type;
  const struct {
    Type type;
    std::size_t payload_dim;  // what this kind carries as a vector
  } kKinds[] = {
      {Type::kLocalViolation, 0}, {Type::kProbeRequest, 0},
      {Type::kFullStateRequest, 0}, {Type::kResolved, 0},
      {Type::kAck, 0},            {Type::kHeartbeat, 0},
      {Type::kRejoinRequest, 0},
      {Type::kDriftReport, 6},    {Type::kStateReport, 6},
      {Type::kNewEstimate, 6},    {Type::kRejoinGrant, 6},
  };
  for (const auto& kind : kKinds) {
    RuntimeMessage m;
    m.type = kind.type;
    m.from = 0;
    m.to = kCoordinatorId;
    m.scalar = 1.0;
    if (kind.payload_dim > 0) m.payload = Vector(kind.payload_dim);
    const double accounted = 16.0 + 8.0 * m.PayloadDoubles();
    const double wire = static_cast<double>(EncodeMessage(m).size());
    EXPECT_LT(std::abs(wire - accounted), 48.0)
        << RuntimeMessage::TypeName(kind.type).c_str() << ": wire " << wire
        << " vs accounted " << accounted;
  }
}

TEST(SerializationTest, RejectsEmptyBuffer) {
  EXPECT_FALSE(DecodeMessage({}).ok());
}

// Only v4 decodes. The retired v2 (0xA2) and v3 (0xA3) labels are unknown
// versions like any other — with or without a checksum trailer (v3 frames
// had none), so no frame can skip the CRC check by claiming an old version.
TEST(SerializationTest, RejectsUnknownVersion) {
  const auto v4 = EncodeMessage(SampleMessage());
  ASSERT_EQ(v4[0], kWireFormatVersion);
  const std::vector<std::uint8_t> unchecksummed(v4.begin(), v4.end() - 4);
  for (const std::uint8_t version :
       {std::uint8_t{kWireFormatVersion + 1}, std::uint8_t{0xA2},
        std::uint8_t{0xA3}}) {
    for (std::vector<std::uint8_t> wire : {v4, unchecksummed}) {
      wire[0] = version;
      auto decoded = DecodeMessage(wire);
      EXPECT_FALSE(decoded.ok()) << "version " << int{version} << ", "
                                 << wire.size() << " bytes";
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

// Forward compatibility: pre-reliability (v1) frames led with the type
// byte, whose legal values (0..6) can never equal kWireFormatVersion — an
// old-format message is rejected deterministically at the version check,
// never misparsed into a half-valid message.
TEST(SerializationTest, RejectsLegacyV1Frames) {
  ASSERT_GT(kWireFormatVersion, 6) << "v1 type bytes must not collide";
  for (std::uint8_t legacy_type = 0; legacy_type <= 6; ++legacy_type) {
    // A v1 frame: u8 type + i32 from + i32 to + f64 scalar + u32 dim = 21B.
    std::vector<std::uint8_t> v1(21, 0);
    v1[0] = legacy_type;
    auto decoded = DecodeMessage(v1);
    EXPECT_FALSE(decoded.ok()) << "legacy type " << int{legacy_type};
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SerializationTest, RejectsUnknownType) {
  auto wire = EncodeMessage(SampleMessage());
  wire[1] = 200;  // type byte follows the version byte
  FixCrc(&wire);  // exercise the type check, not the checksum
  auto decoded = DecodeMessage(wire);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializationTest, RejectsUnknownFlags) {
  auto wire = EncodeMessage(SampleMessage());
  wire[2] |= 0x80;  // a flag bit this version does not define
  FixCrc(&wire);  // exercise the flag check, not the checksum
  auto decoded = DecodeMessage(wire);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializationTest, RejectsTruncation) {
  const auto wire = EncodeMessage(SampleMessage());
  // Every strict prefix must be rejected, not crash.
  for (std::size_t keep = 0; keep < wire.size(); ++keep) {
    const std::vector<std::uint8_t> prefix(wire.begin(),
                                           wire.begin() + keep);
    EXPECT_FALSE(DecodeMessage(prefix).ok()) << "prefix length " << keep;
  }
}

TEST(SerializationTest, RejectsTrailingGarbage) {
  auto wire = EncodeMessage(SampleMessage());
  wire.push_back(0xAB);
  EXPECT_FALSE(DecodeMessage(wire).ok());
}

TEST(SerializationTest, RejectsHugeDimension) {
  RuntimeMessage m;
  m.type = RuntimeMessage::Type::kStateReport;
  auto wire = EncodeMessage(m);
  // Overwrite the dimension field (offset 1+1+1+4+4+8+8+8+8+8 = 51) with a
  // huge value.
  const std::uint32_t huge = kMaxWireDimension + 1;
  std::memcpy(wire.data() + 51, &huge, sizeof(huge));
  FixCrc(&wire);  // exercise the dimension cap, not the checksum
  auto decoded = DecodeMessage(wire);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kOutOfRange);
}

// The corruption-detection guarantee the bit-flip fault mode relies on:
// EVERY single-bit flip of a v4 frame must be rejected, never decoded into
// a mangled message. (A flip of the version byte lands on an unknown
// version; non-version bytes are vouched for by the CRC.)
TEST(SerializationTest, EverySingleBitFlipIsDetected) {
  const auto wire = EncodeMessage(SampleMessage());
  for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
    auto flipped = wire;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(DecodeMessage(flipped).ok()) << "bit " << bit;
  }
}

TEST(SerializationTest, RandomGarbageNeverCrashes) {
  Rng rng(404);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> garbage(rng.NextBounded(64));
    for (auto& byte : garbage) {
      byte = static_cast<std::uint8_t>(rng.NextBounded(256));
    }
    // Must either parse or fail cleanly; any crash fails the test run.
    (void)DecodeMessage(garbage);
  }
}

}  // namespace
}  // namespace sgm
