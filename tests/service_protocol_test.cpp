// Wire-protocol tests for the serving daemon (src/service/protocol.hpp).
//
// Two halves: (1) round-trip fidelity — every request/reply type and the
// result block survive encode → frame → deframe → decode bit-exactly;
// (2) the robustness contract — truncated, oversized, bit-flipped, or
// outright garbage byte streams always produce a typed ProtocolError (or
// a clean "need more bytes"), never a crash, hang, unbounded allocation,
// or out-of-bounds read.  The fuzz loops here are what the sanitizer
// stages of scripts/check_sanitized.sh lean on.  At the end, the wire
// golden pins the v7 bytes themselves (tests/goldens/cbcp_v7.hex).
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "gtest/gtest.h"
#include "service/protocol.hpp"
#include "snapshot/snapshot.hpp"

namespace congestbc::service {
namespace {

std::vector<std::uint8_t> frame_of(const Request& request) {
  return frame_bytes(encode_request(request));
}

/// Feeds a byte stream and drains every decodable frame, classifying the
/// outcome: decoded requests, a typed protocol error, or "needs more".
struct DrainResult {
  std::vector<Request> requests;
  std::optional<ProtoError> error;
};

DrainResult drain(const std::vector<std::uint8_t>& bytes,
                  std::size_t chunk = SIZE_MAX) {
  DrainResult result;
  FrameDecoder decoder;
  std::size_t offset = 0;
  try {
    while (offset < bytes.size()) {
      const std::size_t take = std::min(chunk, bytes.size() - offset);
      decoder.feed(bytes.data() + offset, take);
      offset += take;
      while (auto frame = decoder.next()) {
        result.requests.push_back(decode_request(*frame));
      }
    }
  } catch (const ProtocolError& e) {
    result.error = e.code();
  }
  return result;
}

SubmitRequest sample_submit() {
  SubmitRequest submit;
  submit.source = GraphSource::kInline;
  submit.graph = "# toy\n3 2\n0 1\n1 2\n";
  submit.halve = false;
  submit.reliable = true;
  submit.faults = "drop=0.1,seed=7";
  submit.max_rounds = 123456789;
  submit.threads = 4;
  return submit;
}

TEST(ProtocolRoundTrip, SubmitRequest) {
  const Request original = make_submit(sample_submit());
  const DrainResult result = drain(frame_of(original));
  ASSERT_FALSE(result.error.has_value());
  ASSERT_EQ(result.requests.size(), 1u);
  const SubmitRequest& decoded = result.requests[0].submit;
  EXPECT_EQ(decoded.source, original.submit.source);
  EXPECT_EQ(decoded.graph, original.submit.graph);
  EXPECT_EQ(decoded.halve, original.submit.halve);
  EXPECT_EQ(decoded.reliable, original.submit.reliable);
  EXPECT_EQ(decoded.faults, original.submit.faults);
  EXPECT_EQ(decoded.max_rounds, original.submit.max_rounds);
  EXPECT_EQ(decoded.threads, original.submit.threads);
}

TEST(ProtocolRoundTrip, PortfolioSubmitFieldsSurviveV5) {
  SubmitRequest submit = sample_submit();
  submit.reliable = false;  // cfp/directed submits carry no transport knobs
  submit.faults.clear();
  submit.backend = 4;  // sampled
  submit.samples = 123;
  submit.sample_seed = 0xfeedface12345678ull;
  const Request original = make_submit(submit);
  const DrainResult result = drain(frame_of(original));
  ASSERT_FALSE(result.error.has_value());
  ASSERT_EQ(result.requests.size(), 1u);
  const SubmitRequest& decoded = result.requests[0].submit;
  EXPECT_EQ(decoded.backend, 4);
  EXPECT_EQ(decoded.samples, 123u);
  EXPECT_EQ(decoded.sample_seed, 0xfeedface12345678ull);

  // The wire default is paper_exact, not auto: a v5 client that never
  // touches the field gets the pre-portfolio behavior.
  const SubmitRequest untouched;
  EXPECT_EQ(untouched.backend, 1);
  EXPECT_EQ(untouched.samples, 0u);
  EXPECT_EQ(untouched.sample_seed, 0u);
}

TEST(ProtocolRoundTrip, SubmitReplyCarriesResolvedBackendAndDowngrade) {
  Reply reply;
  reply.type = MsgType::kSubmitReply;
  reply.submit = {SubmitDisposition::kQueued, 7, 0xabcd, "queued"};
  reply.submit.backend = 4;
  reply.submit.downgraded = true;
  FrameDecoder decoder;
  const auto bytes = frame_bytes(encode_reply(reply));
  decoder.feed(bytes.data(), bytes.size());
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  const Reply decoded = decode_reply(*frame);
  EXPECT_EQ(decoded.submit.backend, 4);
  EXPECT_TRUE(decoded.submit.downgraded);

  Reply stats;
  stats.type = MsgType::kStatsReply;
  stats.stats.backend_downgrades = 0x1122334455ull;
  const auto stats_bytes = frame_bytes(encode_reply(stats));
  decoder.feed(stats_bytes.data(), stats_bytes.size());
  const auto stats_frame = decoder.next();
  ASSERT_TRUE(stats_frame.has_value());
  EXPECT_EQ(decode_reply(*stats_frame).stats.backend_downgrades,
            0x1122334455ull);
}

TEST(ProtocolRoundTrip, JobAndPlainRequests) {
  for (const MsgType type :
       {MsgType::kStatus, MsgType::kResult, MsgType::kCancel}) {
    const Request original = make_job_request(type, 0xdeadbeefcafe1234ull);
    const DrainResult result = drain(frame_of(original));
    ASSERT_FALSE(result.error.has_value());
    ASSERT_EQ(result.requests.size(), 1u);
    EXPECT_EQ(result.requests[0].type, type);
    EXPECT_EQ(result.requests[0].job.job_id, 0xdeadbeefcafe1234ull);
  }
  for (const MsgType type : {MsgType::kStats, MsgType::kShutdown}) {
    const DrainResult result = drain(frame_of(make_plain(type)));
    ASSERT_FALSE(result.error.has_value());
    ASSERT_EQ(result.requests.size(), 1u);
    EXPECT_EQ(result.requests[0].type, type);
  }
}

TEST(ProtocolRoundTrip, EveryReplyType) {
  Reply reply;
  reply.type = MsgType::kSubmitReply;
  reply.submit = {SubmitDisposition::kCoalesced, 42, 0x1234, "shared"};
  FrameDecoder decoder;
  const auto bytes = frame_bytes(encode_reply(reply));
  decoder.feed(bytes.data(), bytes.size());
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  const Reply decoded = decode_reply(*frame);
  EXPECT_EQ(decoded.type, MsgType::kSubmitReply);
  EXPECT_EQ(decoded.submit.disposition, SubmitDisposition::kCoalesced);
  EXPECT_EQ(decoded.submit.job_id, 42u);
  EXPECT_EQ(decoded.submit.fingerprint, 0x1234u);
  EXPECT_EQ(decoded.submit.detail, "shared");

  Reply stats;
  stats.type = MsgType::kStatsReply;
  stats.stats.submits = 7;
  stats.stats.qps = 3.25;
  stats.stats.latency_p99_ms = 17.5;
  const auto stats_bytes = frame_bytes(encode_reply(stats));
  decoder.feed(stats_bytes.data(), stats_bytes.size());
  const auto stats_frame = decoder.next();
  ASSERT_TRUE(stats_frame.has_value());
  const Reply stats_decoded = decode_reply(*stats_frame);
  EXPECT_EQ(stats_decoded.stats.submits, 7u);
  EXPECT_EQ(stats_decoded.stats.qps, 3.25);
  EXPECT_EQ(stats_decoded.stats.latency_p99_ms, 17.5);

  Reply error;
  error.type = MsgType::kError;
  error.error = {ProtoError::kOversized, "too big"};
  const auto error_bytes = frame_bytes(encode_reply(error));
  decoder.feed(error_bytes.data(), error_bytes.size());
  const auto error_frame = decoder.next();
  ASSERT_TRUE(error_frame.has_value());
  const Reply error_decoded = decode_reply(*error_frame);
  EXPECT_EQ(error_decoded.error.code, ProtoError::kOversized);
  EXPECT_EQ(error_decoded.error.message, "too big");
}

TEST(ProtocolRoundTrip, ResultBlockBitExact) {
  ResultBlock block;
  block.run_status = 2;
  block.detail = "stalled at round 99";
  block.rounds = 99;
  block.diameter = 5;
  block.total_bits = (1ull << 40) + 17;
  block.total_physical_messages = 123456;
  block.betweenness = {0.0, -0.0, 1.5, 231.0714285,
                       std::numeric_limits<double>::denorm_min()};
  block.closeness = {0.25, 0.5, 0.75, 1.0, 0.125};
  block.graph_centrality = {0.2, 0.4, 0.6, 0.8, 1.0};
  block.stress = {0.0L, 123456789.000000001L, 1.0L, 2.0L, 3.0L};
  block.eccentricities = {1, 2, 3, 4, 5};
  const BitWriter encoded = encode_result_block(block);
  BitReader reader(encoded.data(), encoded.bit_size());
  const ResultBlock decoded = decode_result_block(reader);
  EXPECT_EQ(decoded.run_status, block.run_status);
  EXPECT_EQ(decoded.detail, block.detail);
  EXPECT_EQ(decoded.rounds, block.rounds);
  EXPECT_EQ(decoded.diameter, block.diameter);
  EXPECT_EQ(decoded.total_bits, block.total_bits);
  ASSERT_EQ(decoded.betweenness.size(), block.betweenness.size());
  for (std::size_t i = 0; i < block.betweenness.size(); ++i) {
    // Bit-pattern comparison: -0.0 vs 0.0 and denormals must survive.
    std::uint64_t want = 0;
    std::uint64_t got = 0;
    std::memcpy(&want, &block.betweenness[i], sizeof want);
    std::memcpy(&got, &decoded.betweenness[i], sizeof got);
    EXPECT_EQ(got, want) << "betweenness[" << i << "]";
  }
  EXPECT_EQ(decoded.stress, block.stress);
  EXPECT_EQ(decoded.eccentricities, block.eccentricities);
}

TEST(Framing, ByteAtATimeAndBackToBack) {
  const Request a = make_job_request(MsgType::kStatus, 7);
  const Request b = make_plain(MsgType::kStats);
  std::vector<std::uint8_t> stream = frame_of(a);
  const std::vector<std::uint8_t> second = frame_of(b);
  stream.insert(stream.end(), second.begin(), second.end());
  const DrainResult result = drain(stream, 1);  // one byte per feed
  ASSERT_FALSE(result.error.has_value());
  ASSERT_EQ(result.requests.size(), 2u);
  EXPECT_EQ(result.requests[0].type, MsgType::kStatus);
  EXPECT_EQ(result.requests[1].type, MsgType::kStats);
}

TEST(Framing, TruncatedFrameJustWaits) {
  const std::vector<std::uint8_t> full = frame_of(make_submit(sample_submit()));
  for (const std::size_t cut : {std::size_t{1}, std::size_t{4}, std::size_t{9},
                                full.size() - 1}) {
    FrameDecoder decoder;
    decoder.feed(full.data(), cut);
    EXPECT_EQ(decoder.next(), std::nullopt) << "cut at " << cut;
    // The remaining bytes complete the frame.
    decoder.feed(full.data() + cut, full.size() - cut);
    EXPECT_TRUE(decoder.next().has_value()) << "cut at " << cut;
  }
}

TEST(Framing, BadMagicBadVersionOversized) {
  std::vector<std::uint8_t> frame = frame_of(make_plain(MsgType::kStats));
  {
    auto bad = frame;
    bad[0] = 'X';
    const DrainResult result = drain(bad);
    ASSERT_TRUE(result.error.has_value());
    EXPECT_EQ(*result.error, ProtoError::kBadMagic);
  }
  {
    auto bad = frame;
    bad[4] = 0xFF;  // version LE low byte
    const DrainResult result = drain(bad);
    ASSERT_TRUE(result.error.has_value());
    EXPECT_EQ(*result.error, ProtoError::kBadVersion);
  }
  {
    auto bad = frame;
    // Length field = bits; claim ~2^31 bits >> 64 MiB cap.  The decoder
    // must reject from the header alone, before allocating anything.
    bad[6] = 0xFF;
    bad[7] = 0xFF;
    bad[8] = 0xFF;
    bad[9] = 0x7F;
    const DrainResult result = drain(bad);
    ASSERT_TRUE(result.error.has_value());
    EXPECT_EQ(*result.error, ProtoError::kOversized);
  }
}

TEST(Framing, GarbagePayloadIsMalformedOrUnknown) {
  // A syntactically valid frame whose payload is noise.
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    BitWriter payload;
    const unsigned bits = 1 + static_cast<unsigned>(rng.next_below(256));
    for (unsigned i = 0; i < bits; ++i) {
      payload.write_bool(rng.next_below(2) == 1);
    }
    const DrainResult result = drain(frame_bytes(payload));
    if (result.error.has_value()) {
      EXPECT_TRUE(*result.error == ProtoError::kMalformed ||
                  *result.error == ProtoError::kUnknownType)
          << "trial " << trial;
    } else {
      // Astronomically unlikely but legal: the noise decoded cleanly.
      EXPECT_EQ(result.requests.size(), 1u);
    }
  }
}

TEST(Framing, RandomByteStreamNeverCrashes) {
  Rng rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> noise(1 + rng.next_below(512));
    for (auto& byte : noise) {
      byte = static_cast<std::uint8_t>(rng.next_below(256));
    }
    // Any outcome except a crash/hang is acceptable; errors must be typed.
    const DrainResult result = drain(noise, 1 + rng.next_below(16));
    (void)result;
  }
}

TEST(Framing, BitFlippedValidFramesNeverCrash) {
  const std::vector<std::uint8_t> frame = frame_of(make_submit(sample_submit()));
  Rng rng(1234);
  for (int trial = 0; trial < 300; ++trial) {
    auto mutated = frame;
    const std::size_t byte = rng.next_below(mutated.size());
    mutated[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    const DrainResult result = drain(mutated);
    if (!result.error.has_value()) {
      // Flip landed somewhere harmless (e.g. inside the graph string).
      EXPECT_LE(result.requests.size(), 1u);
    }
  }
}

TEST(Framing, TrailingBitsAfterValidPayloadAreMalformed) {
  BitWriter payload = encode_request(make_plain(MsgType::kStats));
  payload.write(0x2A, 7);  // junk a well-formed encoder never emits
  const DrainResult result = drain(frame_bytes(payload));
  ASSERT_TRUE(result.error.has_value());
  EXPECT_EQ(*result.error, ProtoError::kMalformed);
}

TEST(Framing, HostileStringLengthOverflowRejected) {
  // A varuint string length near 2^61 makes a naive `size * 8` bound
  // check wrap to a tiny number and pass; the decoder must reject it
  // (by dividing, not multiplying) before the string allocation.
  const std::uint64_t hostile_lengths[] = {
      1ull << 61, (1ull << 61) + 1, (1ull << 63) + 5,
      std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t hostile : hostile_lengths) {
    BitWriter payload;
    payload.write_varuint(static_cast<std::uint64_t>(MsgType::kSubmit));
    payload.write_varuint(0);        // source: kInline
    payload.write_varuint(hostile);  // graph string length
    const DrainResult result = drain(frame_bytes(payload));
    ASSERT_TRUE(result.error.has_value()) << "length " << hostile;
    EXPECT_EQ(*result.error, ProtoError::kMalformed) << "length " << hostile;
  }
}

// ------------------------------------------------------------------
// Reply-side fuzz: the client's view of the wire.  A chaos proxy (or a
// hostile network) tears, truncates, and corrupts reply bytes; the
// client decoder must answer every such stream with a decoded reply, a
// typed ProtocolError, or "feed me more" — never a crash, hang, or a
// silently wrong field.

struct ReplyDrain {
  std::vector<Reply> replies;
  std::optional<ProtoError> error;
};

ReplyDrain drain_replies(const std::vector<std::uint8_t>& bytes,
                         std::size_t chunk = SIZE_MAX) {
  ReplyDrain result;
  FrameDecoder decoder;
  std::size_t offset = 0;
  try {
    while (offset < bytes.size()) {
      const std::size_t take = std::min(chunk, bytes.size() - offset);
      decoder.feed(bytes.data() + offset, take);
      offset += take;
      while (auto frame = decoder.next()) {
        result.replies.push_back(decode_reply(*frame));
      }
    }
  } catch (const ProtocolError& e) {
    result.error = e.code();
  }
  return result;
}

Reply sample_result_reply() {
  Reply reply;
  reply.type = MsgType::kResultReply;
  reply.result.ready = true;
  reply.result.state = JobState::kDone;
  reply.result.from_cache = true;
  reply.result.fingerprint = 0xfeedface12345678ull;
  reply.result.detail = "served from cache";
  reply.result.block_bytes = {0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03};
  reply.result.block_bits = 7 * 8;
  return reply;
}

TEST(ReplyFuzz, TornReplyDecodedByteAtATimeMatchesWholeFrame) {
  const auto bytes = frame_bytes(encode_reply(sample_result_reply()));
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{17}, bytes.size()}) {
    const ReplyDrain result = drain_replies(bytes, chunk);
    ASSERT_FALSE(result.error.has_value()) << "chunk " << chunk;
    ASSERT_EQ(result.replies.size(), 1u) << "chunk " << chunk;
    const Reply& decoded = result.replies[0];
    EXPECT_EQ(decoded.type, MsgType::kResultReply);
    EXPECT_TRUE(decoded.result.ready);
    EXPECT_EQ(decoded.result.fingerprint, 0xfeedface12345678ull);
    EXPECT_EQ(decoded.result.detail, "served from cache");
    EXPECT_EQ(decoded.result.block_bytes,
              sample_result_reply().result.block_bytes);
  }
}

TEST(ReplyFuzz, EveryShortPrefixJustWaitsOrFailsTyped) {
  const auto bytes = frame_bytes(encode_reply(sample_result_reply()));
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    const ReplyDrain result = drain_replies(prefix);
    EXPECT_TRUE(result.replies.empty()) << "cut " << cut;
    EXPECT_FALSE(result.error.has_value())
        << "an honest prefix of a valid frame must wait, not error (cut "
        << cut << ")";
  }
}

TEST(ReplyFuzz, CorruptedPayloadByteIsCaughtByChecksum) {
  const auto clean = frame_bytes(encode_reply(sample_result_reply()));
  constexpr std::size_t kHeader = 18;  // magic+version+bits+checksum
  ASSERT_GT(clean.size(), kHeader);
  for (std::size_t byte = kHeader; byte < clean.size(); ++byte) {
    auto mutated = clean;
    mutated[byte] ^= 0xFF;
    const ReplyDrain result = drain_replies(mutated);
    ASSERT_TRUE(result.error.has_value()) << "payload byte " << byte;
    EXPECT_EQ(*result.error, ProtoError::kCorrupted) << "byte " << byte;
  }
}

TEST(ReplyFuzz, CorruptedHeaderBytesFailTypedNotSilent) {
  const auto clean = frame_bytes(encode_reply(sample_result_reply()));
  for (std::size_t byte = 0; byte < 6; ++byte) {  // magic + version
    auto mutated = clean;
    mutated[byte] ^= 0x59;
    const ReplyDrain result = drain_replies(mutated);
    ASSERT_TRUE(result.error.has_value()) << "header byte " << byte;
    EXPECT_TRUE(*result.error == ProtoError::kBadMagic ||
                *result.error == ProtoError::kBadVersion)
        << "header byte " << byte;
  }
}

TEST(ReplyFuzz, BitFlippedReplyFramesNeverCrash) {
  Reply stats;
  stats.type = MsgType::kStatsReply;
  stats.stats.submits = 1234;
  stats.stats.qps = 9.75;
  for (const Reply& reply : {sample_result_reply(), stats}) {
    const auto clean = frame_bytes(encode_reply(reply));
    Rng rng(4242);
    for (int trial = 0; trial < 300; ++trial) {
      auto mutated = clean;
      const std::size_t byte = rng.next_below(mutated.size());
      mutated[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
      // Feed in chaotic chunk sizes too: corruption and tearing compose.
      const ReplyDrain result =
          drain_replies(mutated, 1 + rng.next_below(24));
      if (!result.error.has_value()) {
        EXPECT_LE(result.replies.size(), 1u);
      }
    }
  }
}

TEST(ReplyFuzz, BackToBackRepliesSurviveArbitraryTearing) {
  Reply error;
  error.type = MsgType::kError;
  error.error = {ProtoError::kBadRequest, "no such job"};
  Reply status;
  status.type = MsgType::kStatusReply;
  status.status.state = JobState::kRunning;
  status.status.job_id = 99;
  status.status.detail = "round 17";

  std::vector<std::uint8_t> stream;
  for (const Reply& reply : {sample_result_reply(), error, status}) {
    const auto bytes = frame_bytes(encode_reply(reply));
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  Rng rng(31337);
  for (int trial = 0; trial < 50; ++trial) {
    const ReplyDrain result = drain_replies(stream, 1 + rng.next_below(13));
    ASSERT_FALSE(result.error.has_value()) << "trial " << trial;
    ASSERT_EQ(result.replies.size(), 3u) << "trial " << trial;
    EXPECT_EQ(result.replies[0].type, MsgType::kResultReply);
    EXPECT_EQ(result.replies[1].type, MsgType::kError);
    EXPECT_EQ(result.replies[1].error.message, "no such job");
    EXPECT_EQ(result.replies[2].type, MsgType::kStatusReply);
    EXPECT_EQ(result.replies[2].status.detail, "round 17");
  }
}

TEST(Framing, HostileElementCountRejectedBeforeAllocation) {
  // Hand-craft a result reply claiming a huge block length with almost no
  // bytes behind it: get_count/get_bits must refuse, not resize.
  BitWriter payload;
  payload.write_varuint(static_cast<std::uint64_t>(MsgType::kResultReply));
  payload.write_bool(true);                     // ready
  payload.write_varuint(2);                     // state kDone
  payload.write_bool(false);                    // from_cache
  payload.write(0, 64);                         // fingerprint
  payload.write_varuint(0);                     // detail length
  payload.write_varuint((1ull << 33));          // block bit length: hostile
  FrameDecoder decoder;
  const auto bytes = frame_bytes(payload);
  decoder.feed(bytes.data(), bytes.size());
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_THROW(decode_reply(*frame), ProtocolError);
}

// ------------------------------------------------------------------
// v6 cluster frames (JOIN / LEAVE / MIGRATE / LOOKUP): the membership
// and migration plane rides the same framing, so it inherits the same
// contract — bit-exact round trips, typed errors on hostile bytes.

MigrateRequest sample_migrate() {
  MigrateRequest migrate;
  migrate.kind = MigrateKind::kResume;
  migrate.fingerprint = 0xabad1dea5ca1ab1eull;
  migrate.origin_job_id = 41;
  migrate.origin_worker = "127.0.0.1:9001";
  migrate.submit = sample_submit();
  migrate.snapshot_round = 1234;
  migrate.snapshot_bytes = {0xcb, 0xc5, 0x00, 0x17, 0xff, 0x00, 0x42};
  return migrate;
}

TEST(ProtocolRoundTrip, MembershipRequestsSurviveTheWire) {
  JoinRequest join;
  join.worker_id = "10.1.2.3:7777";
  join.host = "10.1.2.3";
  join.port = 7777;
  const DrainResult joined = drain(frame_of(make_join(join)));
  ASSERT_FALSE(joined.error.has_value());
  ASSERT_EQ(joined.requests.size(), 1u);
  EXPECT_EQ(joined.requests[0].type, MsgType::kJoin);
  EXPECT_EQ(joined.requests[0].join.worker_id, join.worker_id);
  EXPECT_EQ(joined.requests[0].join.host, join.host);
  EXPECT_EQ(joined.requests[0].join.port, join.port);

  LeaveRequest leave;
  leave.worker_id = "10.1.2.3:7777";
  const DrainResult left = drain(frame_of(make_leave(leave)));
  ASSERT_FALSE(left.error.has_value());
  ASSERT_EQ(left.requests.size(), 1u);
  EXPECT_EQ(left.requests[0].type, MsgType::kLeave);
  EXPECT_EQ(left.requests[0].leave.worker_id, leave.worker_id);

  const DrainResult looked = drain(frame_of(make_lookup(0xfeedULL)));
  ASSERT_FALSE(looked.error.has_value());
  ASSERT_EQ(looked.requests.size(), 1u);
  EXPECT_EQ(looked.requests[0].type, MsgType::kLookup);
  EXPECT_EQ(looked.requests[0].lookup.fingerprint, 0xfeedULL);
}

TEST(ProtocolRoundTrip, MigrateRequestCarriesSnapshotAndSubmitBitExact) {
  const MigrateRequest migrate = sample_migrate();
  const DrainResult result = drain(frame_of(make_migrate(migrate)));
  ASSERT_FALSE(result.error.has_value());
  ASSERT_EQ(result.requests.size(), 1u);
  const MigrateRequest& decoded = result.requests[0].migrate;
  EXPECT_EQ(decoded.kind, migrate.kind);
  EXPECT_EQ(decoded.fingerprint, migrate.fingerprint);
  EXPECT_EQ(decoded.origin_job_id, migrate.origin_job_id);
  EXPECT_EQ(decoded.origin_worker, migrate.origin_worker);
  EXPECT_EQ(decoded.snapshot_round, migrate.snapshot_round);
  EXPECT_EQ(decoded.snapshot_bytes, migrate.snapshot_bytes);
  // The inner canonical submit is what the target re-validates; its
  // result-determining fields must survive untouched.
  EXPECT_EQ(decoded.submit.graph, migrate.submit.graph);
  EXPECT_EQ(decoded.submit.faults, migrate.submit.faults);
  EXPECT_EQ(decoded.submit.max_rounds, migrate.submit.max_rounds);

  MigrateRequest finished = sample_migrate();
  finished.kind = MigrateKind::kResult;
  finished.snapshot_bytes.clear();
  finished.snapshot_round = 0;
  finished.block_bytes = {0x01, 0x02, 0x03, 0x04};
  finished.block_bits = 4 * 8 - 3;  // ragged tail bits must survive
  const DrainResult done = drain(frame_of(make_migrate(finished)));
  ASSERT_FALSE(done.error.has_value());
  ASSERT_EQ(done.requests.size(), 1u);
  EXPECT_EQ(done.requests[0].migrate.kind, MigrateKind::kResult);
  EXPECT_EQ(done.requests[0].migrate.block_bytes, finished.block_bytes);
  EXPECT_EQ(done.requests[0].migrate.block_bits, finished.block_bits);
}

TEST(ProtocolRoundTrip, MembershipRepliesSurviveTheWire) {
  FrameDecoder decoder;
  Reply join;
  join.type = MsgType::kJoinReply;
  join.join.accepted = true;
  join.join.detail = "ring size 3";
  Reply migrate;
  migrate.type = MsgType::kMigrateReply;
  migrate.migrate.outcome = MigrateOutcome::kCoalesced;
  migrate.migrate.job_id = 88;
  migrate.migrate.fingerprint = 0x1badb002;
  migrate.migrate.detail = "already cached";
  Reply lookup;
  lookup.type = MsgType::kLookupReply;
  lookup.lookup.found = true;
  lookup.lookup.fingerprint = 0x50f7ca11;
  lookup.lookup.block_bytes = {0xaa, 0xbb, 0xcc};
  lookup.lookup.block_bits = 3 * 8;
  Reply leave;
  leave.type = MsgType::kLeaveReply;
  leave.leave.removed = true;

  for (const Reply& reply : {join, migrate, lookup, leave}) {
    const auto bytes = frame_bytes(encode_reply(reply));
    decoder.feed(bytes.data(), bytes.size());
    const auto frame = decoder.next();
    ASSERT_TRUE(frame.has_value());
    const Reply decoded = decode_reply(*frame);
    EXPECT_EQ(decoded.type, reply.type);
  }
  // Spot-check the payload fields of the richest two.
  const auto migrate_bytes = frame_bytes(encode_reply(migrate));
  decoder.feed(migrate_bytes.data(), migrate_bytes.size());
  const Reply migrate_decoded = decode_reply(*decoder.next());
  EXPECT_EQ(migrate_decoded.migrate.outcome, MigrateOutcome::kCoalesced);
  EXPECT_EQ(migrate_decoded.migrate.job_id, 88u);
  EXPECT_EQ(migrate_decoded.migrate.detail, "already cached");
  const auto lookup_bytes = frame_bytes(encode_reply(lookup));
  decoder.feed(lookup_bytes.data(), lookup_bytes.size());
  const Reply lookup_decoded = decode_reply(*decoder.next());
  EXPECT_TRUE(lookup_decoded.lookup.found);
  EXPECT_EQ(lookup_decoded.lookup.block_bytes, lookup.lookup.block_bytes);
  EXPECT_EQ(lookup_decoded.lookup.block_bits, lookup.lookup.block_bits);
}

TEST(Framing, BitFlippedMembershipFramesNeverCrash) {
  // The router feeds worker-link replies and client membership frames
  // through the same decoder the daemon uses; a flipped bit anywhere in
  // a v6 frame must yield a typed error or a clean decode, never a
  // crash or unbounded allocation.
  const std::vector<std::vector<std::uint8_t>> frames = {
      frame_of(make_join({"w:1", "127.0.0.1", 1})),
      frame_of(make_leave({"w:1"})),
      frame_of(make_migrate(sample_migrate())),
      frame_of(make_lookup(0x1234ULL)),
  };
  Rng rng(4242);
  for (const auto& frame : frames) {
    for (int trial = 0; trial < 200; ++trial) {
      auto mutated = frame;
      const std::size_t byte = rng.next_below(mutated.size());
      mutated[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
      const DrainResult result = drain(mutated);
      if (!result.error.has_value()) {
        EXPECT_LE(result.requests.size(), 1u);
      }
    }
  }
}

TEST(Framing, HostileMigrateSnapshotLengthRejectedBeforeAllocation) {
  // A MIGRATE claiming a multi-exabyte snapshot with a handful of real
  // bytes behind it must be refused by the bounds check, not resized.
  BitWriter payload;
  payload.write_varuint(static_cast<std::uint64_t>(MsgType::kMigrate));
  payload.write_varuint(0);   // kind: kResume
  payload.write(0xdead, 64);  // fingerprint
  payload.write_varuint(7);   // origin_job_id
  payload.write_varuint(0);   // origin_worker length
  // Inner canonical submit: source kInline, empty graph, defaults.
  payload.write_varuint(0);                      // source
  payload.write_varuint(0);                      // graph length
  payload.write_bool(true);                      // halve
  payload.write_bool(false);                     // reliable
  payload.write_varuint(0);                      // faults length
  payload.write_varuint(0);                      // max_rounds
  payload.write_varuint(0);                      // threads
  payload.write_varuint(0);                      // deadline_ms
  payload.write_varuint(1);                      // attempt
  payload.write_varuint(0);                      // stream_ns length
  payload.write_varuint(0);                      // stream_version
  payload.write_bool(false);                     // incremental
  payload.write_varuint(1);                      // backend
  payload.write_varuint(0);                      // samples
  payload.write_varuint(0);                      // sample_seed
  payload.write_varuint(0);                      // snapshot_round
  payload.write_varuint(1ull << 62);             // snapshot byte count: hostile
  const DrainResult result = drain(frame_bytes(payload));
  ASSERT_TRUE(result.error.has_value());
  EXPECT_EQ(*result.error, ProtoError::kMalformed);
}

TEST(ReplyFuzz, BitFlippedMembershipRepliesNeverCrash) {
  Reply lookup;
  lookup.type = MsgType::kLookupReply;
  lookup.lookup.found = true;
  lookup.lookup.fingerprint = 0xfeedface;
  lookup.lookup.block_bytes.assign(64, 0x5a);
  lookup.lookup.block_bits = 64 * 8;
  Reply migrate;
  migrate.type = MsgType::kMigrateReply;
  migrate.migrate.outcome = MigrateOutcome::kAccepted;
  migrate.migrate.job_id = 17;
  migrate.migrate.fingerprint = 0xc0ffee;
  migrate.migrate.detail = "resumed from round 96";
  Rng rng(777);
  for (const Reply& reply : {lookup, migrate}) {
    const auto frame = frame_bytes(encode_reply(reply));
    for (int trial = 0; trial < 200; ++trial) {
      auto mutated = frame;
      const std::size_t byte = rng.next_below(mutated.size());
      mutated[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
      const ReplyDrain result = drain_replies(mutated);
      if (!result.error.has_value()) {
        EXPECT_LE(result.replies.size(), 1u);
      }
    }
  }
}

// ------------------------------------------------------------------
// Checked narrowing: a varuint wider than the field it fills is
// malformed, never silently truncated (a SUBMIT with threads = 2^32 + 1
// must not decode as threads = 1, nor a spooled block's run status 256
// as kComplete).  Values at the field's maximum still decode.

/// A v7 SUBMIT body with default fields, except for the raw threads and
/// attempt varuints.
void write_submit_fields(BitWriter& w, std::uint64_t threads,
                         std::uint64_t attempt) {
  w.write_varuint(0);  // source: kInline
  w.write_varuint(0);  // graph length
  w.write_bool(true);  // halve
  w.write_bool(false);  // reliable
  w.write_varuint(0);  // faults length
  w.write_varuint(0);  // max_rounds
  w.write_varuint(threads);
  w.write_varuint(0);  // deadline_ms
  w.write_varuint(attempt);
  w.write_varuint(0);  // stream_ns length
  w.write_varuint(0);  // stream_version
  w.write_bool(false);  // incremental
  w.write_varuint(1);  // backend
  w.write_varuint(0);  // samples
  w.write_varuint(0);  // sample_seed
}

DrainResult drain_submit(std::uint64_t threads, std::uint64_t attempt) {
  BitWriter payload;
  payload.write_varuint(static_cast<std::uint64_t>(MsgType::kSubmit));
  write_submit_fields(payload, threads, attempt);
  return drain(frame_bytes(payload));
}

TEST(Narrowing, RequestFieldsWiderThanTheirTypeAreMalformed) {
  const DrainResult widest = drain_submit(UINT32_MAX, UINT32_MAX);
  ASSERT_FALSE(widest.error.has_value());
  ASSERT_EQ(widest.requests.size(), 1u);
  EXPECT_EQ(widest.requests[0].submit.threads, UINT32_MAX);
  EXPECT_EQ(widest.requests[0].submit.attempt, UINT32_MAX);

  for (const auto& [threads, attempt] :
       {std::pair<std::uint64_t, std::uint64_t>{(1ull << 32) + 1, 1},
        {0, 1ull << 32},
        {0, std::numeric_limits<std::uint64_t>::max()}}) {
    const DrainResult result = drain_submit(threads, attempt);
    ASSERT_TRUE(result.error.has_value())
        << "threads " << threads << " attempt " << attempt;
    EXPECT_EQ(*result.error, ProtoError::kMalformed);
  }

  // The canonical submit inside a MIGRATE goes through the same walk.
  BitWriter migrate;
  migrate.write_varuint(static_cast<std::uint64_t>(MsgType::kMigrate));
  migrate.write_varuint(0);   // kind: kResume
  migrate.write(0xdead, 64);  // fingerprint
  migrate.write_varuint(7);   // origin_job_id
  migrate.write_varuint(0);   // origin_worker length
  write_submit_fields(migrate, (1ull << 32) + 1, 1);
  migrate.write_varuint(0);  // snapshot_round
  migrate.write_varuint(0);  // snapshot byte count
  migrate.write_varuint(0);  // block bit length
  const DrainResult migrated = drain(frame_bytes(migrate));
  ASSERT_TRUE(migrated.error.has_value());
  EXPECT_EQ(*migrated.error, ProtoError::kMalformed);
}

/// A one-node ResultBlock with raw run_status, diameter and eccentricity.
BitWriter block_with(std::uint64_t run_status, std::uint64_t diameter,
                     std::uint64_t eccentricity) {
  BitWriter w;
  w.write_varuint(run_status);
  w.write_varuint(0);   // detail length
  w.write_varuint(10);  // rounds
  w.write_varuint(diameter);
  w.write_varuint(0);  // total_bits
  w.write_varuint(0);  // total_physical_messages
  w.write_varuint(1);  // N
  snap::put_double(w, 0.0);
  snap::put_double(w, 0.0);
  snap::put_double(w, 0.0);
  snap::put_long_double(w, 0.0L);
  w.write_varuint(eccentricity);
  return w;
}

std::optional<ProtoError> block_error(const BitWriter& block) {
  BitReader reader(block.data(), block.bit_size());
  try {
    (void)decode_result_block(reader);
  } catch (const ProtocolError& e) {
    return e.code();
  }
  return std::nullopt;
}

TEST(Narrowing, ReplyAndBlockFieldsWiderThanTheirTypeAreMalformed) {
  // RunStatus::kError (6) is the last run status.
  EXPECT_EQ(block_error(block_with(6, UINT32_MAX, UINT32_MAX)), std::nullopt);
  for (const BitWriter& bad :
       {block_with(7, 1, 1), block_with(256, 1, 1),
        block_with(0, 1ull << 32, 1), block_with(0, 1, (1ull << 32) + 5)}) {
    EXPECT_EQ(block_error(bad), ProtoError::kMalformed);
  }

  for (const std::uint64_t position :
       {std::uint64_t{UINT32_MAX}, std::uint64_t{1} << 32}) {
    BitWriter status;
    status.write_varuint(static_cast<std::uint64_t>(MsgType::kStatusReply));
    status.write_varuint(0);  // state: kQueued
    status.write_varuint(3);  // job_id
    status.write(0, 64);      // fingerprint
    status.write_varuint(position);
    status.write_varuint(0);  // detail length
    status.write_varuint(0);  // phase_timeline length
    const ReplyDrain result = drain_replies(frame_bytes(status));
    if (position == UINT32_MAX) {
      ASSERT_EQ(result.replies.size(), 1u);
      EXPECT_EQ(result.replies[0].status.queue_position, UINT32_MAX);
    } else {
      ASSERT_TRUE(result.error.has_value());
      EXPECT_EQ(*result.error, ProtoError::kMalformed);
    }
  }
}

// ------------------------------------------------------------------
// Wire golden: the v7 bytes of one fully populated instance of every
// request and reply type, both sides of each conditional field included,
// and of one ResultBlock, compared against tests/goldens/cbcp_v7.hex.
// The round trips above would pass under any symmetric change to the
// encoding; this pins the encoding itself.  Every golden frame must also
// decode and re-encode to the same bytes, so the decoder reads each
// field the encoder writes, in the same order.
//
// Regenerating after an intentional wire change (which must also bump
// kProtocolVersion):
//   CONGESTBC_UPDATE_GOLDENS=1 ./build/tests/service_protocol_test

SubmitRequest full_submit() {
  SubmitRequest submit;
  submit.source = GraphSource::kPath;
  submit.graph = "graphs/ba_300.txt";
  submit.halve = false;
  submit.reliable = true;
  submit.faults = "drop=0.1,seed=7";
  submit.max_rounds = 123456789;
  submit.threads = 6;
  submit.deadline_ms = 45000;
  submit.attempt = 3;
  submit.stream_ns = "ns-7";
  submit.stream_version = 12;
  submit.incremental = true;
  submit.backend = 4;
  submit.samples = 321;
  submit.sample_seed = 0xfeedface12345678ull;
  return submit;
}

std::vector<std::pair<std::string, Request>> golden_requests() {
  MutateRequest mutate;
  mutate.ns = "ns-7";
  mutate.base_version = 5;
  mutate.base_graph = "3 2\n0 1\n1 2\n";
  mutate.ops = {{1, 0, 2}, {2, 1, 2}, {1, 70000, 3}};
  MigrateRequest resume = sample_migrate();
  resume.submit = full_submit();
  resume.block_bytes = {0x01, 0x02, 0x03, 0x04};
  resume.block_bits = 4 * 8 - 3;
  MigrateRequest result = resume;
  result.kind = MigrateKind::kResult;
  result.snapshot_round = 0;
  result.snapshot_bytes.clear();
  return {
      {"submit", make_submit(full_submit())},
      {"status", make_job_request(MsgType::kStatus, 0xdeadbeefcafe1234ull)},
      {"result", make_job_request(MsgType::kResult, 7)},
      {"cancel", make_job_request(MsgType::kCancel, 300)},
      {"stats", make_plain(MsgType::kStats)},
      {"shutdown", make_plain(MsgType::kShutdown)},
      {"mutate", make_mutate(mutate)},
      {"join", make_join({"10.1.2.3:7777", "10.1.2.3", 7777})},
      {"leave", make_leave({"10.1.2.3:7777"})},
      {"migrate_resume", make_migrate(resume)},
      {"migrate_result", make_migrate(result)},
      {"lookup", make_lookup(0x50f7ca11d00dfeedull)},
  };
}

StatsReply full_stats() {
  StatsReply s;
  s.uptime_ms = 61000;
  s.submits = 120;
  s.cache_hits = 30;
  s.cache_misses = 80;
  s.coalesced = 10;
  s.busy_rejections = 3;
  s.draining_rejections = 1;
  s.jobs_completed = 70;
  s.jobs_failed = 5;
  s.jobs_cancelled = 4;
  s.jobs_suspended = 2;
  s.jobs_resumed = 12;
  s.protocol_errors = 6;
  s.queue_depth = 7;
  s.running = 22;
  s.workers = 14;
  s.cache_entries = 48;
  s.cache_evictions = 9;
  s.retried_submits = 11;
  s.deadline_rejections = 8;
  s.deadline_expired = 13;
  s.quarantined_files = 15;
  s.qps = 1.96721;
  s.worker_utilization = 0.4375;
  s.latency_p50_ms = 12.5;
  s.latency_p90_ms = 80.25;
  s.latency_p99_ms = 200.125;
  s.mutations_applied = 21;
  s.graph_version = 25;
  s.dirty_sources_rerun = 17;
  s.cache_invalidations = 16;
  s.backend_downgrades = 19;
  s.migrated_out = 23;
  s.migrated_in = 24;
  s.lookups_served = 1ull << 40;
  return s;
}

std::vector<std::pair<std::string, Reply>> golden_replies() {
  std::vector<std::pair<std::string, Reply>> replies;
  const auto add = [&replies](const std::string& name, MsgType type) -> Reply& {
    replies.emplace_back(name, Reply{});
    replies.back().second.type = type;
    return replies.back().second;
  };
  add("submit_reply", MsgType::kSubmitReply).submit = {
      SubmitDisposition::kCoalesced, 42, 0x1234567890abcdefull, "shared", 4,
      true};
  add("status_reply", MsgType::kStatusReply).status = {
      JobState::kQueued, 99,          0xabad1dea5ca1ab1eull,
      17,                "round 17", "tree 0-12 counting 12-40"};
  Reply& ready = add("result_ready", MsgType::kResultReply);
  ready.result = sample_result_reply().result;
  ready.result.block_bits = 7 * 8 - 3;
  add("result_not_ready", MsgType::kResultReply).result = {
      false, JobState::kRunning, false, 0x0123456789abcdefull, "running", {},
      0};
  add("cancel_reply", MsgType::kCancelReply).cancel = {
      CancelOutcome::kRequested};
  add("stats_reply", MsgType::kStatsReply).stats = full_stats();
  add("shutdown_reply", MsgType::kShutdownReply).shutdown = {true};
  add("error", MsgType::kError).error = {ProtoError::kBadRequest, "bad graph"};
  add("mutate_reply", MsgType::kMutateReply).mutate = {
      MutateOutcome::kVersionConflict, 9, 0x0f0e0d0c0b0a0908ull, 3, 1,
      "head moved"};
  add("join_reply", MsgType::kJoinReply).join = {true, "ring size 3"};
  add("leave_reply", MsgType::kLeaveReply).leave = {true};
  add("migrate_reply", MsgType::kMigrateReply).migrate = {
      MigrateOutcome::kCoalesced, 88, 0x1badb002ull, "already cached"};
  add("lookup_found", MsgType::kLookupReply).lookup = {
      true, 0x50f7ca11ull, {0xaa, 0xbb, 0xcc}, 3 * 8 - 2};
  add("lookup_missing", MsgType::kLookupReply).lookup = {false, 0x50f7ca12ull,
                                                         {}, 0};
  return replies;
}

ResultBlock golden_block() {
  ResultBlock block;
  block.run_status = 4;
  block.detail = "round limit 99";
  block.rounds = 99;
  block.diameter = 5;
  block.total_bits = (1ull << 40) + 17;
  block.total_physical_messages = 123456;
  block.betweenness = {0.0, -0.0, 1.5, 231.0714285};
  block.closeness = {0.25, 0.5, 0.75, 1.0};
  block.graph_centrality = {0.2, 0.4, 0.6, 0.8};
  block.stress = {0.0L, 123456789.000000001L, 1.0L, 2.0L};
  block.eccentricities = {1, 2, 3, 70000};
  return block;
}

std::string hex_of(const std::vector<std::uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const std::uint8_t byte : bytes) {
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 0xf];
  }
  return hex;
}

void expect_matches_golden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(CONGESTBC_GOLDEN_DIR) + "/" + name;
  if (std::getenv("CONGESTBC_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write golden " << path;
    out << actual;
    GTEST_SKIP() << "golden updated: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream expected;
  expected << in.rdbuf();
  ASSERT_FALSE(expected.str().empty()) << "missing golden " << path;
  EXPECT_EQ(actual, expected.str())
      << "wire bytes drifted from " << path
      << "; an intentional change must bump kProtocolVersion and "
         "regenerate with CONGESTBC_UPDATE_GOLDENS=1";
}

TEST(WireGolden, EveryMessageTypeMatchesTheV7Bytes) {
  std::string text;
  for (const auto& [name, request] : golden_requests()) {
    const std::vector<std::uint8_t> bytes = frame_of(request);
    text += name + " " + hex_of(bytes) + "\n";
    const DrainResult decoded = drain(bytes);
    ASSERT_FALSE(decoded.error.has_value()) << name;
    ASSERT_EQ(decoded.requests.size(), 1u) << name;
    EXPECT_EQ(frame_of(decoded.requests[0]), bytes) << name;
  }
  for (const auto& [name, reply] : golden_replies()) {
    const auto bytes = frame_bytes(encode_reply(reply));
    text += name + " " + hex_of(bytes) + "\n";
    const ReplyDrain decoded = drain_replies(bytes);
    ASSERT_FALSE(decoded.error.has_value()) << name;
    ASSERT_EQ(decoded.replies.size(), 1u) << name;
    EXPECT_EQ(frame_bytes(encode_reply(decoded.replies[0])), bytes) << name;
  }
  const BitWriter block = encode_result_block(golden_block());
  text += "result_block " + hex_of(frame_bytes(block)) + "\n";
  BitReader reader(block.data(), block.bit_size());
  EXPECT_EQ(frame_bytes(encode_result_block(decode_result_block(reader))),
            frame_bytes(block));
  expect_matches_golden("cbcp_v7.hex", text);
}

}  // namespace
}  // namespace congestbc::service
