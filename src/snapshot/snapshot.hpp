// Deterministic checkpoint/restore: the snapshot container format.
//
// A snapshot is the complete simulator state at a round boundary,
// serialized with the same BitWriter/BitReader machinery the CONGEST
// messages use (common/bit_io.hpp), wrapped in a small self-describing
// binary container:
//
//   bytes 0..7    magic "CBCSNAP1"
//   u32   LE      format version (kSnapshotFormatVersion)
//   u64   LE      payload length in bits
//   u64   LE      payload length in bytes (= ceil(bits / 8))
//   u64   LE      FNV-1a hash of the payload bytes
//   ...           payload bytes
//
// The contract is strict (DESIGN.md §9): a run resumed from a snapshot
// produces bit-identical centralities, metrics, and trace streams to the
// uninterrupted run, for any thread count, fault-free or under a fault
// plan.  Corrupt input — truncated files, flipped bits, wrong magic or
// version, trailing garbage inside a section — is rejected with a typed
// SnapshotError; it must never crash, read out of bounds, or silently
// resume from damaged state (the payload hash catches corruption before
// any field is interpreted).
//
// Each payload's layout is declared once, as a field walk that both
// saves and loads it (snapshot/field_walk.hpp): the engine section in
// congest/network.cpp, each Snapshottable program's blob beside the
// program, the spool files in service/daemon.cpp.  This header provides
// the container and the field codecs the walk shares.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bit_io.hpp"

namespace congestbc {

/// A snapshot could not be written, read, or applied: I/O failure,
/// truncation, corruption, version mismatch, or a snapshot that does not
/// match the network it is being loaded into (different graph, budget, or
/// fault plan).  Deliberately NOT an InvariantError: a bad snapshot file
/// is an environmental fault, not a library bug.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Bumped on any incompatible payload-layout change; readers reject other
/// versions with SnapshotError instead of guessing.
inline constexpr std::uint32_t kSnapshotFormatVersion = 1;

/// A verified payload: container parsed, magic/version/hash checked.
struct SnapshotPayload {
  std::vector<std::uint8_t> bytes;
  std::uint64_t bits = 0;

  BitReader reader() const {
    return BitReader(bytes.data(), static_cast<std::size_t>(bits));
  }
};

/// Wraps `payload` in the container and writes it to `out`.  Throws
/// SnapshotError when the stream fails.
void write_snapshot_container(std::ostream& out, const BitWriter& payload);

/// Reads and verifies a container (magic, version, lengths, hash).
/// Throws SnapshotError on any mismatch or short read.
SnapshotPayload read_snapshot_container(std::istream& in);

/// FNV-1a over a byte range — the container's integrity hash, also used
/// for the graph/fault-plan fingerprints recorded in the engine section.
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size,
                    std::uint64_t seed = 14695981039346656037ull);
std::uint64_t fnv1a_u64(std::uint64_t value, std::uint64_t hash);

namespace snap {

// Field codecs: the primitives under the field walk's reals and zigzag
// integers, and a way to build or read a payload by hand (tests do).
// Structural checks (lengths, narrowing, trailing bits) live in
// fields::Reader.

inline void put_u64(BitWriter& w, std::uint64_t value) {
  w.write_varuint(value);
}

/// Signed value in zigzag coding (exponents, deltas).
inline void put_i64(BitWriter& w, std::int64_t value) {
  const auto u = static_cast<std::uint64_t>(value);
  w.write_varuint((u << 1) ^ static_cast<std::uint64_t>(value >> 63));
}

inline void put_bool(BitWriter& w, bool b) { w.write_bool(b); }

/// Bit-exact double (IEEE-754 bit pattern; centralities must survive a
/// round-trip unchanged).
void put_double(BitWriter& w, double value);

/// Bit-exact long double via (mantissa, exponent) decomposition — the
/// x86 80-bit format has 64 mantissa bits, which a u64 captures exactly
/// (and any narrower long double trivially fits).
void put_long_double(BitWriter& w, long double value);

/// Length-prefixed raw bit blob.
void put_bits(BitWriter& w, const std::uint8_t* data, std::size_t bits);

std::uint64_t get_u64(BitReader& r);
std::int64_t get_i64(BitReader& r);
bool get_bool(BitReader& r);
double get_double(BitReader& r);
long double get_long_double(BitReader& r);

/// Reads a blob written by put_bits into owning bytes; returns its bit
/// length.
std::uint64_t get_bits(BitReader& r, std::vector<std::uint8_t>& bytes);

}  // namespace snap

}  // namespace congestbc
