#include "snapshot/snapshot.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

namespace congestbc {

namespace {

constexpr char kMagic[8] = {'C', 'B', 'C', 'S', 'N', 'A', 'P', '1'};

void put_le(std::ostream& out, std::uint64_t value, unsigned bytes) {
  char buf[8];
  for (unsigned i = 0; i < bytes; ++i) {
    buf[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  out.write(buf, bytes);
}

std::uint64_t get_le(std::istream& in, unsigned bytes, const char* what) {
  char buf[8];
  in.read(buf, bytes);
  if (static_cast<std::size_t>(in.gcount()) != bytes) {
    throw SnapshotError(std::string("truncated snapshot: short read in ") +
                        what);
  }
  std::uint64_t value = 0;
  for (unsigned i = 0; i < bytes; ++i) {
    value |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(buf[i]))
             << (8 * i);
  }
  return value;
}

}  // namespace

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size,
                    std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint64_t fnv1a_u64(std::uint64_t value, std::uint64_t hash) {
  for (unsigned i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 1099511628211ull;
  }
  return hash;
}

void write_snapshot_container(std::ostream& out, const BitWriter& payload) {
  const std::uint64_t bits = payload.bit_size();
  const std::uint64_t bytes = (bits + 7) / 8;
  out.write(kMagic, sizeof(kMagic));
  put_le(out, kSnapshotFormatVersion, 4);
  put_le(out, bits, 8);
  put_le(out, bytes, 8);
  put_le(out, fnv1a(payload.data(), static_cast<std::size_t>(bytes)), 8);
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(bytes));
  if (!out.good()) {
    throw SnapshotError("snapshot write failed (stream error)");
  }
}

SnapshotPayload read_snapshot_container(std::istream& in) {
  char magic[8];
  in.read(magic, sizeof(magic));
  if (static_cast<std::size_t>(in.gcount()) != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw SnapshotError("not a snapshot: bad magic");
  }
  const std::uint64_t version = get_le(in, 4, "version");
  if (version != kSnapshotFormatVersion) {
    throw SnapshotError("unsupported snapshot format version " +
                        std::to_string(version) + " (expected " +
                        std::to_string(kSnapshotFormatVersion) + ")");
  }
  const std::uint64_t bits = get_le(in, 8, "payload bit length");
  const std::uint64_t bytes = get_le(in, 8, "payload byte length");
  if (bytes != (bits + 7) / 8) {
    throw SnapshotError("corrupt snapshot: inconsistent payload lengths");
  }
  const std::uint64_t expected_hash = get_le(in, 8, "payload hash");
  SnapshotPayload payload;
  payload.bits = bits;
  payload.bytes.resize(static_cast<std::size_t>(bytes));
  in.read(reinterpret_cast<char*>(payload.bytes.data()),
          static_cast<std::streamsize>(bytes));
  if (static_cast<std::uint64_t>(in.gcount()) != bytes) {
    throw SnapshotError("truncated snapshot: payload shorter than header "
                        "claims");
  }
  if (fnv1a(payload.bytes.data(), payload.bytes.size()) != expected_hash) {
    throw SnapshotError("corrupt snapshot: payload hash mismatch");
  }
  return payload;
}

namespace snap {

void put_double(BitWriter& w, double value) {
  w.write(std::bit_cast<std::uint64_t>(value), 64);
}

double get_double(BitReader& r) {
  return std::bit_cast<double>(r.read(64));
}

void put_long_double(BitWriter& w, long double value) {
  // Decompose instead of memcpy: sizeof(long double) includes padding
  // bytes whose values are indeterminate, and the mantissa of every
  // supported long double format fits 64 bits exactly.
  const bool negative = std::signbit(value);
  const long double magnitude = negative ? -value : value;
  int exp = 0;
  const long double frac = std::frexp(magnitude, &exp);  // in [0.5, 1)
  const auto mantissa =
      static_cast<std::uint64_t>(std::ldexp(frac, 64));  // top 64 bits, exact
  put_bool(w, negative);
  w.write(mantissa, 64);
  put_i64(w, exp);
}

long double get_long_double(BitReader& r) {
  const bool negative = get_bool(r);
  const std::uint64_t mantissa = r.read(64);
  const std::int64_t exp = get_i64(r);
  const long double magnitude =
      std::ldexp(static_cast<long double>(mantissa),
                 static_cast<int>(exp) - 64);
  return negative ? -magnitude : magnitude;
}

void put_bits(BitWriter& w, const std::uint8_t* data, std::size_t bits) {
  w.write_varuint(bits);
  w.append(data, bits);
}

std::uint64_t get_u64(BitReader& r) { return r.read_varuint(); }

std::int64_t get_i64(BitReader& r) {
  const std::uint64_t u = r.read_varuint();
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

bool get_bool(BitReader& r) { return r.read_bool(); }

std::uint64_t get_bits(BitReader& r, std::vector<std::uint8_t>& bytes) {
  const std::uint64_t bits = r.read_varuint();
  if (bits > r.remaining()) {
    throw SnapshotError("corrupt snapshot: blob length " +
                        std::to_string(bits) +
                        " bits exceeds the remaining payload");
  }
  bytes.assign((static_cast<std::size_t>(bits) + 7) / 8, 0);
  std::uint64_t remaining = bits;
  std::size_t byte = 0;
  while (remaining > 0) {
    const unsigned chunk =
        remaining >= 8 ? 8u : static_cast<unsigned>(remaining);
    bytes[byte++] = static_cast<std::uint8_t>(r.read(chunk));
    remaining -= chunk;
  }
  return bits;
}

}  // namespace snap

}  // namespace congestbc
