// One field-walk machinery for every bit-stream layout: the CBCP wire
// (service/protocol.cpp) and every snapshot payload — each Snapshottable
// program's blob, the engine section (congest/network.cpp) and the
// daemon's spool files (service/daemon.cpp).
//
// A layout is written once, as a walk over its fields in stream order,
// templated on the direction: Writer emits each field into a BitWriter,
// Reader reads it back and checks it.  A walk takes its subject const
// (Writer) or mutable (Reader), and the Writer or Reader by value: each
// is one pointer to its stream, which a walk then keeps in a register
// across the out-of-line bit writes (taken by reference, it is reloaded
// after every call, which made snapshot saves measurably slower).  All reads funnel through Reader, so an
// overrun, a hostile length, an unknown enum value, an integer too wide
// for its field, a mismatched expect-field or a trailing bit surfaces as
// the caller's error, never as UB, a silent truncation or an unbounded
// allocation.  Reader is templated on how a bad field is reported: a
// policy with static [[noreturn]] malformed(text), plus mismatch(text)
// for expect-fields (snapshots) or unknown_type(text) (the wire).
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"
#include "common/bit_io.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/snapshottable.hpp"

namespace congestbc::fields {

/// `Is<M, T>`: a walk's subject M is T, const or not.
template <class M, class T>
concept Is = std::same_as<std::remove_const_t<M>, T>;

/// How snapshot readers report a bad field.
struct SnapshotFail {
  [[noreturn]] static void malformed(const std::string& what) {
    throw SnapshotError("corrupt snapshot: " + what);
  }
  [[noreturn]] static void mismatch(const std::string& what) {
    throw SnapshotError(what);
  }
};

class Writer {
 public:
  /// False here, true in Reader: for a field a load rebuilds from parts.
  static constexpr bool kLoading = false;

  explicit Writer(BitWriter& w) : w_(&w) {}

  template <std::unsigned_integral T>
  void varuint(const T& value) {
    w_->write_varuint(value);
  }
  /// Signed value in zigzag coding (exponents).
  void zigzag(const std::int64_t& value) { snap::put_i64(*w_, value); }
  void fixed64(const std::uint64_t& value) { w_->write(value, 64); }
  void flag(const bool& value) { w_->write_bool(value); }
  /// Bit-exact reals: a double as its IEEE-754 bits, a long double as
  /// sign, 64 mantissa bits and exponent (snap::put_long_double).
  void real(const double& value) { snap::put_double(*w_, value); }
  void real(const long double& value) { snap::put_long_double(*w_, value); }

  /// Presence bit, then the value.
  template <std::unsigned_integral T>
  void optional(const std::optional<T>& value) {
    w_->write_bool(value.has_value());
    if (value.has_value()) {
      w_->write_varuint(*value);
    }
  }

  /// A field the reader already knows (a version, a fingerprint, a
  /// config value): written here, compared there.  `message` is the
  /// reader's rejection text.
  template <class T>
  void expect(const T& value, const char*) {
    if constexpr (std::same_as<T, bool>) {
      w_->write_bool(value);
    } else {
      w_->write_varuint(value);
    }
  }

  /// An enum or code that must lie in [first, last], as a varuint.
  template <class T>
  void bounded(const T& value, std::type_identity_t<T>,
               std::type_identity_t<T>, const char*) {
    w_->write_varuint(static_cast<std::uint64_t>(value));
  }

  /// A message type; a type of the other direction is a caller bug.
  template <class T>
  void type(const T& value, std::type_identity_t<T> first,
            std::type_identity_t<T> last, const char*) {
    CBC_EXPECTS(value >= first && value <= last,
                "message type belongs to the other direction");
    w_->write_varuint(static_cast<std::uint64_t>(value));
  }

  void text(const std::string& s) {
    w_->write_varuint(s.size());
    for (const char c : s) {
      w_->write(static_cast<std::uint8_t>(c), 8);
    }
  }

  /// Opaque byte blob: varuint byte count + bytes.
  void blob(const std::vector<std::uint8_t>& bytes) {
    w_->write_varuint(bytes.size());
    for (const std::uint8_t b : bytes) {
      w_->write(b, 8);
    }
  }

  /// A bit block: varuint bit length + exactly that many bits, no byte
  /// padding.  `what` names the block in the reader's errors.
  template <std::unsigned_integral B>
  void block(const std::vector<std::uint8_t>& bytes, const B& bits,
             const char*) {
    CBC_EXPECTS(bits <= bytes.size() * 8, "bit block longer than its bytes");
    w_->write_varuint(bits);
    w_->append(bytes.data(), static_cast<std::size_t>(bits));
  }
  void block(const BitWriter& bits, const char*) {
    w_->write_varuint(bits.bit_size());
    w_->append(bits.data(), bits.bit_size());
  }

  /// Another payload nested as a bit block: a program's saved state.
  void nested(const Snapshottable& program, const char* what) {
    BitWriter inner;
    program.save_state(inner);
    block(inner, what);
  }

  /// The element count of one or more parallel sequences, which must
  /// agree.
  template <class V, class... Rest>
  std::size_t length(unsigned, const V& first, const Rest&... rest) {
    CBC_EXPECTS(((rest.size() == first.size()) && ...),
                "parallel arrays must agree on their length");
    w_->write_varuint(first.size());
    return first.size();
  }

  /// A map as a counted list of entries, each walked by
  /// `each(key, value)`.
  template <class Map, class Each>
  void entries(unsigned, const Map& map, Each each, const char*) {
    w_->write_varuint(map.size());
    for (const auto& [key, value] : map) {
      each(key, value);
    }
  }

 private:
  BitWriter* w_;
};

template <class Fail>
class Reader {
 public:
  static constexpr bool kLoading = true;

  explicit Reader(BitReader& r) : r_(&r) {}

  /// Rejects a value too wide for its field instead of truncating it.
  template <std::unsigned_integral T>
  void varuint(T& value) {
    const std::uint64_t raw = r_->read_varuint();
    if (raw > std::numeric_limits<T>::max()) {
      Fail::malformed("value " + std::to_string(raw) + " exceeds its " +
                      std::to_string(std::numeric_limits<T>::digits) +
                      "-bit field");
    }
    value = static_cast<T>(raw);
  }
  void zigzag(std::int64_t& value) { value = snap::get_i64(*r_); }
  void fixed64(std::uint64_t& value) { value = r_->read(64); }
  void flag(bool& value) { value = r_->read_bool(); }
  void real(double& value) { value = snap::get_double(*r_); }
  void real(long double& value) { value = snap::get_long_double(*r_); }

  template <std::unsigned_integral T>
  void optional(std::optional<T>& value) {
    value.reset();
    if (r_->read_bool()) {
      varuint(value.emplace());
    }
  }

  /// Reads the field and rejects it unless it equals `expected`.
  template <class T>
  void expect(const T& expected, const char* message) {
    T value{};
    if constexpr (std::same_as<T, bool>) {
      flag(value);
    } else {
      varuint(value);
    }
    if (value != expected) {
      Fail::mismatch(message);
    }
  }

  template <class T>
  void bounded(T& value, std::type_identity_t<T> first,
               std::type_identity_t<T> last, const char* what) {
    const std::uint64_t raw = r_->read_varuint();
    if (raw < static_cast<std::uint64_t>(first) ||
        raw > static_cast<std::uint64_t>(last)) {
      Fail::malformed(std::string("unknown ") + what + " " +
                      std::to_string(raw));
    }
    value = static_cast<T>(raw);
  }

  template <class T>
  void type(T& value, std::type_identity_t<T> first,
            std::type_identity_t<T> last, const char* what) {
    const std::uint64_t raw = r_->read_varuint();
    if (raw < static_cast<std::uint64_t>(first) ||
        raw > static_cast<std::uint64_t>(last)) {
      Fail::unknown_type(std::string("unknown ") + what + " type " +
                         std::to_string(raw));
    }
    value = static_cast<T>(raw);
  }

  void text(std::string& s) {
    s.resize(checked_size(r_->read_varuint(), 8, "string length"));
    for (char& c : s) {
      c = static_cast<char>(r_->read(8));
    }
  }

  void blob(std::vector<std::uint8_t>& bytes) {
    bytes.resize(checked_size(r_->read_varuint(), 8, "byte blob length"));
    for (std::uint8_t& b : bytes) {
      b = static_cast<std::uint8_t>(r_->read(8));
    }
  }

  template <std::unsigned_integral B>
  void block(std::vector<std::uint8_t>& bytes, B& bits, const char* what) {
    const std::uint64_t length = block_length(what);
    bytes.assign((static_cast<std::size_t>(length) + 7) / 8, 0);
    std::uint64_t left = length;
    std::size_t byte = 0;
    while (left > 0) {
      const unsigned chunk = left >= 8 ? 8u : static_cast<unsigned>(left);
      bytes[byte++] = static_cast<std::uint8_t>(r_->read(chunk));
      left -= chunk;
    }
    bits = static_cast<B>(length);
  }
  void block(BitWriter& bits, const char* what) {
    std::uint64_t left = block_length(what);
    bits.clear();
    bits.reserve_bits(static_cast<std::size_t>(left));
    while (left > 0) {
      const unsigned chunk = left >= 64 ? 64u : static_cast<unsigned>(left);
      bits.write(r_->read(chunk), chunk);
      left -= chunk;
    }
  }

  /// Loads the nested payload into `program`, which must consume it
  /// exactly.
  void nested(Snapshottable& program, const char* what) {
    BitWriter inner;
    block(inner, what);
    BitReader r(inner.data(), inner.bit_size());
    program.load_state(r);
    if (r.remaining() != 0) {
      Fail::malformed(std::string(what) + " blob has " +
                      std::to_string(r.remaining()) + " unconsumed bits");
    }
  }
  /// Stages the nested payload unread (its program does not exist yet).
  void nested(BitWriter& staged, const char* what) { block(staged, what); }

  /// Each element needs at least `min_bits_each` bits of payload, so a
  /// hostile count cannot out-allocate the payload it rode in on.
  template <class V, class... Rest>
  std::size_t length(unsigned min_bits_each, V& first, Rest&... rest) {
    const std::size_t n =
        checked_size(r_->read_varuint(), min_bits_each, "element count");
    first.resize(n);
    (rest.resize(n), ...);
    return n;
  }

  /// Rejects a repeated key with `duplicate`.
  template <class Map, class Each>
  void entries(unsigned min_bits_each, Map& map, Each each,
               const char* duplicate) {
    const std::size_t n =
        checked_size(r_->read_varuint(), min_bits_each, "element count");
    map.clear();
    for (std::size_t i = 0; i < n; ++i) {
      typename Map::key_type key{};
      typename Map::mapped_type value{};
      each(key, value);
      if (!map.emplace(std::move(key), std::move(value)).second) {
        Fail::malformed(duplicate);
      }
    }
  }

 private:
  /// A length checked against the payload before anything is allocated.
  /// Divides instead of multiplying: `size * 8` wraps for hostile lengths
  /// >= 2^61, which would slip past the check and into the allocation.
  std::size_t checked_size(std::uint64_t size, unsigned min_bits_each,
                           const char* what) {
    if (size > r_->remaining() / min_bits_each) {
      Fail::malformed(std::string(what) + " " + std::to_string(size) +
                      " exceeds the remaining payload");
    }
    return static_cast<std::size_t>(size);
  }

  std::uint64_t block_length(const char* what) {
    const std::uint64_t bits = r_->read_varuint();
    if (bits > r_->remaining()) {
      Fail::malformed(std::string(what) +
                      " block length exceeds the payload");
    }
    return bits;
  }

  BitReader* r_;
};

/// Runs `walk(reader)` over `r`.  BitReader overruns (InvariantError)
/// become Fail::malformed, and with `whole` the walk must end at the
/// last bit: a conforming writer pads nothing, the bit length is exact.
template <class Fail, class Walk>
void read_fields(BitReader& r, bool whole, Walk&& walk) {
  try {
    Reader<Fail> io(r);
    walk(io);
  } catch (const InvariantError& e) {
    Fail::malformed(std::string("malformed payload: ") + e.what());
  }
  if (whole && r.remaining() != 0) {
    Fail::malformed(std::to_string(r.remaining()) +
                    " trailing bits after the last field");
  }
}

/// The bits `walk(writer)` emits.
template <class Walk>
BitWriter write_fields(Walk&& walk) {
  BitWriter w;
  Writer io(w);
  walk(io);
  return w;
}

}  // namespace congestbc::fields
