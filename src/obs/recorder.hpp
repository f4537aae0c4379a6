// Flight recorder: a bounded, lock-free ring of timing spans fed by the
// CONGEST engine and the BC pipeline (DESIGN.md §11).
//
// Writers claim a slot with one relaxed fetch_add and store four relaxed
// 64-bit words — no locks, no heap allocation, no syscalls on the hot
// path.  The ring keeps the newest `capacity` events; older ones are
// overwritten and counted in dropped().  Readers snapshot after the run
// has quiesced (the engine is synchronous, so "after run() returns" is
// quiesced by construction).
//
// Determinism contract: the recorder READS the clock but never feeds
// anything back into execution — no engine branch ever depends on
// recorder state.  tests/obs_test.cpp asserts bit-identity of results,
// metrics and message traces with recording on vs off.
//
// Torn events: if writers lap the ring while another writer is still
// filling the slot they wrap onto, that one slot's words may mix two
// events.  The relaxed atomics keep this data-race-free (TSan-clean);
// a flight recorder tolerates one garbled frame under overflow, and
// dropped() tells the reader overflow happened.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace congestbc::obs {

/// What a span measured.  Values are stable identifiers (they appear in
/// Chrome trace exports); add new phases at the end, and never reuse the
/// retired ids 2 and 6..9.
enum class Phase : std::uint16_t {
  kCrashBookkeeping = 1,  ///< engine round phase 1: fault + stall scan
  kDelayedRelease = 3,    ///< engine round phase 3: delayed-bundle swap
  kMerge = 4,             ///< engine round phase 4: outbox merge + metrics
  kRound = 5,             ///< one whole round (legacy engine)
  kActiveSetBuild = 10,   ///< frontier engine: wake-heap pop + mark merge
  kLaneDispatch = 11,     ///< frontier engine: one lane's active chunk
  kQuiescenceSkip = 12,   ///< frontier engine: fast-forwarded empty rounds
};

const char* phase_name(Phase phase);

/// One recorded span, in plain (non-atomic) snapshot form.
struct SpanEvent {
  std::uint64_t start_ns = 0;     ///< steady-clock nanoseconds
  std::uint64_t duration_ns = 0;
  std::uint64_t round = 0;        ///< logical round the span belongs to
  std::uint32_t lane = 0;         ///< worker lane (0 = calling thread)
  Phase phase = Phase::kRound;

  friend bool operator==(const SpanEvent&, const SpanEvent&) = default;
};

class FlightRecorder {
 public:
  /// Allocates the ring once, up front (the only allocation it ever
  /// does).  Capacity is clamped to >= 1.
  explicit FlightRecorder(std::size_t capacity = std::size_t{1} << 16);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Steady-clock nanoseconds (monotonic; only differences are
  /// meaningful).
  static std::uint64_t now_ns();

  /// Appends one span.  Wait-free: one fetch_add + four relaxed stores.
  void record(Phase phase, std::uint64_t round, std::uint32_t lane,
              std::uint64_t start_ns, std::uint64_t duration_ns);

  std::size_t capacity() const { return slots_.size(); }

  /// Total record() calls since construction / clear().
  std::uint64_t recorded() const {
    return cursor_.load(std::memory_order_relaxed);
  }

  /// Events overwritten because the ring wrapped.
  std::uint64_t dropped() const {
    const std::uint64_t n = recorded();
    return n > slots_.size() ? n - slots_.size() : 0;
  }

  /// Copies the surviving events oldest-first.  Call only while no
  /// writer is active (after the instrumented run has returned).
  std::vector<SpanEvent> snapshot() const;

  /// Resets the ring for reuse.  Same quiescence requirement.
  void clear();

 private:
  struct Slot {
    std::atomic<std::uint64_t> start_ns{0};
    std::atomic<std::uint64_t> duration_ns{0};
    std::atomic<std::uint64_t> round{0};
    /// lane in the high 32 bits, Phase in the low 16; 0 = never written.
    std::atomic<std::uint64_t> meta{0};
  };

  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> cursor_{0};
};

}  // namespace congestbc::obs
