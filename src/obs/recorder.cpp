#include "obs/recorder.hpp"

#include <chrono>

namespace congestbc::obs {

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kCrashBookkeeping:
      return "crash_bookkeeping";
    case Phase::kDelayedRelease:
      return "delayed_release";
    case Phase::kMerge:
      return "merge";
    case Phase::kRound:
      return "round";
    case Phase::kActiveSetBuild:
      return "active_set_build";
    case Phase::kLaneDispatch:
      return "lane_dispatch";
    case Phase::kQuiescenceSkip:
      return "quiescence_skip";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : slots_(capacity == 0 ? 1 : capacity) {}

std::uint64_t FlightRecorder::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void FlightRecorder::record(Phase phase, std::uint64_t round,
                            std::uint32_t lane, std::uint64_t start_ns,
                            std::uint64_t duration_ns) {
  const std::uint64_t ticket = cursor_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket % slots_.size()];
  slot.start_ns.store(start_ns, std::memory_order_relaxed);
  slot.duration_ns.store(duration_ns, std::memory_order_relaxed);
  slot.round.store(round, std::memory_order_relaxed);
  const std::uint64_t meta = (static_cast<std::uint64_t>(lane) << 32) |
                             static_cast<std::uint64_t>(phase);
  slot.meta.store(meta, std::memory_order_relaxed);
}

std::vector<SpanEvent> FlightRecorder::snapshot() const {
  const std::uint64_t n = recorded();
  const std::uint64_t cap = slots_.size();
  const std::uint64_t live = n < cap ? n : cap;
  std::vector<SpanEvent> out;
  out.reserve(static_cast<std::size_t>(live));
  // Oldest surviving event first: when the ring wrapped, that is the
  // slot the cursor would overwrite next.
  const std::uint64_t first = n < cap ? 0 : n - cap;
  for (std::uint64_t i = 0; i < live; ++i) {
    const Slot& slot = slots_[static_cast<std::size_t>((first + i) % cap)];
    SpanEvent event;
    event.start_ns = slot.start_ns.load(std::memory_order_relaxed);
    event.duration_ns = slot.duration_ns.load(std::memory_order_relaxed);
    event.round = slot.round.load(std::memory_order_relaxed);
    const std::uint64_t meta = slot.meta.load(std::memory_order_relaxed);
    event.lane = static_cast<std::uint32_t>(meta >> 32);
    event.phase = static_cast<Phase>(meta & 0xffffu);
    out.push_back(event);
  }
  return out;
}

void FlightRecorder::clear() {
  for (Slot& slot : slots_) {
    slot.start_ns.store(0, std::memory_order_relaxed);
    slot.duration_ns.store(0, std::memory_order_relaxed);
    slot.round.store(0, std::memory_order_relaxed);
    slot.meta.store(0, std::memory_order_relaxed);
  }
  cursor_.store(0, std::memory_order_relaxed);
}

}  // namespace congestbc::obs
