// Per-round bump arena for message payloads.
//
// The frontier engine (congest/network.cpp) gives each lane two of these:
// every bundle a lane's nodes send in round r has its payload bump-copied
// into that lane's arena[r % 2], and the mailboxes hold (pointer,
// bit-count) views into that memory.  The views are consumed by the
// programs in round r + 1, and arena[r % 2] is not reset until the top of
// round r + 2's execution phase — strictly after the last reader — so the
// lifetime argument is positional, with no per-message ownership or
// refcounting.  One-round delay faults fit inside the same window (parked
// payloads are re-copied into owning storage anyway, because the fault
// path is cold).
//
// reset() is O(1) amortized and keeps the high-water block, so after the
// first few rounds the steady state performs zero heap allocations per
// round; `block_allocations()` counts the mallocs that did happen, which
// bench_simulator reports as the engine's allocation trajectory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace congestbc {

/// Bump allocator with stable pointers and bulk reset.
class PayloadArena {
 public:
  explicit PayloadArena(std::size_t initial_bytes = 1 << 12)
      : initial_bytes_(initial_bytes < 64 ? 64 : initial_bytes) {}

  /// Returns `bytes` bytes of uninitialized storage; the pointer stays
  /// valid until the next reset() (blocks are never moved or reused
  /// within a generation).  Zero-byte requests get a valid dangling-free
  /// pointer into the current block.
  std::uint8_t* allocate(std::size_t bytes) {
    if (active_ >= blocks_.size() ||
        blocks_[active_].used + bytes > blocks_[active_].size) {
      next_block(bytes);
    }
    Block& b = blocks_[active_];
    std::uint8_t* out = b.data.get() + b.used;
    b.used += bytes;
    in_use_ += bytes;
    return out;
  }

  /// Recycles every block for the next generation.  When the previous
  /// generation spilled into multiple blocks, they are coalesced into one
  /// block of the total size so the steady state is a single block and
  /// zero allocations per round.
  void reset() {
    if (blocks_.size() > 1) {
      std::size_t total = 0;
      for (const Block& b : blocks_) {
        total += b.size;
      }
      blocks_.clear();
      blocks_.push_back(make_block(total));
    } else if (!blocks_.empty()) {
      blocks_.front().used = 0;
    }
    active_ = 0;
    in_use_ = 0;
  }

  /// Heap allocations performed so far (block acquisitions); flat after
  /// warm-up on a steady workload.
  std::uint64_t block_allocations() const { return block_allocations_; }

  /// Bytes handed out since the last reset().
  std::size_t bytes_in_use() const { return in_use_; }

  /// Total capacity currently held (the high-water footprint).
  std::size_t capacity_bytes() const {
    std::size_t total = 0;
    for (const Block& b : blocks_) {
      total += b.size;
    }
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  Block make_block(std::size_t at_least) {
    std::size_t size = initial_bytes_;
    while (size < at_least) {
      size *= 2;
    }
    ++block_allocations_;
    return Block{std::make_unique<std::uint8_t[]>(size), size, 0};
  }

  void next_block(std::size_t need) {
    // Advance to an existing block that fits, else grow: each new block
    // doubles the largest so far, keeping total blocks logarithmic.
    while (active_ + 1 < blocks_.size()) {
      ++active_;
      blocks_[active_].used = 0;
      if (blocks_[active_].size >= need) {
        return;
      }
    }
    std::size_t grow = initial_bytes_;
    for (const Block& b : blocks_) {
      grow = grow < b.size ? b.size : grow;
    }
    blocks_.push_back(make_block(grow * 2 >= need ? grow * 2 : need));
    active_ = blocks_.size() - 1;
  }

  std::size_t initial_bytes_;
  std::vector<Block> blocks_;
  std::size_t active_ = 0;
  std::size_t in_use_ = 0;
  std::uint64_t block_allocations_ = 0;
};

}  // namespace congestbc
