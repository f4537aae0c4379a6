// Checkpoint policy and on-disk checkpoint management.
//
// A CheckpointPolicy attached to NetworkConfig makes the simulator write a
// full snapshot every `every_rounds` rounds.  Writes are atomic
// (write-to-temp + rename, so a crash mid-write can never leave a
// truncated file under the final name) and pruned to the newest
// `keep_last` files, so an interrupted run always finds an intact recent
// checkpoint to --resume from.  write_file_atomic is that temp + rename
// step on its own; the daemon writes its spool files through it too.
//
// File naming: ckpt-<round, zero-padded to 12 digits>.cbcsnap inside the
// policy directory.  The zero padding makes lexicographic order equal
// round order, which is what latest_checkpoint() and the pruner sort by.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/bit_io.hpp"

namespace congestbc {

/// When and where the simulator writes checkpoints.  Inert when
/// every_rounds == 0 or directory is empty.
struct CheckpointPolicy {
  /// Write a checkpoint at every round divisible by this (round 0 is
  /// skipped — it would just be the initial state).  0 disables.
  std::uint64_t every_rounds = 0;
  /// Target directory; created on first write.  Empty disables.
  std::string directory;
  /// Newest checkpoints kept on disk; older ones are pruned after each
  /// successful write.  0 means keep everything.
  unsigned keep_last = 2;

  bool enabled() const { return every_rounds != 0 && !directory.empty(); }
};

/// "ckpt-000000000042.cbcsnap" for round 42.
std::string checkpoint_file_name(std::uint64_t round);

/// The round a checkpoint path names (".../ckpt-000000000042.cbcsnap" →
/// 42); 0 when the file name does not match the pattern.
std::uint64_t checkpoint_round_of(const std::string& path);

/// Replaces the file at `path` atomically: `write` fills path + ".tmp",
/// which is then renamed over `path` — rename(2) within one directory is
/// atomic, so a reader sees the old file or the whole new one, never a
/// torn one.  Creates the parent directory when missing.  Throws
/// SnapshotError when a step fails.
void write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& write);

/// Atomically writes `payload` (wrapped in the snapshot container) as the
/// round-`round` checkpoint in `directory`, creating the directory if
/// needed, then prunes to `keep_last`.  Returns the final path.  Throws
/// SnapshotError on I/O failure.
std::string write_checkpoint_file(const std::string& directory,
                                  std::uint64_t round,
                                  const BitWriter& payload,
                                  unsigned keep_last);

/// Checkpoint files in `directory`, oldest first.  Missing directory ==
/// empty list.
std::vector<std::string> list_checkpoints(const std::string& directory);

/// Path of the newest checkpoint in `directory`, if any.
std::optional<std::string> latest_checkpoint(const std::string& directory);

}  // namespace congestbc
