// The per-program side of the checkpoint/restore subsystem.
//
// A NodeProgram that also derives from Snapshottable can have its complete
// state captured into a snapshot (snapshot/snapshot.hpp) and restored into
// a freshly constructed instance.  The simulator (Network::save_snapshot /
// the checkpoint policy) discovers the capability by dynamic_cast and
// refuses to snapshot a network whose programs do not provide it.
#pragma once

#include "common/bit_io.hpp"

namespace congestbc {

/// Save/load of one program's complete mutable state.
///
/// Contract:
///   * save_state must serialize every field that influences any future
///     on_round / done() / progress_marker() behavior or any harvested
///     output.  Configuration reachable from constructor arguments
///     (formats, masks, topology) is NOT serialized — the restoring side
///     reconstructs the program with the same constructor arguments first,
///     then calls load_state on it.
///   * load_state must consume exactly the bits save_state produced and
///     leave the program bit-identical to the saved one: running both
///     forward produces identical messages, metrics, and outputs.  Every
///     implementation declares its layout once, as a field walk
///     (snapshot/field_walk.hpp) that save_state drives with a Writer and
///     load_state with a Reader, so the first half holds by construction;
///     load_state then only rebuilds derived indexes.
///   * load_state is called at most once, on a freshly constructed
///     instance, before its first on_round.
///   * Decorators (congest/reliable.hpp) save their own state plus their
///     inner program's, nested as a length-prefixed blob.
class Snapshottable {
 public:
  virtual ~Snapshottable() = default;

  virtual void save_state(BitWriter& w) const = 0;
  virtual void load_state(BitReader& r) = 0;
};

}  // namespace congestbc
