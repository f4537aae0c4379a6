// Inbox parsing: a physical CONGEST message is a bundle of logical
// records; parse_inbox splits every bundle in a round's inbox into typed
// records so the protocol components can dispatch on kind.
#pragma once

#include <variant>
#include <vector>

#include "algo/wire.hpp"
#include "congest/node.hpp"

namespace congestbc {

/// One decoded logical message plus its sender.
struct ParsedMsg {
  NodeId from;
  std::variant<TreeWaveMsg, ParentAcceptMsg, SubtreeUpMsg, DfsTokenMsg,
               WaveMsg, EccUpMsg, PhaseDownMsg, AggMsg, EdgeCountMsg,
               EdgeItemMsg, ResultMsg>
      body;
};

/// Decodes every logical record in the round's inbox, in arrival order,
/// into `out`.  `out` is cleared first and keeps its capacity, so a caller
/// that reuses one vector parses without allocating.
void parse_inbox(const NodeContext& ctx, const WireFormat& fmt,
                 std::vector<ParsedMsg>& out);

}  // namespace congestbc
