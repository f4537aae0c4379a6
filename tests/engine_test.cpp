// The parallel deterministic round engine (DESIGN.md, execution engine):
//   * metrics, trace stream, fault outcomes, and BC values are
//     bit-identical for every thread count — fault-free and under the
//     mixed fault plan — because node execution is data-parallel over
//     disjoint state and every observable effect happens in the
//     sequential merge phase in node-id order;
//   * the PR-1 legacy engine (NetworkConfig::legacy_engine) produces the
//     same observable stream, so the zero-allocation path is a pure
//     optimization;
//   * the building blocks (ThreadPool, PayloadArena, BitWriter reuse)
//     behave as their contracts promise.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "algo/bc_pipeline.hpp"
#include "common/bit_io.hpp"
#include "congest/arena.hpp"
#include "congest/fault.hpp"
#include "congest/network.hpp"
#include "congest/trace.hpp"
#include "core/thread_pool.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace congestbc {
namespace {

Graph load_dataset(const char* name) {
  for (const std::string prefix : {"data/", "../data/", "../../data/"}) {
    std::ifstream file(prefix + name);
    if (file.good()) {
      return read_edge_list(file);
    }
  }
  throw std::runtime_error(std::string("data/") + name +
                           " not found (run from repo root)");
}

/// The PR-1 mixed adversity plan: hash-drawn drop/duplicate/delay plus a
/// transient link outage (on an edge the graph actually has) and a
/// transient crash-restart.
FaultPlan mixed_fault_plan(const Graph& g) {
  FaultPlan plan;
  plan.seed = 99;
  plan.drop_probability = 0.05;
  plan.duplicate_probability = 0.05;
  plan.delay_probability = 0.05;
  const NodeId u = 0;
  const NodeId v = g.neighbors(u).front();
  plan.link_faults.push_back(LinkFault{Edge{u, v}, {10, 60}});
  plan.node_faults.push_back(NodeFault{5, {20, 40}});
  return plan;
}

struct Observed {
  DistributedBcResult result;
  std::vector<TraceEvent> events;
  std::vector<FaultEvent> fault_events;
};

Observed observe(const Graph& g, DistributedBcOptions options) {
  MessageTrace trace;
  options.trace = &trace;
  Observed o;
  o.result = run_distributed_bc(g, options);
  o.events = trace.events();
  o.fault_events = trace.fault_events();
  return o;
}

void expect_identical(const Observed& a, const Observed& b) {
  EXPECT_EQ(a.result.metrics, b.result.metrics);
  EXPECT_EQ(a.result.betweenness, b.result.betweenness);
  EXPECT_EQ(a.result.closeness, b.result.closeness);
  EXPECT_EQ(a.result.graph_centrality, b.result.graph_centrality);
  EXPECT_EQ(a.result.stress, b.result.stress);
  EXPECT_EQ(a.result.eccentricities, b.result.eccentricities);
  EXPECT_EQ(a.result.diameter, b.result.diameter);
  EXPECT_EQ(a.result.rounds, b.result.rounds);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.fault_events, b.fault_events);
}

// --------------------------------------------- thread-count invariance

void expect_thread_count_invariant(const Graph& g,
                                   DistributedBcOptions options) {
  options.threads = 1;
  const Observed one = observe(g, options);
  for (const unsigned threads : {2u, 8u}) {
    options.threads = threads;
    const Observed many = observe(g, options);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(one, many);
  }
}

TEST(EngineDeterminism, FaultFreeKarate) {
  expect_thread_count_invariant(load_dataset("karate.txt"), {});
}

TEST(EngineDeterminism, FaultFreeLesmis) {
  expect_thread_count_invariant(load_dataset("lesmis.txt"), {});
}

TEST(EngineDeterminism, MixedFaultsKarate) {
  const Graph g = load_dataset("karate.txt");
  DistributedBcOptions options;
  options.reliable_transport = true;
  options.faults = mixed_fault_plan(g);
  expect_thread_count_invariant(g, options);
}

TEST(EngineDeterminism, MixedFaultsLesmis) {
  const Graph g = load_dataset("lesmis.txt");
  DistributedBcOptions options;
  options.reliable_transport = true;
  options.faults = mixed_fault_plan(g);
  expect_thread_count_invariant(g, options);
}

TEST(EngineDeterminism, AutoThreadsMatchesSequential) {
  const Graph g = gen::grid(6, 6);
  DistributedBcOptions options;
  options.threads = 1;
  const Observed one = observe(g, options);
  options.threads = 0;  // one lane per hardware thread
  const Observed younger = observe(g, options);
  expect_identical(one, younger);
}

// ------------------------------------------------- legacy-engine parity

void expect_legacy_parity(const Graph& g, DistributedBcOptions options) {
  options.legacy_engine = false;
  options.threads = 1;
  const Observed engine = observe(g, options);
  options.legacy_engine = true;
  const Observed legacy = observe(g, options);
  expect_identical(engine, legacy);
}

TEST(EngineBaseline, LegacyBitIdenticalFaultFree) {
  expect_legacy_parity(load_dataset("karate.txt"), {});
}

TEST(EngineBaseline, LegacyBitIdenticalUnderMixedFaults) {
  const Graph g = load_dataset("karate.txt");
  DistributedBcOptions options;
  options.reliable_transport = true;
  options.faults = mixed_fault_plan(g);
  expect_legacy_parity(g, options);
}

TEST(EngineBaseline, LegacyBitIdenticalWithCutAccounting) {
  const Graph g = gen::barbell(6, 4);
  DistributedBcOptions options;
  options.cut_edges = {Edge{5, 6}};  // the barbell bridge
  expect_legacy_parity(g, options);
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_ranges(hits.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      hits[i].fetch_add(1);
    }
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int job = 0; job < 50; ++job) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_ranges(101, [&](std::size_t lo, std::size_t hi) {
      std::size_t local = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        local += i;
      }
      sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), 101u * 100u / 2u);
  }
}

TEST(ThreadPoolTest, RethrowsLowestChunkException) {
  ThreadPool pool(4);
  try {
    pool.parallel_ranges(400, [&](std::size_t lo, std::size_t) {
      throw std::runtime_error("chunk@" + std::to_string(lo));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk@0");
  }
}

TEST(ThreadPoolTest, EmptyAndTinyCounts) {
  ThreadPool pool(8);
  std::atomic<int> calls{0};
  pool.parallel_ranges(0, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_ranges(1, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 1u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

// ----------------------------------------------------------- PayloadArena

TEST(PayloadArenaTest, PointersStableWithinGeneration) {
  PayloadArena arena(64);
  std::vector<std::uint8_t*> ptrs;
  for (int i = 0; i < 100; ++i) {
    std::uint8_t* p = arena.allocate(17);
    std::memset(p, i, 17);
    ptrs.push_back(p);
  }
  for (int i = 0; i < 100; ++i) {
    for (int j = 0; j < 17; ++j) {
      EXPECT_EQ(ptrs[static_cast<std::size_t>(i)][j], i);
    }
  }
}

TEST(PayloadArenaTest, ResetCoalescesToZeroSteadyStateAllocations) {
  PayloadArena arena(64);
  for (int i = 0; i < 40; ++i) {
    arena.allocate(100);
  }
  arena.reset();
  const std::uint64_t after_warmup = arena.block_allocations();
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 40; ++i) {
      arena.allocate(100);
    }
    arena.reset();
  }
  EXPECT_EQ(arena.block_allocations(), after_warmup);
}

TEST(PayloadArenaTest, TracksBytesInUse) {
  PayloadArena arena;
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  arena.allocate(10);
  arena.allocate(5);
  EXPECT_EQ(arena.bytes_in_use(), 15u);
  arena.reset();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
}

// ------------------------------------------------------- BitWriter reuse

TEST(BitWriterReuse, ClearKeepsContentCorrect) {
  BitWriter w;
  w.write(0x2b, 6);
  w.clear();
  EXPECT_EQ(w.bit_size(), 0u);
  w.write(0x15, 5);
  BitReader r(w.data(), w.bit_size());
  EXPECT_EQ(r.read(5), 0x15u);
}

TEST(BitWriterReuse, AppendMatchesBitwiseCopy) {
  // The aligned bulk path and the bit-by-bit path must agree.
  BitWriter src;
  for (int i = 0; i < 23; ++i) {
    src.write(static_cast<std::uint64_t>(i * 7 % 32), 5);
  }
  BitWriter aligned;
  aligned.append(src.data(), src.bit_size());  // starts byte-aligned
  BitWriter offset;
  offset.write(1, 3);  // force the unaligned path
  offset.append(src.data(), src.bit_size());

  BitReader ra(aligned.data(), aligned.bit_size());
  BitReader ro(offset.data(), offset.bit_size());
  EXPECT_EQ(ro.read(3), 1u);
  for (int i = 0; i < 23; ++i) {
    const auto expected = static_cast<std::uint64_t>(i * 7 % 32);
    EXPECT_EQ(ra.read(5), expected);
    EXPECT_EQ(ro.read(5), expected);
  }
}

TEST(BitWriterReuse, ReserveBitsDoesNotChangeContent) {
  BitWriter w;
  w.write(0xab, 8);
  w.reserve_bits(10'000);
  EXPECT_EQ(w.bit_size(), 8u);
  w.write(0x3, 2);
  BitReader r(w.data(), w.bit_size());
  EXPECT_EQ(r.read(8), 0xabu);
  EXPECT_EQ(r.read(2), 0x3u);
}

// --------------------------------------------------- allocation counters

TEST(EngineAllocation, ArenaBlockCountIsDeterministicAndSmall) {
  const Graph g = load_dataset("karate.txt");
  Network net_a(g, NetworkConfig{});
  Network net_b(g, NetworkConfig{});
  BcProgramConfig config;
  config.wire = WireFormat::for_graph(g.num_nodes(),
                                      SoftFloatFormat::for_graph(g.num_nodes()));
  config.sources = SourceRanks(std::vector<bool>(g.num_nodes(), true));
  const auto factory = [&](NodeId v) {
    return std::make_unique<BcProgram>(v, config);
  };
  const RunMetrics a = net_a.run(factory);
  const RunMetrics b = net_b.run(factory);
  EXPECT_EQ(a, b);
  EXPECT_EQ(net_a.arena_block_allocations(), net_b.arena_block_allocations());
  // The whole point of the arena: block acquisitions are a warm-up cost,
  // orders of magnitude below the physical message count.
  EXPECT_LT(net_a.arena_block_allocations(), 64u);
  EXPECT_GT(a.total_physical_messages, 1000u);
}

}  // namespace
}  // namespace congestbc
