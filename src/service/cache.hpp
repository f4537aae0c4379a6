// Fingerprint-keyed LRU cache of finished BC results.
//
// The key is run_fingerprint(graph, options) (algo/bc_pipeline.hpp) —
// the same graph/fault-plan bytes the checkpoint resume path validates
// (snapshot/fingerprint.hpp), so a hit is exactly as trustworthy as a
// resume.  The value is the *encoded* ResultBlock (protocol.hpp): the
// daemon caches the bytes it would send, so a hit serves a bit-identical
// reply to what the original execution produced — no re-serialization,
// no float round-trip, nothing to diverge.
//
// Not internally synchronized: the daemon guards it with its scheduler
// mutex (one lock already covers the queue + coalescing map; a second
// would only add ordering hazards).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

namespace congestbc::service {

/// One cached result: the encoded ResultBlock plus the summary fields
/// STATUS answers without decoding the block.
struct CachedResult {
  std::vector<std::uint8_t> block_bytes;
  std::uint64_t block_bits = 0;
  std::uint8_t run_status = 0;  ///< congestbc::RunStatus of the execution
  /// The execution's fingerprint and resolved backend as a worker
  /// reported them; the router's result cache answers its hits with
  /// these (the daemon keys its cache by fingerprint and leaves them 0).
  std::uint64_t fingerprint = 0;
  std::uint8_t backend = 0;
};

/// Classic LRU over shared_ptr values (shared so a reply being written
/// out survives the entry's eviction).  Capacity is an entry count;
/// betweenness vectors dominate the bytes and graphs served repeatedly
/// are what the cache is for, so simple count-based bounding is enough
/// until a sharding PR needs byte-accounting.
class LruResultCache {
 public:
  /// capacity == 0 disables caching (every get misses, puts are dropped).
  explicit LruResultCache(std::size_t capacity) : capacity_(capacity) {}

  /// Looks up and — on a hit — marks the entry most recently used.
  /// Counts a hit or a miss.
  std::shared_ptr<const CachedResult> get(std::uint64_t fingerprint);

  /// Peeks without touching recency or counters (STATUS queries, the
  /// drain-time index flush).
  std::shared_ptr<const CachedResult> peek(std::uint64_t fingerprint) const;

  /// Inserts or refreshes; evicts the least recently used entry when
  /// over capacity.
  void put(std::uint64_t fingerprint, std::shared_ptr<const CachedResult> result);

  /// Removes one entry (targeted invalidation — a stream mutation
  /// superseding the fingerprint, not capacity pressure, so it does NOT
  /// count as an eviction).  Returns whether the entry existed.
  bool erase(std::uint64_t fingerprint);

  /// Fingerprints in least-to-most recently used order — the persisted
  /// index a restarted daemon replays (in order) to restore recency.
  std::vector<std::uint64_t> keys_lru_order() const;

  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    std::uint64_t fingerprint;
    std::shared_ptr<const CachedResult> result;
  };

  std::size_t capacity_;
  /// Most recently used at the front.
  std::list<Entry> lru_;
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace congestbc::service
