#!/usr/bin/env bash
# Sanitized runs of the code that sanitizers pay for:
#
#   * ASan+UBSan (build-asan): the fault-injection suite (ctest label
#     "faults") plus the engine suites (label "perf": the frontier-vs-
#     legacy identity matrix, which runs the sparse-ER and BA generators
#     at sanitizer-sized node counts, and the arena/thread-pool units) —
#     the fault/reliable-transport layer moves raw payload bytes across
#     rounds, and the frontier engine's lane arenas hand out spans into
#     recycled block memory — plus
#     the snapshot suite (label "snapshot"), whose corruption fuzz feeds
#     hostile bytes straight into the restore parsers, plus the service
#     suite (label "service"), whose framing fuzz feeds hostile bytes
#     into the daemon's wire-protocol decoder, plus the observability
#     suite (label "obs"), whose exporters walk recorder snapshots, plus
#     the chaos suite (label "chaos"), which tears, corrupts, and cuts
#     live sockets mid-frame and kill -9s the daemon mid-job, plus the
#     stream suite (label "stream"), whose mutation batches and journal
#     replay rewrite live adjacency and delta logs in place, plus the
#     portfolio suite (label "portfolio"), whose backend matrix drives
#     every algorithm (paper-exact, cfp, directed, sampled) through the
#     shared dispatch path, plus the cluster suite (label "cluster"),
#     whose router fans frames across worker links while draining
#     workers MIGRATE snapshots and result blocks through it — exactly
#     the paths where a stale pointer or overflow would hide.  The
#     1000-socket loadgen scale run is excluded: a thousand sanitized
#     threads on a shared runner measures the scheduler, not the code.
#   * TSan (build-tsan): the engine, fault, snapshot, service, obs,
#     chaos, and stream suites — the parallel node-execution phase must be
#     data-race-free for any lane count (including the frontier engine's
#     per-lane arena/outbox dispatch, which the identity tests force to
#     multi-lane even on one core, and when resumed mid-run
#     from a snapshot), the daemon's io-thread/worker-pool scheduler
#     likewise, the flight recorder's lock-free ring is hammered from
#     concurrent lanes (and the recorder-on/off bit-identity tests run
#     with all threads), the chaos proxy's relay threads and the retry
#     loop race connect/close against injected RSTs, and TSan is the
#     proof the determinism tests cannot give.
#
# Usage:
#   scripts/check_sanitized.sh [BUILD_DIR_PREFIX] [extra ctest args...]
# BUILD_DIR_PREFIX defaults to "<repo>/build"; the script uses
# "<prefix>-asan" and "<prefix>-tsan".
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
prefix="${1:-$repo_root/build}"
shift || true

echo "=== stage 1: address,undefined ==="
cmake -S "$repo_root" -B "$prefix-asan" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCONGESTBC_SANITIZE=address,undefined
cmake --build "$prefix-asan" -j"$(nproc)" --target fault_test fuzz_test engine_test frontier_test snapshot_test \
  fingerprint_test service_protocol_test service_cache_test service_test \
  chaos_test stream_test obs_test obs_golden_test portfolio_test portfolio_sweep_test \
  cluster_test congestbcd congestbc_router congestbc_client chaosproxy
(cd "$prefix-asan" && ctest -L 'faults|perf|snapshot|service|obs|chaos|stream|portfolio|cluster' \
  -E 'cluster_loadgen_scale' --output-on-failure "$@")
echo "sanitized (asan) fault+engine+snapshot+service+obs+chaos+stream+portfolio+cluster suites: OK"

echo "=== stage 2: thread ==="
cmake -S "$repo_root" -B "$prefix-tsan" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCONGESTBC_SANITIZE=thread
cmake --build "$prefix-tsan" -j"$(nproc)" --target engine_test frontier_test fault_test snapshot_test \
  fingerprint_test service_protocol_test service_cache_test service_test \
  chaos_test stream_test obs_test obs_golden_test portfolio_test portfolio_sweep_test \
  cluster_test congestbcd congestbc_router congestbc_client chaosproxy
(cd "$prefix-tsan" && ctest -L 'faults|perf|snapshot|service|obs|chaos|stream|portfolio|cluster' \
  -E 'cluster_loadgen_scale' --output-on-failure "$@")
echo "sanitized (tsan) engine+fault+snapshot+service+obs+chaos+stream+portfolio+cluster suites: OK"
