// A small persistent thread pool for deterministic data-parallel phases.
//
// parallel_ranges(count, fn) statically partitions [0, count) into one
// contiguous chunk per thread and runs fn(begin, end) on each; the
// calling thread works chunk 0 while the pool's workers take the rest,
// and the call blocks until every chunk completes.  The partition is a
// pure function of (count, thread count) — no work stealing, no atomics
// in the work distribution — so a caller that keeps per-index state
// disjoint gets bit-identical results for every thread count, which is
// exactly the contract the CONGEST round engine builds its determinism
// argument on (DESIGN.md, execution engine).
//
// Exceptions thrown inside a chunk are captured and the one from the
// lowest chunk index is rethrown after all chunks finish, matching what
// a sequential in-order loop would have thrown first.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace congestbc {

class ThreadPool {
 public:
  /// A pool of `threads` total lanes (>= 1); `threads - 1` workers are
  /// spawned, the calling thread is lane 0.  0 means one lane per
  /// hardware thread.
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned threads() const { return total_; }

  /// Runs fn(begin, end) over the static partition of [0, count); blocks
  /// until every chunk is done, then rethrows the lowest-chunk exception
  /// if any chunk threw.  The lane-aware variant below with the lane
  /// dropped.
  void parallel_ranges(std::size_t count,
                       const std::function<void(std::size_t, std::size_t)>& fn);

  /// Lane-aware variant: fn(lane, begin, end), where `lane` is the chunk
  /// index (0 = the calling thread).  Lets callers keep per-lane scratch
  /// without inverting the partition arithmetic; empty chunks are never
  /// invoked, so a lane that received no work must not be assumed to have
  /// run.
  void parallel_ranges(
      std::size_t count,
      const std::function<void(unsigned, std::size_t, std::size_t)>& fn);

  static unsigned hardware_threads();

 private:
  void worker_loop(unsigned lane);
  void run_chunk(unsigned lane);

  unsigned total_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  unsigned unfinished_ = 0;
  std::size_t job_count_ = 0;
  const std::function<void(unsigned, std::size_t, std::size_t)>* job_ =
      nullptr;
  std::vector<std::exception_ptr> errors_;
  bool stopping_ = false;
};

/// A FIFO task-queue executor: `threads` persistent workers drain
/// independently submitted jobs.  The complement of ThreadPool —
/// parallel_ranges() splits ONE computation across lanes and blocks;
/// WorkerPool runs MANY unrelated computations concurrently and returns
/// immediately.  The serving daemon (src/service) drains its bounded job
/// queue through one of these.
///
/// Tasks must not throw — an escaping exception terminates the process
/// (callers like the daemon classify failures inside the task via
/// run_bc_with_watchdog).  Admission control is the caller's job: the
/// internal queue is unbounded.
class WorkerPool {
 public:
  /// Spawns `threads` workers (>= 1; 0 = one per hardware thread).
  explicit WorkerPool(unsigned threads);

  /// stop()s and joins.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueues a task; a no-op after stop().
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and every worker is idle.  Tasks
  /// submitted while draining extend the wait.
  void drain();

  /// Graceful shutdown: running tasks finish, queued-but-unstarted tasks
  /// are discarded (the daemon's drain re-spools them instead), workers
  /// join.  Idempotent.
  void stop();

  unsigned threads() const { return total_; }

  /// Tasks currently queued (not yet started).
  std::size_t pending() const;

  /// Workers currently executing a task.
  unsigned busy() const { return busy_.load(std::memory_order_relaxed); }

  std::uint64_t tasks_completed() const {
    return completed_.load(std::memory_order_relaxed);
  }

  /// Total wall-nanoseconds workers spent inside tasks — the numerator of
  /// the utilization metric (divide by elapsed * threads()).
  std::uint64_t busy_nanos() const {
    return busy_nanos_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop();

  unsigned total_;
  std::vector<std::thread> workers_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  unsigned running_ = 0;
  bool stopping_ = false;
  std::atomic<unsigned> busy_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> busy_nanos_{0};
};

}  // namespace congestbc
