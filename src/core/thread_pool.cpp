#include "core/thread_pool.hpp"

#include <chrono>
#include <utility>

namespace congestbc {

unsigned ThreadPool::hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned threads)
    : total_(threads == 0 ? hardware_threads() : threads) {
  errors_.resize(total_);
  workers_.reserve(total_ - 1);
  for (unsigned lane = 1; lane < total_; ++lane) {
    workers_.emplace_back([this, lane] { worker_loop(lane); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& w : workers_) {
    w.join();
  }
}

void ThreadPool::run_chunk(unsigned lane) {
  // Static partition: chunk boundaries depend only on (count, total_).
  const std::size_t begin = job_count_ * lane / total_;
  const std::size_t end = job_count_ * (lane + 1) / total_;
  try {
    if (begin < end) {
      (*job_)(lane, begin, end);
    }
  } catch (...) {
    errors_[lane] = std::current_exception();
  }
}

void ThreadPool::worker_loop(unsigned lane) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock,
                     [&] { return stopping_ || generation_ != seen; });
      if (stopping_) {
        return;
      }
      seen = generation_;
    }
    run_chunk(lane);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--unfinished_ == 0) {
        done_cv_.notify_all();
      }
    }
  }
}

void ThreadPool::parallel_ranges(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  parallel_ranges(count, [&fn](unsigned, std::size_t begin, std::size_t end) {
    fn(begin, end);
  });
}

void ThreadPool::parallel_ranges(
    std::size_t count,
    const std::function<void(unsigned, std::size_t, std::size_t)>& fn) {
  if (total_ == 1 || count <= 1) {
    if (count > 0) {
      fn(0, 0, count);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_count_ = count;
    job_ = &fn;
    for (auto& e : errors_) {
      e = nullptr;
    }
    unfinished_ = total_ - 1;
    ++generation_;
  }
  start_cv_.notify_all();
  run_chunk(0);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return unfinished_ == 0; });
    job_ = nullptr;
  }
  for (const std::exception_ptr& e : errors_) {
    if (e != nullptr) {
      std::rethrow_exception(e);
    }
  }
}

// ---------------------------------------------------------- WorkerPool

WorkerPool::WorkerPool(unsigned threads)
    : total_(threads == 0 ? ThreadPool::hardware_threads() : threads) {
  workers_.reserve(total_);
  for (unsigned i = 0; i < total_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() { stop(); }

void WorkerPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      return;
    }
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

std::size_t WorkerPool::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void WorkerPool::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [&] { return queue_.empty() && running_ == 0; });
}

void WorkerPool::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      return;
    }
    stopping_ = true;
    queue_.clear();
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) {
      w.join();
    }
  }
}

void WorkerPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_) {
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
    }
    busy_.fetch_add(1, std::memory_order_relaxed);
    const auto start = std::chrono::steady_clock::now();
    task();
    const auto end = std::chrono::steady_clock::now();
    busy_.fetch_sub(1, std::memory_order_relaxed);
    busy_nanos_.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
                .count()),
        std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--running_ == 0 && queue_.empty()) {
        idle_cv_.notify_all();
      }
    }
  }
}

}  // namespace congestbc
