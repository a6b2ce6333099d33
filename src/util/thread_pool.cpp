#include "util/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/config.h"

namespace fedclust::util {

namespace {

// Set while this thread executes a parallel_for chunk; consulted by nested
// parallel_for calls, which then degrade to inline execution.
thread_local bool tls_in_parallel_region = false;

struct RegionGuard {
  bool prev = tls_in_parallel_region;
  RegionGuard() { tls_in_parallel_region = true; }
  ~RegionGuard() { tls_in_parallel_region = prev; }
};

}  // namespace

bool ThreadPool::in_parallel_region() { return tls_in_parallel_region; }

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) {
    n_threads = std::thread::hardware_concurrency();
    if (n_threads == 0) n_threads = 1;
  }
  // The calling thread participates in parallel_for, so a pool of size n
  // needs only n-1 workers to keep n chunks in flight.
  const std::size_t n_workers = n_threads > 0 ? n_threads - 1 : 0;
  workers_.reserve(n_workers);
  for (std::size_t i = 0; i < n_workers; ++i) {
    workers_.emplace_back([this, i] {
      // Label once at startup so exported traces show which pool worker a
      // span ran on (Perfetto's per-track view).
      obs::SpanTracer::instance().set_thread_label(
          "pool-worker-" + std::to_string(i));
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t n_chunks = std::min(n, workers_.size() + 1);
  // Nested dispatch from inside a chunk runs inline: the outer loop already
  // occupies the workers, and queueing here could only add latency (or, for
  // a pool waiting on its own queue, deadlock).
  if (n_chunks <= 1 || tls_in_parallel_region) {
    if (tls_in_parallel_region) {
      OBS_COUNTER_ADD("pool.nested_inline_dispatches", 1);
    }
    fn(begin, end);
    return;
  }
  OBS_COUNTER_ADD("pool.parallel_dispatches", 1);

  struct Shared {
    std::atomic<std::size_t> pending{0};
    std::mutex done_mu;
    std::condition_variable done_cv;
    std::exception_ptr error;
    std::mutex error_mu;
  } shared;

  const std::size_t chunk = (n + n_chunks - 1) / n_chunks;
  shared.pending.store(n_chunks - 1, std::memory_order_relaxed);

  // Chunks 1..n_chunks-1 go to the workers; chunk 0 runs on this thread.
  for (std::size_t c = 1; c < n_chunks; ++c) {
    const std::size_t lo = begin + c * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    submit([&shared, &fn, lo, hi] {
      try {
        if (lo < hi) {
          const RegionGuard region;
          OBS_SPAN_ARG("pool.chunk", hi - lo);
          OBS_GAUGE_ADD("pool.busy_workers", 1);
          fn(lo, hi);
          OBS_GAUGE_ADD("pool.busy_workers", -1);
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(shared.error_mu);
        if (!shared.error) shared.error = std::current_exception();
      }
      // Count down under done_mu: the caller's wait re-checks `pending`
      // under the same mutex, so it cannot see zero, return, and destroy
      // `shared` while this worker is still about to lock or notify it.
      const std::lock_guard<std::mutex> lock(shared.done_mu);
      if (shared.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        shared.done_cv.notify_one();
      }
    });
  }

  try {
    const RegionGuard region;
    OBS_SPAN_ARG("pool.chunk", chunk);
    OBS_GAUGE_ADD("pool.busy_workers", 1);
    fn(begin, std::min(end, begin + chunk));
    OBS_GAUGE_ADD("pool.busy_workers", -1);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(shared.error_mu);
    if (!shared.error) shared.error = std::current_exception();
  }

  {
    std::unique_lock<std::mutex> lock(shared.done_mu);
    shared.done_cv.wait(lock, [&shared] {
      return shared.pending.load(std::memory_order_acquire) == 0;
    });
  }
  if (shared.error) std::rethrow_exception(shared.error);
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_chunked(begin, end, [&fn](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  });
}

namespace {

std::unique_ptr<ThreadPool>& global_pool_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool& global_pool() {
  auto& slot = global_pool_slot();
  if (!slot) {
    slot = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(env_int("FEDCLUST_THREADS", 0)));
  }
  return *slot;
}

void reset_global_pool(std::size_t n_threads) {
  auto& slot = global_pool_slot();
  slot.reset();  // join the old workers before the replacement spins up
  slot = std::make_unique<ThreadPool>(n_threads);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  global_pool().parallel_for(begin, end, fn);
}

void parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  global_pool().parallel_for_chunked(begin, end, fn);
}

}  // namespace fedclust::util
