// Copyright 2026 TGCRN Reproduction Authors
#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "obs/prof.h"

namespace tgcrn {
namespace common {
namespace {

// Pool bookkeeping (see GetPoolStats). Plain relaxed atomics rather than
// obs counters so the header-visible stats need no registry lookup.
std::atomic<int64_t> g_parallel_for_calls{0};
std::atomic<int64_t> g_serial_runs{0};
std::atomic<int64_t> g_chunks_executed{0};
std::atomic<int64_t> g_pool_tasks_executed{0};

// Set while the current thread executes a ParallelFor chunk; nested
// parallel calls observe it and run serially instead of re-entering the
// pool (which would deadlock a worker waiting on its own queue).
thread_local bool tls_in_parallel_region = false;

struct ScopedRegionFlag {
  ScopedRegionFlag() { tls_in_parallel_region = true; }
  ~ScopedRegionFlag() { tls_in_parallel_region = false; }
};

// One ParallelFor invocation. Chunks are claimed by atomically incrementing
// `next`; whoever finishes the last chunk wakes the waiting caller. There
// is deliberately no early cancellation on exception: remaining chunks
// still run so completion accounting stays trivial and the pool can never
// deadlock; only the first exception is kept.
struct Job {
  std::function<void(int64_t)> chunk_fn;
  int64_t num_chunks = 0;
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> done{0};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr exception;
  // Innermost profiler scope open on the dispatching thread (nullptr when
  // the profiler is off): helpers attribute their chunk time to it.
  const char* prof_attr = nullptr;
};

void WorkOnJob(const std::shared_ptr<Job>& job, bool helper) {
  // The caller thread already sits inside the kernel's own profiler
  // scope; helpers attribute their chunks through WorkerAttributionScope
  // (root -> "worker" -> kernel).
  obs::WorkerAttributionScope attribution(helper ? job->prof_attr : nullptr);
  while (true) {
    const int64_t c = job->next.fetch_add(1);
    if (c >= job->num_chunks) break;
    g_chunks_executed.fetch_add(1, std::memory_order_relaxed);
    {
      ScopedRegionFlag in_region;
      try {
        job->chunk_fn(c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job->mu);
        if (!job->exception) job->exception = std::current_exception();
      }
    }
    if (job->done.fetch_add(1) + 1 == job->num_chunks) {
      // Lock pairs with the caller's predicate check so the final
      // increment cannot slip between its check and its wait.
      std::lock_guard<std::mutex> lock(job->mu);
      job->cv.notify_all();
    }
  }
}

// Fixed-size pool. Workers pull type-erased tasks from a FIFO queue; a
// ParallelFor enqueues one claim-loop task per helper worker, so stale
// tasks that run after the job finished exit immediately via the atomic
// chunk counter.
class ThreadPool {
 public:
  static ThreadPool& Global() {
    static ThreadPool pool(DefaultNumThreads());
    return pool;
  }

  ~ThreadPool() { StopWorkers(); }

  int num_threads() const { return num_threads_.load(); }

  void Resize(int total_threads) {
    if (total_threads <= 0) total_threads = DefaultNumThreads();
    std::lock_guard<std::mutex> resize_lock(resize_mu_);
    if (total_threads == num_threads_.load()) return;
    StopWorkers();
    StartWorkers(total_threads);
  }

  void Enqueue(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      tasks_.push_back(std::move(task));
    }
    queue_cv_.notify_one();
  }

 private:
  explicit ThreadPool(int total_threads) { StartWorkers(total_threads); }

  static int DefaultNumThreads() {
    const int parsed = EnvIntOrDie<int>(
        "TGCRN_NUM_THREADS", std::getenv("TGCRN_NUM_THREADS"), 0);
    if (parsed > 0) return parsed;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }

  void StartWorkers(int total_threads) {
    TGCRN_CHECK_GE(total_threads, 1);
    stop_ = false;
    num_threads_.store(total_threads);
    for (int i = 0; i < total_threads - 1; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void StopWorkers() {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      stop_ = true;
    }
    queue_cv_.notify_all();
    for (auto& w : workers_) w.join();
    workers_.clear();
    std::lock_guard<std::mutex> lock(queue_mu_);
    tasks_.clear();
  }

  void WorkerLoop() {
    while (true) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(queue_mu_);
        queue_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
        if (stop_) return;
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
      task();
      g_pool_tasks_executed.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::mutex resize_mu_;
  std::atomic<int> num_threads_{1};
  std::vector<std::thread> workers_;
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
};

}  // namespace

int GetNumThreads() { return ThreadPool::Global().num_threads(); }

void SetNumThreads(int n) { ThreadPool::Global().Resize(n); }

bool InParallelRegion() { return tls_in_parallel_region; }

PoolStats GetPoolStats() {
  PoolStats stats;
  stats.num_threads = GetNumThreads();
  stats.parallel_for_calls =
      g_parallel_for_calls.load(std::memory_order_relaxed);
  stats.serial_runs = g_serial_runs.load(std::memory_order_relaxed);
  stats.chunks_executed = g_chunks_executed.load(std::memory_order_relaxed);
  stats.pool_tasks_executed =
      g_pool_tasks_executed.load(std::memory_order_relaxed);
  return stats;
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  g_parallel_for_calls.fetch_add(1, std::memory_order_relaxed);
  ThreadPool& pool = ThreadPool::Global();
  const int threads = pool.num_threads();
  if (threads <= 1 || n <= grain || tls_in_parallel_region) {
    g_serial_runs.fetch_add(1, std::memory_order_relaxed);
    fn(begin, end);
    return;
  }
  // At least `grain` per chunk, and ~4 chunks per thread so stragglers
  // balance out without work stealing. Chunk boundaries only affect which
  // thread computes which outputs, never the outputs themselves.
  const int64_t target_chunks = static_cast<int64_t>(threads) * 4;
  const int64_t chunk =
      std::max(grain, (n + target_chunks - 1) / target_chunks);
  const int64_t num_chunks = (n + chunk - 1) / chunk;
  if (num_chunks <= 1) {
    g_serial_runs.fetch_add(1, std::memory_order_relaxed);
    fn(begin, end);
    return;
  }

  auto job = std::make_shared<Job>();
  job->num_chunks = num_chunks;
  job->chunk_fn = [&fn, begin, end, chunk](int64_t c) {
    const int64_t s = begin + c * chunk;
    fn(s, std::min(end, s + chunk));
  };
  job->prof_attr = obs::CurrentProfLeafName();
  const int64_t helpers =
      std::min<int64_t>(threads - 1, num_chunks - 1);
  for (int64_t i = 0; i < helpers; ++i) {
    pool.Enqueue([job] { WorkOnJob(job, /*helper=*/true); });
  }
  WorkOnJob(job, /*helper=*/false);  // the caller participates
  {
    std::unique_lock<std::mutex> lock(job->mu);
    job->cv.wait(lock,
                 [&job] { return job->done.load() == job->num_chunks; });
  }
  if (job->exception) std::rethrow_exception(job->exception);
}

double DeterministicChunkedSum(
    int64_t n, int64_t grain,
    const std::function<double(int64_t, int64_t)>& chunk_sum) {
  if (n <= 0) return 0.0;
  if (grain < 1) grain = 1;
  const int64_t num_chunks = (n + grain - 1) / grain;
  if (num_chunks == 1) return chunk_sum(0, n);
  std::vector<double> partials(num_chunks);
  ParallelFor(0, num_chunks, 1, [&](int64_t cb, int64_t ce) {
    for (int64_t c = cb; c < ce; ++c) {
      partials[c] = chunk_sum(c * grain, std::min(n, (c + 1) * grain));
    }
  });
  // Fixed pairwise tree: partials[i] += partials[i + stride] for doubling
  // strides. The combine pattern depends only on num_chunks.
  for (int64_t stride = 1; stride < num_chunks; stride *= 2) {
    for (int64_t i = 0; i + stride < num_chunks; i += 2 * stride) {
      partials[i] += partials[i + stride];
    }
  }
  return partials[0];
}

}  // namespace common
}  // namespace tgcrn
