// Copyright 2026 TGCRN Reproduction Authors
// Fork-join pool: the dispatching thread fills the one region descriptor,
// offers helper slots, bumps a 32-bit generation counter and wakes the
// parked workers (std::atomic wait/notify, a futex on Linux). Workers that
// claim a slot pull chunks from the region's cursor alongside the caller,
// which then revokes the unclaimed slots and waits only for the claimers.
#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

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

// Set while the current thread executes a ParallelFor chunk; nested
// parallel calls observe it and run serially.
thread_local bool tls_in_parallel_region = false;

int DefaultNumThreads() {
  const int parsed = EnvIntOrDie<int>(
      "TGCRN_NUM_THREADS", std::getenv("TGCRN_NUM_THREADS"), 0);
  if (parsed > 0) return parsed;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

// The region in flight. Its plain fields are written by the thread holding
// the dispatch lock while no helper holds a slot, and reach helpers through
// the release store of `slots`. Every chunk runs even after an exception;
// only the first exception is kept.
struct Region {
  const FunctionRef<void(int64_t, int64_t)>* fn = nullptr;
  int64_t begin = 0;
  int64_t end = 0;
  int64_t chunk = 0;
  int64_t num_chunks = 0;
  // Innermost profiler scope open on the dispatching thread (nullptr when
  // the profiler is off): helpers attribute their chunk time to it.
  const char* prof_attr = nullptr;
  std::atomic<int64_t> next{0};  // chunk cursor
  std::atomic<int> slots{0};     // helper slots not yet claimed
  std::atomic<int> finished{0};  // claimed helpers that are done
  std::atomic<bool> failed{false};
  std::exception_ptr exception;

  void RunChunks() {
    while (true) {
      const int64_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      g_chunks_executed.fetch_add(1, std::memory_order_relaxed);
      const int64_t s = begin + c * chunk;
      tls_in_parallel_region = true;
      try {
        (*fn)(s, std::min(end, s + chunk));
      } catch (...) {
        if (!failed.exchange(true)) exception = std::current_exception();
      }
      tls_in_parallel_region = false;
    }
  }
};

class ThreadPool {
 public:
  static ThreadPool& Global() {
    static ThreadPool pool;
    return pool;
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    stop_.store(true);
    generation_.fetch_add(1);
    generation_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  int width() const { return width_.load(std::memory_order_relaxed); }
  void set_width(int n) {
    width_.store(n > 0 ? n : DefaultNumThreads(), std::memory_order_relaxed);
  }

  // Runs fn over [begin, end) in chunks on the caller and up to
  // threads - 1 workers. Returns false without running anything when the
  // range is one chunk, or while another thread's region is in flight (a
  // guard: no caller in the repository dispatches from two threads at
  // once); the caller then runs the range serially instead of waiting.
  bool TryRun(int64_t begin, int64_t end, int64_t grain, int threads,
              const FunctionRef<void(int64_t, int64_t)>& fn) {
    // At least `grain` per chunk, and ~4 chunks per thread so stragglers
    // balance out without work stealing. Chunk boundaries only affect
    // which thread computes which outputs, never the outputs themselves.
    const int64_t n = end - begin;
    const int64_t target_chunks = int64_t{threads} * 4;
    const int64_t chunk =
        std::max(grain, (n + target_chunks - 1) / target_chunks);
    const int64_t num_chunks = (n + chunk - 1) / chunk;
    if (num_chunks <= 1) return false;
    std::unique_lock<std::mutex> lock(dispatch_mu_, std::try_to_lock);
    if (!lock.owns_lock()) return false;
    const int helpers =
        static_cast<int>(std::min<int64_t>(threads - 1, num_chunks - 1));
    while (static_cast<int>(workers_.size()) < threads - 1) {
      const int index = static_cast<int>(workers_.size());
      const uint32_t seen = generation_.load(std::memory_order_relaxed);
      workers_.emplace_back([this, index, seen] { WorkerLoop(index, seen); });
    }
    Region& r = region_;
    r.fn = &fn;
    r.begin = begin;
    r.end = end;
    r.chunk = chunk;
    r.num_chunks = num_chunks;
    r.prof_attr = obs::CurrentProfLeafName();
    r.next.store(0, std::memory_order_relaxed);
    r.finished.store(0, std::memory_order_relaxed);
    r.failed.store(false, std::memory_order_relaxed);
    r.exception = nullptr;
    r.slots.store(helpers, std::memory_order_release);
    generation_.fetch_add(1);
    generation_.notify_all();

    r.RunChunks();  // inside the kernel's own profiler scope already
    // Every chunk is claimed now: take the unclaimed slots back and wait
    // only for the helpers still finishing their last chunk.
    const int claimed =
        helpers - r.slots.exchange(0, std::memory_order_relaxed);
    int done = r.finished.load(std::memory_order_acquire);
    while (done != claimed) {
      r.finished.wait(done, std::memory_order_acquire);
      done = r.finished.load(std::memory_order_acquire);
    }
    if (r.exception) std::rethrow_exception(r.exception);
    return true;
  }

 private:
  ThreadPool() : width_(DefaultNumThreads()) {}

  // Parks on the generation counter. Workers at or beyond the current
  // width take no slot. A successful claim reads the release store of
  // `slots` (or a later claim), so the region's fields are visible.
  void WorkerLoop(int index, uint32_t seen) {
    while (true) {
      generation_.wait(seen, std::memory_order_acquire);
      seen = generation_.load(std::memory_order_acquire);
      if (stop_.load()) return;
      int slots = index < width() - 1 ? region_.slots.load() : 0;
      while (slots > 0 && !region_.slots.compare_exchange_weak(
                              slots, slots - 1, std::memory_order_acquire)) {
      }
      if (slots <= 0) continue;
      {
        obs::WorkerAttributionScope attribution(region_.prof_attr);
        region_.RunChunks();
      }
      region_.finished.fetch_add(1);
      region_.finished.notify_one();
    }
  }

  std::atomic<int> width_;
  std::atomic<bool> stop_{false};
  std::atomic<uint32_t> generation_{0};
  // One region at a time: guards the region's plain fields and the
  // workers, which grow on demand and are declared last so that the
  // members they use outlive them.
  std::mutex dispatch_mu_;
  Region region_;
  std::vector<std::thread> workers_;
};

}  // namespace

int GetNumThreads() { return ThreadPool::Global().width(); }

void SetNumThreads(int n) { ThreadPool::Global().set_width(n); }

bool InParallelRegion() { return tls_in_parallel_region; }

PoolStats GetPoolStats() {
  PoolStats stats;
  stats.num_threads = GetNumThreads();
  stats.parallel_for_calls =
      g_parallel_for_calls.load(std::memory_order_relaxed);
  stats.serial_runs = g_serial_runs.load(std::memory_order_relaxed);
  stats.chunks_executed = g_chunks_executed.load(std::memory_order_relaxed);
  return stats;
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 FunctionRef<void(int64_t, int64_t)> fn) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  g_parallel_for_calls.fetch_add(1, std::memory_order_relaxed);
  ThreadPool& pool = ThreadPool::Global();
  const int threads = pool.width();
  if (threads > 1 && n > grain && !tls_in_parallel_region &&
      pool.TryRun(begin, end, grain, threads, fn)) {
    return;
  }
  g_serial_runs.fetch_add(1, std::memory_order_relaxed);
  fn(begin, end);
}

double DeterministicChunkedSum(
    int64_t n, int64_t grain, FunctionRef<double(int64_t, int64_t)> chunk_sum) {
  if (n <= 0) return 0.0;
  if (grain < 1) grain = 1;
  const int64_t num_chunks = (n + grain - 1) / grain;
  if (num_chunks == 1) return chunk_sum(0, n);
  // Partials live on the stack up to kStackPartials chunks, so the common
  // reduction allocates nothing.
  constexpr int64_t kStackPartials = 64;
  double stack_partials[kStackPartials];
  std::vector<double> heap_partials;
  double* partials = stack_partials;
  if (num_chunks > kStackPartials) {
    heap_partials.resize(num_chunks);
    partials = heap_partials.data();
  }
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
