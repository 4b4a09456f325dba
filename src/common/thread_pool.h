// Copyright 2026 TGCRN Reproduction Authors
// A fork-join thread pool and the two parallel primitives every hot kernel
// in the repository is built on:
//
//  * ParallelFor(begin, end, grain, fn) — splits [begin, end) into disjoint
//    contiguous subranges and runs fn(sub_begin, sub_end) on the pool, with
//    the calling thread participating. Used for kernels whose outputs are
//    element-independent (elementwise ops, matmul rows, softmax rows):
//    chunk boundaries cannot change any output value, so results are
//    bitwise identical at every thread count.
//  * DeterministicChunkedSum(n, grain, chunk_sum) — a reduction whose
//    float semantics are fixed by construction: [0, n) is cut into
//    ceil(n/grain) chunks (a function of n and grain only, never of the
//    thread count), per-chunk partials are computed in parallel, and the
//    partials are combined by a fixed pairwise tree. The same bits come
//    out at 1, 2 or 64 threads.
//
// Thread count: defaults to TGCRN_NUM_THREADS if set, else
// std::thread::hardware_concurrency(). SetNumThreads(1) gives exact legacy
// single-threaded execution (no pool threads touch any data). Nested
// ParallelFor calls (a parallel region entered from inside a chunk), and
// calls from a second thread while another thread's region is in flight,
// run serially on the calling thread instead of waiting.
#ifndef TGCRN_COMMON_THREAD_POOL_H_
#define TGCRN_COMMON_THREAD_POOL_H_

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

namespace tgcrn {
namespace common {

// Non-owning reference to a callable, so that passing a lambda allocates
// nothing: a parameter type for synchronous calls, never stored.
template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F, typename = std::enable_if_t<!std::is_same_v<
                            std::remove_cvref_t<F>, FunctionRef>>>
  FunctionRef(F&& f)  // implicit, so call sites pass lambdas unchanged
      : callable_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* callable, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(callable))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(callable_, std::forward<Args>(args)...);
  }

 private:
  void* callable_;
  R (*call_)(void*, Args...);
};

// Total number of threads participating in parallel regions, including the
// calling thread. Always >= 1.
int GetNumThreads();

// Sets the parallel width. n <= 0 restores the default (TGCRN_NUM_THREADS
// env var if set, else hardware concurrency). Only stores the width: pool
// threads start on demand up to the largest width a region has used, and
// the ones beyond the current width stay parked.
void SetNumThreads(int n);

// RAII guard for tests: sets the thread count and restores the previous
// value on destruction.
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(int n) : previous_(GetNumThreads()) {
    SetNumThreads(n);
  }
  ~ScopedNumThreads() { SetNumThreads(previous_); }
  ScopedNumThreads(const ScopedNumThreads&) = delete;
  ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;

 private:
  int previous_;
};

// Runs fn over disjoint contiguous subranges covering [begin, end). `grain`
// is the minimum subrange length (>= 1); ranges shorter than `grain`, a
// thread count of 1, calls from inside a parallel region and calls made
// while another thread's region is in flight all run fn(begin, end)
// serially on the calling thread. The first exception thrown by any chunk
// is rethrown on the calling thread after all chunks finish.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 FunctionRef<void(int64_t, int64_t)> fn);

// Deterministic parallel reduction over [0, n): chunk_sum(c_begin, c_end)
// returns the partial for one fixed chunk of at most `grain` elements;
// partials are combined by a fixed pairwise tree. The chunking and the
// combine order depend only on n and grain, so the result is bitwise
// identical regardless of the thread count (including 1). Up to 64 chunks
// it allocates nothing.
double DeterministicChunkedSum(int64_t n, int64_t grain,
                               FunctionRef<double(int64_t, int64_t)> chunk_sum);

// True while the calling thread is executing inside a ParallelFor chunk
// (used by kernels that must pick the serial path when nested).
bool InParallelRegion();

// Monotonic pool bookkeeping since process start, for the observability
// layer and tests. All fields are gathered from relaxed atomics: totals are
// exact once the pool is quiescent, approximate while work is in flight.
struct PoolStats {
  int num_threads = 1;             // current parallel width (incl. caller)
  int64_t parallel_for_calls = 0;  // total ParallelFor invocations
  // Invocations that ran as a single serial call on the calling thread
  // (width 1, range <= grain, nested inside a parallel region, or issued
  // while another thread's region was in flight).
  int64_t serial_runs = 0;
  // Chunks claimed and executed across all parallel regions. The pool has
  // no work stealing, so this is also the steal-free claim count.
  int64_t chunks_executed = 0;
};
PoolStats GetPoolStats();

}  // namespace common
}  // namespace tgcrn

#endif  // TGCRN_COMMON_THREAD_POOL_H_
