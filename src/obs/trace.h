// Copyright 2026 TGCRN Reproduction Authors
// Scoped spans for the kernel-cost profiler (obs/prof.h), plus the
// process-wide observability flush.
//
//   TGCRN_TRACE_SCOPE("tensor.Matmul");   // RAII span over this scope
//
// A span folds into the profiler's per-thread attribution tree while the
// profiler is armed (TGCRN_PROF, `train_model --prof`, StartProfiling).
// While it is not, the macro costs one relaxed atomic load and a branch.
//
// Span names must be string literals (or otherwise outlive the profiler):
// only the pointer is stored.
#ifndef TGCRN_OBS_TRACE_H_
#define TGCRN_OBS_TRACE_H_

#include <atomic>
#include <cstdint>

namespace tgcrn {
namespace obs {

namespace internal {
// True while the profiler is collecting (defined in obs/prof.cc).
extern std::atomic<bool> g_prof_armed;
// Monotonic nanoseconds (steady clock).
int64_t TraceNowNs();
// Profiler hooks (defined in obs/prof.cc): push/pop one frame of the
// calling thread's attribution stack.
void ProfEnterScope(const char* name);
void ProfExitScope(int64_t dur_ns);
}  // namespace internal

// Registers a hook that runs after the built-in flushes (profile, metrics
// dump) whenever observability is flushed — from the TGCRN_CHECK abort
// path and from FlushObservability(). Higher tiers use this to leave
// their own telemetry behind (the serve access log registers one). Hooks
// must be idempotent and safe to run from the abort path. A few fixed
// slots; registering beyond them is ignored.
void RegisterFlushHook(void (*hook)());
void UnregisterFlushHook(void (*hook)());

// Clean-shutdown entry to the same flush path the abort handler uses:
// dump an armed profile, dump the metric registry if TGCRN_METRICS_DUMP
// is set, then run registered hooks. Reentrancy-guarded; safe to call
// multiple times.
void FlushObservability();

// RAII span: stamps the start on construction and reports the duration
// on destruction if the profiler was armed at construction (so a Stop
// racing the span cannot unbalance the profiler's stack).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (internal::g_prof_armed.load(std::memory_order_relaxed)) {
      name_ = name;
      internal::ProfEnterScope(name);
      start_ns_ = internal::TraceNowNs();
    }
  }
  ~ScopedSpan() {
    if (name_ != nullptr) {
      internal::ProfExitScope(internal::TraceNowNs() - start_ns_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  int64_t start_ns_ = 0;
};

}  // namespace obs
}  // namespace tgcrn

#define TGCRN_TRACE_SCOPE_CONCAT2(a, b) a##b
#define TGCRN_TRACE_SCOPE_CONCAT(a, b) TGCRN_TRACE_SCOPE_CONCAT2(a, b)
#define TGCRN_TRACE_SCOPE(name)                 \
  ::tgcrn::obs::ScopedSpan TGCRN_TRACE_SCOPE_CONCAT(tgcrn_trace_span_, \
                                                    __LINE__)(name)

#endif  // TGCRN_OBS_TRACE_H_
