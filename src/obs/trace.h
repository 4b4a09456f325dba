// Copyright 2026 TGCRN Reproduction Authors
// Scoped-span tracer emitting Chrome trace_event JSON ("X" complete
// events), loadable in chrome://tracing or https://ui.perfetto.dev.
//
//   TGCRN_TRACE_SCOPE("tensor.Matmul");   // RAII span over this scope
//
// Runtime control: spans record only while tracing is enabled — via the
// TGCRN_TRACE=<path> environment variable (auto-starts at process init and
// flushes at exit) or StartTracing()/StopTracingAndWrite(). While disabled
// the macro costs one relaxed atomic load and a branch.
//
// Storage: each thread appends to its own fixed-capacity ring buffer (no
// locks between threads on the hot path; a per-thread mutex serializes a
// writer with the final merge). When a ring wraps, the oldest events are
// overwritten and counted — a trace of a long run keeps its tail.
//
// Span names must be string literals (or otherwise outlive the tracer):
// only the pointer is stored.
#ifndef TGCRN_OBS_TRACE_H_
#define TGCRN_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace tgcrn {
namespace obs {

namespace internal {
// Which scope consumers are live: bit 0 the tracer, bit 1 the profiler
// (obs/prof.h). A single combined mask keeps the off-path cost of a span
// at one relaxed load + branch even with two consumers.
inline constexpr uint32_t kScopeTraceBit = 1u;
inline constexpr uint32_t kScopeProfBit = 2u;
extern std::atomic<uint32_t> g_scope_mask;
// Monotonic nanoseconds (steady clock).
int64_t TraceNowNs();
// Appends one complete span to the calling thread's ring buffer.
void RecordSpan(const char* name, int64_t start_ns, int64_t dur_ns);
// Profiler hooks (defined in obs/prof.cc): push/pop one frame of the
// calling thread's attribution stack.
void ProfEnterScope(const char* name);
void ProfExitScope(int64_t dur_ns);
}  // namespace internal

// True while spans are being recorded by the tracer. One relaxed load.
inline bool TracingEnabled() {
  return (internal::g_scope_mask.load(std::memory_order_relaxed) &
          internal::kScopeTraceBit) != 0;
}

// Clears any previously recorded events and starts recording. The trace is
// written to `path` by StopTracingAndWrite (or automatically at process
// exit). Calling while already tracing just switches the output path.
void StartTracing(const std::string& path);

// Stops recording, merges every thread's ring buffer, and writes the
// Chrome trace JSON. Returns false (and logs to stderr) if the file cannot
// be written or tracing was never started. Safe to call twice (the second
// call is a no-op returning false).
bool StopTracingAndWrite();

// Registers a hook that runs after the built-in flushes (trace, profile,
// metrics dump) whenever observability is flushed — from the TGCRN_CHECK
// abort path and from FlushObservability(). Higher tiers use this to
// leave their own telemetry behind (the serve access log registers one).
// Hooks must be idempotent and safe to run from the abort path. A few
// fixed slots; registering beyond them is ignored.
void RegisterFlushHook(void (*hook)());
void UnregisterFlushHook(void (*hook)());

// Clean-shutdown entry to the same flush path the abort handler uses:
// stop-and-write an armed trace, dump an armed profile, dump the metric
// registry if TGCRN_METRICS_DUMP is set, then run registered hooks.
// Reentrancy-guarded; safe to call multiple times.
void FlushObservability();

// Events currently buffered across all threads, and events lost to ring
// wrap-around — exposed for tests and overhead accounting.
int64_t BufferedTraceEventCount();
int64_t DroppedTraceEventCount();

// RAII span: stamps the start on construction, records on destruction to
// every consumer whose bit was set at construction (captured in `mask_`,
// so a Stop racing the span cannot unbalance the profiler's stack).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : ScopedSpan(name, ~0u) {}
  // `mask_filter` restricts which consumers see the span; used by the
  // thread pool to keep its worker span out of the attribution tree.
  ScopedSpan(const char* name, uint32_t mask_filter) {
    const uint32_t mask =
        internal::g_scope_mask.load(std::memory_order_relaxed) & mask_filter;
    if (mask != 0) {
      mask_ = mask;
      name_ = name;
      if (mask & internal::kScopeProfBit) internal::ProfEnterScope(name);
      start_ns_ = internal::TraceNowNs();
    }
  }
  ~ScopedSpan() {
    if (name_ != nullptr) {
      const int64_t dur_ns = internal::TraceNowNs() - start_ns_;
      if (mask_ & internal::kScopeTraceBit) {
        internal::RecordSpan(name_, start_ns_, dur_ns);
      }
      if (mask_ & internal::kScopeProfBit) internal::ProfExitScope(dur_ns);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  uint32_t mask_ = 0;
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
