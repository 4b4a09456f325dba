// Copyright 2026 TGCRN Reproduction Authors
// Kernel-level cost profiler: the third observability tier. Like the first
// tier (json/metrics/trace/report) it is std-only — it depends on nothing
// above obs/ — and it is the one consumer of scoped spans: every
// TGCRN_TRACE_SCOPE span folds into a per-thread attribution call tree
// (inclusive/exclusive wall clock, invocation counts), kernel entry points
// additionally report analytic flop/byte costs, and (when the kernel
// grants perf_event_open) a per-thread hardware counter group attributes
// cycles, instructions, and cache/branch misses to the same scopes.
// CollectProfReport() merges the per-thread trees into one obs::ProfReport
// — per-kernel GFLOP/s, arithmetic intensity, and IPC: a software roofline
// for the AVX2 vs scalar kernel tables.
//
// Cost contract (the TGCRN_TRACE_SCOPE / TGCRN_HEALTH_TAP contract):
//  * profiler off: one relaxed atomic load + branch per span and one per
//    RecordKernelCost site; no allocation — the zero-alloc steady state
//    is preserved and training losses are bitwise identical to a build
//    without the profiler.
//  * profiler on: a scope enter/exit touches only its thread's state (no
//    cross-thread locks on the hot path); node tables only grow, so after
//    the first epoch steady-state scopes allocate nothing.
//
// Invocation counts and flop/byte totals come from shape-only analytic
// models at the dispatch sites, so they are deterministic: identical at
// any thread count and for any ISA. Wall clock and hardware counters are
// measurements and vary run to run.
//
// Arming: TGCRN_PROF=1 (collect; report via CollectProfReport/trainer) or
// TGCRN_PROF=<path> (also write the profile JSON to <path> at process
// exit), or StartProfiling() programmatically. `tgcrn_prof stacks` renders
// collapsed flamegraph lines from that JSON.
// TGCRN_PROF_COUNTERS=0 skips the perf_event group (it is also skipped
// automatically where the syscall is denied, e.g. most containers).
#ifndef TGCRN_OBS_PROF_H_
#define TGCRN_OBS_PROF_H_

#include <cstdint>
#include <string>

#include "obs/report.h"

namespace tgcrn {
namespace obs {

// Runtime knobs, defaulted from the environment by the trainer:
//   TGCRN_PROF=1        enable collection
//   TGCRN_PROF=<path>   enable and write the profile file at process exit
//   TGCRN_PROF_COUNTERS=0  do not attempt perf_event counters
struct ProfOptions {
  bool enabled = false;
  bool counters = true;
  std::string path;  // empty: no file output

  static ProfOptions FromEnv();
};

// Arms the profiler: subsequent spans and kernel costs accumulate into the
// attribution trees. Accumulators are reset so the profile covers the
// interval from this call. Idempotent (a second call just resets).
void StartProfiling(const ProfOptions& options);

// True while the profiler is collecting. One relaxed load.
bool ProfilingEnabled();

// Disarms the profiler. Accumulated data stays readable via
// CollectProfReport() until the next StartProfiling().
void StopProfiling();

// Zeroes every accumulator (counts, times, flops, hardware counters)
// without disarming. Open scopes keep their stack positions, so this is
// safe to call between benchmark iterations.
void ResetProfile();

// Merges every thread's attribution tree into one cumulative report:
// nodes in preorder with parent indices, plus the per-kernel cost summary
// (nodes that recorded analytic costs). Thread-safe; callable while
// collection continues (frames still open contribute their completed
// children only).
ProfReport CollectProfReport();

// Writes the cumulative profile as JSON to `path`. Returns false (and
// logs to stderr) on I/O failure.
bool WriteProfileFile(const std::string& path);

// TGCRN_CHECK abort path (called from FlushObservabilityOnAbort): if the
// profiler was armed with a file path, write the profile file so an
// aborted run (any failed TGCRN_CHECK) leaves a cost snapshot behind.
// No-op when not armed or no path was configured.
void DumpProfileOnAbort();

// Attributes one kernel dispatch to the innermost open scope: analytic
// flop and logical byte-traffic counts from the kernel's shape. `kernel`
// must be a string literal naming the kernel's own scope (the innermost
// open scope at every call site); when the kernel's scope is not the
// innermost one, the cost lands on a child of the innermost scope named
// after the kernel, so the accounting is never dropped. One relaxed load
// + branch when the profiler is off.
void RecordKernelCost(const char* kernel, double flops, double bytes);

// Name of the innermost open profiler scope on the calling thread, or
// nullptr when none / profiler off. ParallelFor captures it so helper
// threads can attribute their chunk work to the kernel that spawned it.
const char* CurrentProfLeafName();

// RAII: attributes the calling pool worker's time to root -> "worker" ->
// `leaf` while alive. Constructed with the leaf name captured by
// CurrentProfLeafName() on the dispatching thread; nullptr is a no-op
// (profiler off at dispatch time, or dispatch from an unprofiled scope).
class WorkerAttributionScope {
 public:
  explicit WorkerAttributionScope(const char* leaf);
  ~WorkerAttributionScope();
  WorkerAttributionScope(const WorkerAttributionScope&) = delete;
  WorkerAttributionScope& operator=(const WorkerAttributionScope&) = delete;

 private:
  const char* leaf_ = nullptr;
  int64_t start_ns_ = 0;
};

// One reading of the calling thread's hardware counter group. Counters
// count continuously from the first sample on the thread, so rates come
// from before/after deltas. `available` is false (all values zero) when
// perf_event is denied or disabled — callers must handle that path.
struct PerfCounterSample {
  bool available = false;
  int64_t cycles = 0;
  int64_t instructions = 0;
  int64_t l1_misses = 0;
  int64_t llc_misses = 0;
  int64_t branch_misses = 0;
};

// Samples the calling thread's counter group, opening it on first use.
// Usable without StartProfiling (the benches read IPC directly).
PerfCounterSample SampleThreadPerfCounters();

// True when perf_event counters opened successfully on this process (the
// probe runs on the first group open attempt and the result sticks).
bool PerfCountersAvailable();

// Test hook: force the perf_event path to report unavailable (as in a
// container denying the syscall) without touching the kernel. Call before
// the first counter use; pass false to re-probe on next use.
void SetPerfForceUnavailableForTesting(bool unavailable);

}  // namespace obs
}  // namespace tgcrn

#endif  // TGCRN_OBS_PROF_H_
