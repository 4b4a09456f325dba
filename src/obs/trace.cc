// Copyright 2026 TGCRN Reproduction Authors
#include "obs/trace.h"

#include <chrono>
#include <string>

#include "obs/metrics.h"
#include "obs/prof.h"

namespace tgcrn {

namespace internal {

// Declared in common/check.h. Runs on the TGCRN_CHECK abort path (and
// from obs::FlushObservability on clean shutdowns), so keep it defensive:
// a reentrant failure (a check firing while flushing) must not recurse,
// and no sink being active must be a no-op.
void FlushObservabilityOnAbort() { obs::FlushObservability(); }

}  // namespace internal

namespace obs {

namespace internal {

int64_t TraceNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace internal

namespace {

// Fixed hook slots: registration is rare (one per telemetry sink) and the
// abort path must not allocate or take a lock it could already hold.
constexpr int kMaxFlushHooks = 4;
std::atomic<void (*)()> g_flush_hooks[kMaxFlushHooks] = {};

}  // namespace

void RegisterFlushHook(void (*hook)()) {
  if (hook == nullptr) return;
  for (auto& slot : g_flush_hooks) {
    void (*expected)() = nullptr;
    if (slot.load(std::memory_order_relaxed) == hook) return;
    if (slot.compare_exchange_strong(expected, hook)) return;
  }
}

void UnregisterFlushHook(void (*hook)()) {
  for (auto& slot : g_flush_hooks) {
    void (*expected)() = hook;
    slot.compare_exchange_strong(expected, nullptr);
  }
}

void FlushObservability() {
  static std::atomic<bool> flushing{false};
  if (flushing.exchange(true)) return;
  DumpProfileOnAbort();
  const std::string& dump = MetricsDumpTargetFromEnv();
  if (!dump.empty()) DumpMetricsRegistry(dump);
  for (auto& slot : g_flush_hooks) {
    void (*hook)() = slot.load(std::memory_order_relaxed);
    if (hook != nullptr) hook();
  }
  flushing.store(false);
}

}  // namespace obs
}  // namespace tgcrn
