// Copyright 2026 TGCRN Reproduction Authors
// Training-health monitor: the second observability tier. Unlike the
// std-only first tier (json/metrics/trace/report), this header may depend
// on the tensor and autograd layers — it inspects live parameters,
// gradients, and activations. Nothing below obs/ includes it.
//
// Three jobs:
//
//  * Per-module statistics — HealthMonitor caches a module's named
//    parameters once (Attach) and, every epoch, produces a HealthReport
//    with rms/min/max/mean, NaN/Inf counts, and zero-fraction for every
//    parameter and gradient (obs/report.h structs, streamed through the
//    trainer's JSONL report).
//  * Activation taps — TGCRN_HEALTH_TAP(name, tensor) in model code
//    observes an intermediate tensor. Outside a sampling window the macro
//    costs one relaxed atomic load and a branch (the same contract as
//    TGCRN_TRACE_SCOPE); the trainer opens the window for the first batch
//    of each epoch.
//  * Non-finite sentinel — a non-finite gradient norm logs the first
//    offending module, the global step and its tensor stats, and counts
//    the step in non_finite_steps (tgcrn_report_diff gates on any
//    increase) instead of surfacing as a silently bad val_mae epochs
//    later.
//
// Statistic reductions use fixed-size chunking with a thread-count-
// independent combine order (the DeterministicChunkedSum contract), so
// collected stats are bitwise identical at any parallel width. With the
// monitor disabled the trainer's hot path performs no health work at all:
// the zero-alloc steady state pinned by autograd_arena_test is preserved.
#ifndef TGCRN_OBS_HEALTH_H_
#define TGCRN_OBS_HEALTH_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "obs/report.h"

namespace tgcrn {

namespace nn {
class Module;
}

namespace obs {

// Runtime knobs, defaulted from the environment by the trainer:
//   TGCRN_HEALTH=1  enable collection (stats every epoch); 0, 1 or unset
struct HealthOptions {
  bool enabled = false;

  static HealthOptions FromEnv();
};

// Summary statistics of a tensor's elements. mean/rms/min/max cover the
// finite elements; NaN/Inf are counted, not averaged. Deterministic at any
// thread count (fixed chunk boundaries, fixed combine order).
TensorStatsReport ComputeTensorStats(const Tensor& t);

// One-line human-readable rendering ("count=72 mean=0.01 ... nan=3") for
// sentinel abort messages and logs.
std::string DescribeTensorStats(const TensorStatsReport& stats);

class HealthMonitor {
 public:
  explicit HealthMonitor(const HealthOptions& options);
  ~HealthMonitor();
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  bool enabled() const { return options_.enabled; }

  // Caches the module's named parameters (one vector build, so per-step
  // sentinel scans allocate nothing). Call once before training.
  void Attach(const nn::Module& module);

  // Sentinel entry point: the trainer calls this when the global gradient
  // norm comes back non-finite (NaN propagates through the clip reduction,
  // so the check itself is free). Counts the step and logs the first
  // offending parameter with its module, step and stats.
  void HandleNonFiniteGradients(int64_t step);

  // Opens/closes the activation sampling window for TGCRN_HEALTH_TAP.
  // Only one monitor can sample at a time (process-global tap target).
  void BeginActivationSampling();
  void EndActivationSampling();

  // Records one observation of a tapped activation. `name` must be a
  // string literal (only the pointer is compared/stored).
  void Observe(const char* name, const Tensor& t);

  // Fills `out` with per-module parameter/gradient statistics and the
  // accumulated activation statistics, then resets the accumulators and
  // the non-finite step count (so each report covers one interval).
  void CollectInto(HealthReport* out);

  int64_t non_finite_steps() const { return non_finite_steps_; }

 private:
  struct ActivationAccum {
    int64_t samples = 0;
    TensorStatsReport merged;  // running merge across observations
  };

  HealthOptions options_;
  std::vector<std::pair<std::string, ag::Variable>> params_;
  std::mutex activation_mu_;
  std::map<std::string, ActivationAccum> activations_;
  int64_t non_finite_steps_ = 0;
  int64_t non_finite_logged_ = 0;
};

namespace internal {
// The monitor currently inside an activation-sampling window (nullptr
// almost always — the tap macro's fast path).
extern std::atomic<HealthMonitor*> g_sampling_monitor;
}  // namespace internal

// True while some monitor is sampling activations. One relaxed load.
inline bool HealthSamplingActive() {
  return internal::g_sampling_monitor.load(std::memory_order_relaxed) !=
         nullptr;
}

// Forwards to the sampling monitor, if any (cold path of the tap macro).
void ObserveActivation(const char* name, const Tensor& t);

}  // namespace obs
}  // namespace tgcrn

// Observes an intermediate tensor when a health monitor is sampling.
// `name` must be a string literal; `tensor` is evaluated only while a
// sampling window is open.
#define TGCRN_HEALTH_TAP(name, tensor)                   \
  do {                                                   \
    if (::tgcrn::obs::HealthSamplingActive()) {          \
      ::tgcrn::obs::ObserveActivation((name), (tensor)); \
    }                                                    \
  } while (false)

#endif  // TGCRN_OBS_HEALTH_H_
