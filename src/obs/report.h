// Copyright 2026 TGCRN Reproduction Authors
// Structured training-run reports. The trainer records one EpochReport per
// epoch (losses, learning rate, gradient norm, wall-clock phase breakdown)
// and a final summary (per-horizon test metrics, totals). Serialization is
// JSONL: one self-describing object per line —
//
//   {"type":"epoch","epoch":0,"train_loss":...,"val_mae":...,"lr":...,
//    "grad_norm_mean":...,"grad_norm_last":...,"seconds":...,
//    "phase_seconds":{"forward":...,"backward":...,...}}
//   ...
//   {"type":"summary","model":...,"epochs_run":...,"test_average":{...},
//    "test_per_horizon":[...],"phase_seconds_total":{...},...}
//
// so a run can be tailed while training and parsed line-by-line afterwards
// (`python3 -m json.tool` validates each line). FromJsonl() parses the
// format back for tests and tooling.
//
// This header depends only on obs/json.h and std, so any layer can emit
// reports without cycles.
#ifndef TGCRN_OBS_REPORT_H_
#define TGCRN_OBS_REPORT_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace tgcrn {
namespace obs {

class Json;

// Canonical phase keys the trainer emits; other producers may add keys.
// "data": batch assembly, "forward"/"backward": network passes,
// "clip": gradient-norm clipping, "adam": optimizer step,
// "eval": validation/test evaluation.
inline const char* const kPhaseData = "data";
inline const char* const kPhaseForward = "forward";
inline const char* const kPhaseBackward = "backward";
inline const char* const kPhaseClip = "clip";
inline const char* const kPhaseAdam = "adam";
inline const char* const kPhaseEval = "eval";
// Health-stat collection (only present with TGCRN_HEALTH).
inline const char* const kPhaseHealth = "health";
// Profiler snapshot collection (only present with TGCRN_PROF).
inline const char* const kPhaseProf = "prof";

// Summary statistics of one tensor (a parameter, gradient, or activation).
// mean/rms/min/max cover the finite elements only, so they stay readable
// when a handful of elements blow up; nan_count/inf_count carry the blowup.
struct TensorStatsReport {
  int64_t count = 0;  // total elements
  double mean = 0.0;
  double rms = 0.0;
  double min = 0.0;
  double max = 0.0;
  int64_t nan_count = 0;
  int64_t inf_count = 0;
  double zero_fraction = 0.0;  // exact zeros / count

  bool HasNonFinite() const { return nan_count > 0 || inf_count > 0; }

  Json ToJson() const;
  static TensorStatsReport FromJson(const Json& json);
};

// Health of one named parameter: the value tensor and (when a backward
// pass has run) its gradient. `grad.count == 0` means "no gradient".
struct ModuleHealthReport {
  std::string name;  // hierarchical dotted name from nn::Module
  TensorStatsReport param;
  TensorStatsReport grad;

  Json ToJson() const;
  static ModuleHealthReport FromJson(const Json& json);
};

// Accumulated statistics of one tapped activation over `samples`
// observations inside the sampling window.
struct ActivationHealthReport {
  std::string name;
  int64_t samples = 0;
  TensorStatsReport stats;

  Json ToJson() const;
  static ActivationHealthReport FromJson(const Json& json);
};

// Diagnostics of the learned time-aware graph (TagSL), per epoch:
// whether the row-stochastic adjacency is collapsing to uniform
// (entropy -> 1) or to a delta (entropy -> 0), how much mass sits on
// strong edges, how much the graph moves between adjacent time slots,
// and how stable each node's top-k neighborhood is across epochs.
struct GraphHealthReport {
  double row_entropy = 0.0;     // mean row entropy, normalized to [0, 1]
  double sparsity = 0.0;        // fraction of total mass on entries >= threshold
  double temporal_drift = 0.0;  // mean |A^t - A^{t-1}| over entries
  // Mean top-k neighbor overlap with the previous collection; NaN until a
  // previous epoch exists (serialized as null).
  double topk_stability = std::numeric_limits<double>::quiet_NaN();
  int64_t topk = 0;

  Json ToJson() const;
  static GraphHealthReport FromJson(const Json& json);
};

// One epoch's model-health block (obs/health.h produces it).
struct HealthReport {
  int64_t non_finite_steps = 0;  // steps with a non-finite gradient norm
  std::vector<ModuleHealthReport> modules;
  std::vector<ActivationHealthReport> activations;
  bool has_graph = false;
  GraphHealthReport graph;

  Json ToJson() const;
  static HealthReport FromJson(const Json& json);
};

// One kernel entry point's aggregated cost over a profiling interval
// (obs/prof.h produces it). `exclusive_seconds` is caller-thread time spent
// inside the kernel scope minus nested scopes; `worker_seconds` is the
// additional pool-helper time attributed to this kernel through
// ParallelFor. `invocations`/`flops`/`bytes` come from the analytic cost
// models at the dispatch site, so they are deterministic — identical at any
// thread count and for any ISA. Hardware counters are zero when perf_event
// was unavailable.
struct ProfKernelReport {
  std::string name;
  int64_t invocations = 0;
  double exclusive_seconds = 0.0;
  double worker_seconds = 0.0;
  double flops = 0.0;
  double bytes = 0.0;
  int64_t instructions = 0;
  int64_t cycles = 0;
  int64_t l1_misses = 0;
  int64_t llc_misses = 0;
  int64_t branch_misses = 0;

  // Derived roofline quantities (serialized for readers, recomputed from
  // state on parse). GFlops uses caller-exclusive time: helper seconds
  // overlap the caller's wall clock, so adding them would undercount rate.
  double GFlops() const {
    return exclusive_seconds > 0.0 ? flops / exclusive_seconds / 1e9 : 0.0;
  }
  double ArithmeticIntensity() const {
    return bytes > 0.0 ? flops / bytes : 0.0;
  }
  double Ipc() const {
    return cycles > 0 ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
  }

  Json ToJson() const;
  static ProfKernelReport FromJson(const Json& json);
};

// One node of the aggregated attribution call tree. Nodes are stored in
// preorder; `parent` indexes into the same vector (-1 for the root). The
// path from the root is the node's identity when two profiles are
// subtracted or merged.
struct ProfNodeReport {
  std::string name;
  int64_t parent = -1;
  int64_t count = 0;
  double inclusive_seconds = 0.0;
  double exclusive_seconds = 0.0;
  double flops = 0.0;
  int64_t instructions = 0;
  int64_t cycles = 0;

  Json ToJson() const;
  static ProfNodeReport FromJson(const Json& json);
};

// One profiling interval: the attribution tree plus the per-kernel cost
// summary. Produced by obs::CollectProfReport(); the trainer embeds the
// per-epoch delta as a "prof" object in epoch JSONL lines.
struct ProfReport {
  bool counters_available = false;  // perf_event group opened successfully
  std::string isa;                  // resolved SIMD ISA ("scalar"/"avx2")
  int64_t threads = 0;              // pool width during the interval
  std::vector<ProfNodeReport> nodes;      // preorder, parent-indexed
  std::vector<ProfKernelReport> kernels;  // sorted by name

  Json ToJson() const;
  static ProfReport FromJson(const Json& json);

  // Collapsed-stack lines ("root;a;b <exclusive-ns>\n"), consumable by
  // standard flamegraph tooling. Zero-time frames are kept when they carry
  // invocation counts so the structure stays visible.
  std::string ToCollapsed() const;

  // this - prev, matching nodes by root path and kernels by name (entries
  // missing from `prev` subtract zero). Cumulative snapshots only grow, so
  // per-epoch deltas are exact.
  ProfReport DeltaFrom(const ProfReport& prev) const;

  // this += other, same matching rules; inserts paths `this` lacks.
  void Accumulate(const ProfReport& other);
};

struct EpochReport {
  int64_t epoch = 0;
  double train_loss = 0.0;
  double val_mae = 0.0;
  double lr = 0.0;
  double grad_norm_mean = 0.0;  // mean pre-clip global norm over batches
  double grad_norm_last = 0.0;  // final batch's pre-clip norm
  double seconds = 0.0;         // wall clock for the epoch (train + eval)
  std::map<std::string, double> phase_seconds;
  // Present only when the health monitor is armed (TGCRN_HEALTH=1); the
  // epoch JSON line gains a "health" object.
  bool has_health = false;
  HealthReport health;
  // Present only when the profiler is armed (TGCRN_PROF / --prof); the
  // epoch JSON line gains a "prof" object holding this epoch's delta.
  bool has_prof = false;
  ProfReport prof;

  Json ToJson() const;
  static EpochReport FromJson(const Json& json);
};

struct HorizonMetricsReport {
  double mae = 0.0;
  double rmse = 0.0;
  double mape = 0.0;  // percent

  Json ToJson() const;
  static HorizonMetricsReport FromJson(const Json& json);
};

struct RunReport {
  std::string model;
  int64_t num_parameters = 0;
  int num_threads = 1;
  int64_t epochs_run = 0;
  double total_seconds = 0.0;
  std::vector<EpochReport> epochs;
  std::vector<HorizonMetricsReport> test_per_horizon;
  HorizonMetricsReport test_average;
  // Set by FromJsonl when a summary line was present, so tooling (the
  // report diff) can tell "no test metrics yet" from "all-zero metrics".
  bool has_summary = false;

  // Sum of each phase across epochs.
  std::map<std::string, double> PhaseTotals() const;

  Json SummaryJson() const;

  // Appends one JSONL line (epoch or summary object) to `path`, creating
  // the file if needed. Returns false on I/O failure.
  static bool AppendJsonLine(const std::string& path, const Json& line);

  // Parses a JSONL document (epoch lines + optional summary line, in any
  // order) produced by this format. Unknown line types are skipped.
  // Returns false if any line fails to parse as JSON — except a final
  // partial line with no trailing newline, which is treated as the
  // truncated tail of a run still in progress (or killed mid-write) and
  // ignored, so tailing tools can diff a live report.
  static bool FromJsonl(const std::string& content, RunReport* out);
};

}  // namespace obs
}  // namespace tgcrn

#endif  // TGCRN_OBS_REPORT_H_
