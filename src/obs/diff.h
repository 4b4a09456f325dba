// Copyright 2026 TGCRN Reproduction Authors
// Regression diffing of two run reports (obs/report.h), the library behind
// the tgcrn_report_diff CLI and the CI quick-scale gate. Compares a
// baseline and a candidate run on the loss curve, validation/test metrics,
// per-phase wall clock, and health counters, and classifies each compared
// metric as regressed or not against a percentage threshold.
//
// Gating rules:
//  * Accuracy metrics (train loss, val MAE, test MAE/RMSE/MAPE) are lower-
//    is-better and gate on max_regress_pct.
//  * Phase seconds and total wall clock gate on max_time_regress_pct
//    (NaN: inherit max_regress_pct; negative: report but never gate, for
//    machines with noisy clocks).
//  * Health counters (NaN/Inf elements, non-finite-gradient steps) gate on
//    ANY increase — a new NaN is a regression at every threshold.
//  * Learned-graph diagnostics are informational only (no natural order).
//  * Profiler blocks (obs/prof.h), summed over the epochs of each run:
//    per-kernel invocation counts and total retired instructions are
//    deterministic-ish cost proxies and gate on max_regress_pct
//    (instructions only when both runs had perf counters); cycles and IPC
//    are machine-dependent and informational only.
//  * A NaN candidate value for a gated metric with a finite baseline is
//    always a regression (the run diverged).
//
// Comparisons are strict (delta > threshold), so a report diffed against
// itself passes even at --max-regress-pct 0.
//
// Depends only on obs/report.h and std, like the rest of the first tier.
#ifndef TGCRN_OBS_DIFF_H_
#define TGCRN_OBS_DIFF_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/report.h"

namespace tgcrn {
namespace obs {

struct ReportDiffOptions {
  // Allowed worsening, in percent of the baseline value, for accuracy
  // metrics.
  double max_regress_pct = 10.0;
  // Allowed worsening for timing metrics. NaN (default) inherits
  // max_regress_pct; a negative value reports timing rows without gating.
  double max_time_regress_pct = std::numeric_limits<double>::quiet_NaN();
};

struct DiffRow {
  std::string metric;
  double baseline = 0.0;
  double candidate = 0.0;
  // (candidate - baseline) / |baseline| * 100; +inf when the baseline is 0
  // and the candidate is not; NaN when either side is NaN.
  double delta_pct = 0.0;
  bool gated = false;      // participates in the pass/fail decision
  bool regressed = false;  // gated and beyond its threshold
};

struct ReportDiffResult {
  std::vector<DiffRow> rows;
  int64_t regressions = 0;  // number of regressed rows
  bool ok() const { return regressions == 0; }
};

// Diffs `candidate` against `baseline`. Metrics missing from either side
// (no epochs, no summary, phase absent) are skipped, not failed: a shorter
// candidate run gates only on what it measured.
ReportDiffResult DiffReports(const RunReport& baseline,
                             const RunReport& candidate,
                             const ReportDiffOptions& options);

}  // namespace obs
}  // namespace tgcrn

#endif  // TGCRN_OBS_DIFF_H_
