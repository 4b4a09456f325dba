// Copyright 2026 TGCRN Reproduction Authors
#include "obs/diff.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace tgcrn {
namespace obs {

namespace {

double DeltaPct(double baseline, double candidate) {
  if (std::isnan(baseline) || std::isnan(candidate)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (baseline == 0.0) {
    return candidate == 0.0 ? 0.0
                            : std::numeric_limits<double>::infinity();
  }
  return (candidate - baseline) / std::abs(baseline) * 100.0;
}

class DiffBuilder {
 public:
  explicit DiffBuilder(ReportDiffResult* result) : result_(result) {}

  // Lower-is-better metric gated on `threshold_pct` percent worsening.
  // A negative threshold means "report, never gate".
  void AddGated(const std::string& metric, double baseline, double candidate,
                double threshold_pct) {
    DiffRow row;
    row.metric = metric;
    row.baseline = baseline;
    row.candidate = candidate;
    row.delta_pct = DeltaPct(baseline, candidate);
    row.gated = threshold_pct >= 0.0;
    if (row.gated) {
      if (std::isnan(candidate) && !std::isnan(baseline)) {
        row.regressed = true;  // diverged run
      } else {
        row.regressed = row.delta_pct > threshold_pct;
      }
    }
    Push(row);
  }

  // Counter that regresses on any increase, at every threshold.
  void AddStrict(const std::string& metric, double baseline,
                 double candidate) {
    DiffRow row;
    row.metric = metric;
    row.baseline = baseline;
    row.candidate = candidate;
    row.delta_pct = DeltaPct(baseline, candidate);
    row.gated = true;
    row.regressed = candidate > baseline;
    Push(row);
  }

  void AddInfo(const std::string& metric, double baseline, double candidate) {
    DiffRow row;
    row.metric = metric;
    row.baseline = baseline;
    row.candidate = candidate;
    row.delta_pct = DeltaPct(baseline, candidate);
    Push(row);
  }

 private:
  void Push(const DiffRow& row) {
    if (row.regressed) ++result_->regressions;
    result_->rows.push_back(row);
  }

  ReportDiffResult* result_;
};

struct HealthTotals {
  bool present = false;
  double nan_elements = 0.0;  // NaN elements across all stats, all epochs
  double inf_elements = 0.0;
  double non_finite_steps = 0.0;
};

HealthTotals SumHealth(const RunReport& report) {
  HealthTotals totals;
  for (const auto& epoch : report.epochs) {
    if (!epoch.has_health) continue;
    totals.present = true;
    totals.non_finite_steps +=
        static_cast<double>(epoch.health.non_finite_steps);
    for (const auto& module : epoch.health.modules) {
      totals.nan_elements += static_cast<double>(
          module.param.nan_count + module.grad.nan_count);
      totals.inf_elements += static_cast<double>(
          module.param.inf_count + module.grad.inf_count);
    }
    for (const auto& activation : epoch.health.activations) {
      totals.nan_elements += static_cast<double>(activation.stats.nan_count);
      totals.inf_elements += static_cast<double>(activation.stats.inf_count);
    }
  }
  return totals;
}

// Last epoch carrying a graph-health block, or nullptr.
const GraphHealthReport* LastGraphHealth(const RunReport& report) {
  for (auto it = report.epochs.rbegin(); it != report.epochs.rend(); ++it) {
    if (it->has_health && it->health.has_graph) return &it->health.graph;
  }
  return nullptr;
}

// Sums the per-epoch "prof" deltas back into one whole-run profile.
// Returns false when no epoch carried a prof block.
bool AccumulateProf(const RunReport& report, ProfReport* out) {
  bool present = false;
  for (const auto& epoch : report.epochs) {
    if (!epoch.has_prof) continue;
    present = true;
    out->Accumulate(epoch.prof);
  }
  return present;
}

// Per-kernel invocations gate, instruction totals gate when both sides
// measured them, cycles/IPC are informational.
void AddProfRows(DiffBuilder* builder, const ProfReport& baseline,
                 const ProfReport& candidate, double acc_pct) {
  std::map<std::string, const ProfKernelReport*> base_kernels;
  for (const auto& kernel : baseline.kernels) {
    base_kernels[kernel.name] = &kernel;
  }
  for (const auto& kernel : candidate.kernels) {
    const auto it = base_kernels.find(kernel.name);
    if (it == base_kernels.end()) continue;  // new kernel: nothing to gate
    builder->AddGated("prof." + kernel.name + ".invocations",
                      static_cast<double>(it->second->invocations),
                      static_cast<double>(kernel.invocations), acc_pct);
  }
  if (baseline.counters_available && candidate.counters_available) {
    auto totals = [](const ProfReport& report) {
      double instructions = 0.0;
      double cycles = 0.0;
      for (const auto& kernel : report.kernels) {
        instructions += static_cast<double>(kernel.instructions);
        cycles += static_cast<double>(kernel.cycles);
      }
      return std::make_pair(instructions, cycles);
    };
    const auto [base_instr, base_cycles] = totals(baseline);
    const auto [cand_instr, cand_cycles] = totals(candidate);
    builder->AddGated("prof.instructions", base_instr, cand_instr, acc_pct);
    builder->AddInfo("prof.cycles", base_cycles, cand_cycles);
    builder->AddInfo("prof.ipc",
                     base_cycles > 0.0 ? base_instr / base_cycles : 0.0,
                     cand_cycles > 0.0 ? cand_instr / cand_cycles : 0.0);
  }
}

}  // namespace

ReportDiffResult DiffReports(const RunReport& baseline,
                             const RunReport& candidate,
                             const ReportDiffOptions& options) {
  ReportDiffResult result;
  DiffBuilder builder(&result);
  const double acc_pct = options.max_regress_pct;
  const double time_pct = std::isnan(options.max_time_regress_pct)
                              ? options.max_regress_pct
                              : options.max_time_regress_pct;

  // --- Loss curve / validation ------------------------------------------
  if (!baseline.epochs.empty() && !candidate.epochs.empty()) {
    builder.AddGated("train_loss.final", baseline.epochs.back().train_loss,
                     candidate.epochs.back().train_loss, acc_pct);
    builder.AddGated("val_mae.final", baseline.epochs.back().val_mae,
                     candidate.epochs.back().val_mae, acc_pct);
    auto best_val = [](const RunReport& r) {
      double best = std::numeric_limits<double>::infinity();
      for (const auto& e : r.epochs) best = std::min(best, e.val_mae);
      return best;
    };
    builder.AddGated("val_mae.best", best_val(baseline), best_val(candidate),
                     acc_pct);
  }

  // --- Test metrics (summary lines on both sides) -----------------------
  if (baseline.has_summary && candidate.has_summary) {
    builder.AddGated("test.avg_mae", baseline.test_average.mae,
                     candidate.test_average.mae, acc_pct);
    builder.AddGated("test.avg_rmse", baseline.test_average.rmse,
                     candidate.test_average.rmse, acc_pct);
    builder.AddGated("test.avg_mape", baseline.test_average.mape,
                     candidate.test_average.mape, acc_pct);
    const size_t horizons = std::min(baseline.test_per_horizon.size(),
                                     candidate.test_per_horizon.size());
    for (size_t h = 0; h < horizons; ++h) {
      builder.AddGated("test.h" + std::to_string(h + 1) + "_mae",
                       baseline.test_per_horizon[h].mae,
                       candidate.test_per_horizon[h].mae, acc_pct);
    }
  }

  // --- Wall clock -------------------------------------------------------
  const auto baseline_phases = baseline.PhaseTotals();
  const auto candidate_phases = candidate.PhaseTotals();
  for (const auto& [name, baseline_seconds] : baseline_phases) {
    const auto it = candidate_phases.find(name);
    if (it == candidate_phases.end()) continue;
    if (baseline_seconds <= 0.0) continue;  // noise-only phase
    builder.AddGated("phase." + name + "_s", baseline_seconds, it->second,
                     time_pct);
  }
  if (baseline.has_summary && candidate.has_summary &&
      baseline.total_seconds > 0.0) {
    builder.AddGated("total_seconds", baseline.total_seconds,
                     candidate.total_seconds, time_pct);
  }

  // --- Health counters --------------------------------------------------
  const HealthTotals baseline_health = SumHealth(baseline);
  const HealthTotals candidate_health = SumHealth(candidate);
  if (candidate_health.present) {
    // Baseline without health blocks contributes implicit zeros: a
    // candidate that introduces NaNs must fail even against an old report.
    builder.AddStrict("health.nan_elements", baseline_health.nan_elements,
                      candidate_health.nan_elements);
    builder.AddStrict("health.inf_elements", baseline_health.inf_elements,
                      candidate_health.inf_elements);
    builder.AddStrict("health.non_finite_steps",
                      baseline_health.non_finite_steps,
                      candidate_health.non_finite_steps);
  }

  // --- Learned-graph diagnostics (no natural better/worse order) --------
  const GraphHealthReport* baseline_graph = LastGraphHealth(baseline);
  const GraphHealthReport* candidate_graph = LastGraphHealth(candidate);
  if (baseline_graph != nullptr && candidate_graph != nullptr) {
    builder.AddInfo("graph.row_entropy", baseline_graph->row_entropy,
                    candidate_graph->row_entropy);
    builder.AddInfo("graph.sparsity", baseline_graph->sparsity,
                    candidate_graph->sparsity);
    builder.AddInfo("graph.temporal_drift", baseline_graph->temporal_drift,
                    candidate_graph->temporal_drift);
  }

  // --- Profiler cost attribution ----------------------------------------
  ProfReport baseline_prof;
  ProfReport candidate_prof;
  if (AccumulateProf(baseline, &baseline_prof) &&
      AccumulateProf(candidate, &candidate_prof)) {
    AddProfRows(&builder, baseline_prof, candidate_prof, acc_pct);
  }

  return result;
}

}  // namespace obs
}  // namespace tgcrn
