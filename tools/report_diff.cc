// Copyright 2026 TGCRN Reproduction Authors
// Regression gate over two run-report JSONL files (obs/report.h format):
//
//   tgcrn_report_diff baseline.jsonl candidate.jsonl
//       [--max-regress-pct 10] [--max-time-regress-pct <pct|-1>]
//
// Prints a metric/baseline/candidate/delta table and exits 0 when no gated
// metric regressed beyond its threshold, 1 on regression, 2 on usage or
// parse errors. --max-time-regress-pct -1 reports timing rows without
// gating them (for machines with noisy clocks); leaving it unset gates
// timing at --max-regress-pct. See obs/diff.h for the full gating rules.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/flags.h"
#include "common/table_printer.h"
#include "obs/diff.h"
#include "obs/report.h"

namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

bool LoadReport(const std::string& path, tgcrn::obs::RunReport* report) {
  std::string content;
  if (!ReadFile(path, &content)) {
    std::fprintf(stderr, "tgcrn_report_diff: cannot read %s\n", path.c_str());
    return false;
  }
  if (!tgcrn::obs::RunReport::FromJsonl(content, report)) {
    std::fprintf(stderr, "tgcrn_report_diff: %s is not valid report JSONL\n",
                 path.c_str());
    return false;
  }
  return true;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: tgcrn_report_diff <baseline.jsonl> <candidate.jsonl>"
      " [--max-regress-pct N] [--max-time-regress-pct N|-1]\n"
      "  --max-regress-pct N       allowed worsening for accuracy metrics\n"
      "                            (best val/test MAE-RMSE-MAPE), percent of\n"
      "                            the baseline value (default 10)\n"
      "  --max-time-regress-pct N  allowed worsening for timing metrics\n"
      "                            (epoch seconds, phase.<name>_s rows);\n"
      "                            unset inherits --max-regress-pct, -1\n"
      "                            reports timing without gating it (noisy\n"
      "                            clocks / shared CI runners)\n"
      "exit codes: 0 no regression, 1 regression, 2 usage or parse error\n"
      "docs: docs/BENCHMARKS.md (regression gating), docs/API.md (report\n"
      "JSONL schema)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string baseline_path = argv[1];
  const std::string candidate_path = argv[2];
  tgcrn::obs::ReportDiffOptions options;
  tgcrn::Flags flags;
  flags.Add("--max-regress-pct", &options.max_regress_pct)
      .Add("--max-time-regress-pct", &options.max_time_regress_pct);
  if (!flags.Parse(argc, argv, 3)) return Usage();

  tgcrn::obs::RunReport baseline;
  tgcrn::obs::RunReport candidate;
  if (!LoadReport(baseline_path, &baseline) ||
      !LoadReport(candidate_path, &candidate)) {
    return 2;
  }
  if (candidate.epochs.empty() && !candidate.has_summary) {
    std::fprintf(stderr, "tgcrn_report_diff: %s holds no epoch or summary"
                 " lines\n", candidate_path.c_str());
    return 2;
  }

  const tgcrn::obs::ReportDiffResult result =
      tgcrn::obs::DiffReports(baseline, candidate, options);

  tgcrn::TablePrinter table(
      {"metric", "baseline", "candidate", "delta_pct", "status"});
  for (const auto& row : result.rows) {
    const char* status = row.regressed ? "REGRESSED"
                         : row.gated   ? "ok"
                                       : "info";
    table.AddRow({row.metric, tgcrn::TablePrinter::Num(row.baseline, 4),
                  tgcrn::TablePrinter::Num(row.candidate, 4),
                  tgcrn::TablePrinter::Num(row.delta_pct, 2), status});
  }
  table.Print();
  if (!result.ok()) {
    std::fprintf(stderr,
                 "tgcrn_report_diff: %lld metric(s) regressed beyond "
                 "threshold (%.6g%% accuracy / %.6g%% time)\n",
                 static_cast<long long>(result.regressions),
                 options.max_regress_pct,
                 std::isnan(options.max_time_regress_pct)
                     ? options.max_regress_pct
                     : options.max_time_regress_pct);
    return 1;
  }
  std::printf("tgcrn_report_diff: no regressions (%zu metrics compared)\n",
              result.rows.size());
  return 0;
}
