// Copyright 2026 TGCRN Reproduction Authors
// Pretty-printer for kernel cost profiles (obs/prof.h):
//
//   tgcrn_prof show <profile>      kernel roofline table + attribution tree
//   tgcrn_prof stacks <profile>    collapsed flamegraph lines
//
// <profile> is either a profile JSON file (written by TGCRN_PROF=<path> or
// `train_model --prof`) or a run-report JSONL file whose epoch lines carry
// "prof" blocks — the per-epoch deltas are accumulated back into one
// whole-run profile. Profiles are gated by tgcrn_report_diff, which diffs
// the per-epoch "prof" blocks of two run reports (obs/diff.h).
//
// Exit codes: 0 ok, 2 usage or parse error.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/table_printer.h"
#include "obs/json.h"
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

// Loads either format into one ProfReport. A profile JSON file is a single
// object with a "kernels" array; anything else is treated as run JSONL and
// must hold at least one epoch with a "prof" block.
bool LoadProfile(const std::string& path, tgcrn::obs::ProfReport* out) {
  std::string content;
  if (!ReadFile(path, &content)) {
    std::fprintf(stderr, "tgcrn_prof: cannot read %s\n", path.c_str());
    return false;
  }
  tgcrn::obs::Json json;
  if (tgcrn::obs::Json::Parse(content, &json) && json.Has("kernels")) {
    *out = tgcrn::obs::ProfReport::FromJson(json);
    return true;
  }
  tgcrn::obs::RunReport run;
  if (!tgcrn::obs::RunReport::FromJsonl(content, &run)) {
    std::fprintf(stderr,
                 "tgcrn_prof: %s is neither a profile JSON file nor report "
                 "JSONL\n",
                 path.c_str());
    return false;
  }
  bool any = false;
  for (const auto& epoch : run.epochs) {
    if (!epoch.has_prof) continue;
    any = true;
    out->Accumulate(epoch.prof);
  }
  if (!any) {
    std::fprintf(stderr,
                 "tgcrn_prof: %s holds no epoch \"prof\" blocks (run with "
                 "TGCRN_PROF=1 or train_model --prof)\n",
                 path.c_str());
    return false;
  }
  return true;
}

void PrintShow(const tgcrn::obs::ProfReport& report) {
  std::printf("isa: %s  threads: %lld  perf counters: %s\n",
              report.isa.empty() ? "unknown" : report.isa.c_str(),
              static_cast<long long>(report.threads),
              report.counters_available ? "yes" : "no");

  std::printf("\nkernel cost summary (exclusive = caller thread):\n");
  std::vector<std::string> columns = {"kernel",  "invocations", "excl_s",
                                      "worker_s", "gflop/s",    "flop/byte"};
  if (report.counters_available) {
    columns.push_back("ipc");
    columns.push_back("l1_miss");
    columns.push_back("llc_miss");
  }
  tgcrn::TablePrinter table(columns);
  for (const auto& k : report.kernels) {
    // Registered kernels the run never invoked (e.g. the sparse SpMM set
    // during a dense run) would render as all-zero roofline rows — noise,
    // not signal.
    if (k.invocations == 0) continue;
    std::vector<std::string> row = {
        k.name,
        tgcrn::TablePrinter::Num(static_cast<double>(k.invocations), 0),
        tgcrn::TablePrinter::Num(k.exclusive_seconds, 4),
        tgcrn::TablePrinter::Num(k.worker_seconds, 4),
        tgcrn::TablePrinter::Num(k.GFlops(), 2),
        tgcrn::TablePrinter::Num(k.ArithmeticIntensity(), 2)};
    if (report.counters_available) {
      row.push_back(tgcrn::TablePrinter::Num(k.Ipc(), 2));
      row.push_back(
          tgcrn::TablePrinter::Num(static_cast<double>(k.l1_misses), 0));
      row.push_back(
          tgcrn::TablePrinter::Num(static_cast<double>(k.llc_misses), 0));
    }
    table.AddRow(row);
  }
  table.Print();

  std::printf("\nattribution tree (inclusive / exclusive seconds):\n");
  std::vector<int> depth(report.nodes.size(), 0);
  for (size_t i = 0; i < report.nodes.size(); ++i) {
    const int64_t parent = report.nodes[i].parent;
    if (parent >= 0) depth[i] = depth[static_cast<size_t>(parent)] + 1;
    const auto& node = report.nodes[i];
    std::printf("%*s%-*s %10lld  %9.4f  %9.4f\n", depth[i] * 2, "",
                40 - depth[i] * 2, node.name.c_str(),
                static_cast<long long>(node.count), node.inclusive_seconds,
                node.exclusive_seconds);
  }
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: tgcrn_prof show <profile>\n"
      "       tgcrn_prof stacks <profile>\n"
      "  show    kernel roofline table (invocations, exclusive/worker\n"
      "          seconds, GFLOP/s, FLOP/byte; IPC and cache misses when\n"
      "          perf counters were available) plus the attribution tree\n"
      "  stacks  collapsed flamegraph lines (feed to flamegraph.pl)\n"
      "<profile> is a profile JSON (TGCRN_PROF=<path>, train_model --prof,\n"
      "bench --report) or a run-report JSONL whose epoch lines carry\n"
      "\"prof\" blocks — epoch deltas are summed into one whole-run\n"
      "profile.\n"
      "exit codes: 0 ok, 2 usage or parse error\n"
      "docs: docs/BENCHMARKS.md (reading the roofline table), docs/API.md\n"
      "(profile JSON schema)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) return Usage();
  const std::string command = argv[1];
  if (command != "show" && command != "stacks") return Usage();
  tgcrn::obs::ProfReport report;
  if (!LoadProfile(argv[2], &report)) return 2;
  if (command == "show") {
    PrintShow(report);
  } else {
    std::fputs(report.ToCollapsed().c_str(), stdout);
  }
  return 0;
}
