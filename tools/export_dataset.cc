// Copyright 2026 TGCRN Reproduction Authors
// CLI: generate one of the simulator datasets and export it as CSV (plus,
// for the metro simulator, the pairwise station distances), so external
// tooling - or this library's CSV loader - can consume it.
//
// Usage:
//   export_dataset <metro|demand|electricity> <output.csv>
//       [--nodes N] [--days D] [--seed S] [--distances dist.csv]
#include <cstdio>
#include <cstring>
#include <string>

#include "common/flags.h"
#include "common/table_printer.h"
#include "data/csv_loader.h"
#include "datagen/demand_sim.h"
#include "datagen/electricity_sim.h"
#include "datagen/metro_sim.h"

namespace {

struct Args {
  std::string kind;
  std::string output;
  int64_t nodes = 0;  // 0 = simulator default
  int64_t days = 0;
  uint64_t seed = 1;
  std::string distances_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 3) return false;
  args->kind = argv[1];
  args->output = argv[2];
  tgcrn::Flags flags;
  flags.Add("--nodes", &args->nodes)
      .Add("--days", &args->days)
      .Add("--seed", &args->seed)
      .Add("--distances", &args->distances_path);
  return flags.Parse(argc, argv, 3);
}

tgcrn::Status WriteDistances(const tgcrn::Tensor& distances,
                             const std::string& path) {
  const int64_t n = distances.size(0);
  std::vector<std::string> header;
  for (int64_t j = 0; j < n; ++j) {
    header.push_back("node" + std::to_string(j));
  }
  tgcrn::TablePrinter table(header);
  for (int64_t i = 0; i < n; ++i) {
    std::vector<std::string> row;
    for (int64_t j = 0; j < n; ++j) {
      row.push_back(tgcrn::TablePrinter::Num(distances.at({i, j}), 4));
    }
    table.AddRow(std::move(row));
  }
  return table.WriteCsv(path);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s <metro|demand|electricity> <output.csv> "
                 "[--nodes N] [--days D] [--seed S] [--distances out.csv]\n",
                 argv[0]);
    return 2;
  }

  tgcrn::data::SpatioTemporalData data;
  tgcrn::Tensor distances;
  if (args.kind == "metro") {
    tgcrn::datagen::MetroSimConfig config;
    if (args.nodes > 0) config.num_stations = args.nodes;
    if (args.days > 0) config.num_days = args.days;
    config.seed = args.seed;
    config.keep_od_ground_truth = false;
    auto sim = tgcrn::datagen::SimulateMetro(config);
    data = std::move(sim.data);
    distances = sim.distances;
  } else if (args.kind == "demand") {
    tgcrn::datagen::DemandSimConfig config;
    if (args.nodes > 0) config.num_zones = args.nodes;
    if (args.days > 0) config.num_days = args.days;
    config.seed = args.seed;
    auto sim = tgcrn::datagen::SimulateDemand(config);
    data = std::move(sim.data);
    distances = sim.distances;
  } else if (args.kind == "electricity") {
    tgcrn::datagen::ElectricitySimConfig config;
    if (args.nodes > 0) config.num_clients = args.nodes;
    if (args.days > 0) config.num_days = args.days;
    config.seed = args.seed;
    auto sim = tgcrn::datagen::SimulateElectricity(config);
    data = std::move(sim.data);
  } else {
    std::fprintf(stderr, "unknown dataset kind '%s'\n", args.kind.c_str());
    return 2;
  }

  tgcrn::Status status = tgcrn::data::SaveCsv(data, args.output);
  if (!status.ok()) {
    std::fprintf(stderr, "export failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %lld steps x %lld nodes x %lld features to %s\n",
              static_cast<long long>(data.num_steps()),
              static_cast<long long>(data.num_nodes()),
              static_cast<long long>(data.num_features()),
              args.output.c_str());
  if (!args.distances_path.empty() && distances.numel() > 0) {
    status = WriteDistances(distances, args.distances_path);
    if (!status.ok()) {
      std::fprintf(stderr, "distance export failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("wrote distances to %s\n", args.distances_path.c_str());
  }
  return 0;
}
