// Copyright 2026 TGCRN Reproduction Authors
// CLI: train TGCRN (or an ablation variant) on a CSV dataset produced by
// export_dataset (or by the user's own pipeline), report test metrics, and
// optionally save a checkpoint.
//
// Usage:
//   train_model <data.csv> --nodes N --features D --steps-per-day S
//       [--input-steps P] [--output-steps Q] [--epochs E] [--hidden H]
//       [--variant tgcrn|no-tagsl|no-tdl|no-pdf|direct] [--save model.ckpt]
//       [--seed S] [--lr LR] [--graph-topk K] [--report run.jsonl]
//       [--prof run.prof.json]
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "core/trainer.h"
#include "data/csv_loader.h"
#include "obs/prof.h"

namespace {

struct Args {
  std::string data_path;
  tgcrn::data::CsvLoadOptions csv;
  int64_t input_steps = 12;
  int64_t output_steps = 12;
  int64_t epochs = 10;
  int64_t hidden = 16;
  float lr = 3e-3f;
  uint64_t seed = 1;
  int threads = 0;  // 0 = TGCRN_NUM_THREADS env or hardware concurrency
  int64_t graph_topk = -1;  // -1 = TGCRN_GRAPH_TOPK env / model default
  std::string variant = "tgcrn";
  std::string save_path;
  std::string report_path;
  std::string prof_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->data_path = argv[1];
  tgcrn::Flags flags;
  flags.Add("--nodes", &args->csv.num_nodes)
      .Add("--features", &args->csv.num_features)
      .Add("--steps-per-day", &args->csv.steps_per_day)
      .Add("--input-steps", &args->input_steps)
      .Add("--output-steps", &args->output_steps)
      .Add("--epochs", &args->epochs)
      .Add("--hidden", &args->hidden)
      .Add("--lr", &args->lr)
      .Add("--seed", &args->seed)
      .Add("--threads", &args->threads)
      .Add("--graph-topk", &args->graph_topk)
      .Add("--variant", &args->variant)
      .Add("--save", &args->save_path)
      .Add("--report", &args->report_path)
      .Add("--prof", &args->prof_path);
  return flags.Parse(argc, argv, 2) && args->csv.num_nodes > 0 &&
         args->csv.num_features > 0 && args->csv.steps_per_day > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(
        stderr,
        "usage: %s <data.csv> --nodes N --features D --steps-per-day S\n"
        "  [--input-steps P] [--output-steps Q] [--epochs E] [--hidden H]\n"
        "  [--variant tgcrn|no-tagsl|no-tdl|no-pdf|direct] [--save f.ckpt]\n"
        "  [--seed S] [--lr LR] [--threads T] [--graph-topk K]\n"
        "  [--report run.jsonl] [--prof run.prof.json]\n",
        argv[0]);
    return 2;
  }

  auto loaded = tgcrn::data::LoadCsv(args.data_path, args.csv);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  tgcrn::data::ForecastDataset::Options options;
  options.input_steps = args.input_steps;
  options.output_steps = args.output_steps;
  tgcrn::data::ForecastDataset dataset(std::move(loaded).ValueOrDie(),
                                       options);
  std::printf("dataset: %lld/%lld/%lld train/val/test windows\n",
              static_cast<long long>(dataset.NumTrainSamples()),
              static_cast<long long>(dataset.NumValSamples()),
              static_cast<long long>(dataset.NumTestSamples()));

  tgcrn::core::TGCRNConfig config;
  config.num_nodes = args.csv.num_nodes;
  config.input_dim = args.csv.num_features;
  config.output_dim = args.csv.num_features;
  config.horizon = args.output_steps;
  config.hidden_dim = args.hidden;
  config.steps_per_day = args.csv.steps_per_day;
  if (args.variant == "no-tagsl") {
    config.use_tagsl = false;
  } else if (args.variant == "no-tdl") {
    config.use_tdl = false;
  } else if (args.variant == "no-pdf") {
    config.use_pdf = false;
  } else if (args.variant == "direct") {
    config.use_encoder_decoder = false;
  } else if (args.variant != "tgcrn") {
    std::fprintf(stderr, "unknown variant %s\n", args.variant.c_str());
    return 2;
  }

  tgcrn::Rng rng(args.seed);
  tgcrn::core::TGCRN model(config, &rng);
  std::printf("model: %s variant, %lld parameters\n", args.variant.c_str(),
              static_cast<long long>(model.NumParameters()));

  tgcrn::core::TrainConfig train;
  train.epochs = args.epochs;
  train.lr = args.lr;
  train.seed = args.seed;
  train.num_threads = args.threads;
  // --graph-topk beats the TGCRN_GRAPH_TOPK env default already parsed
  // into TrainConfig (k > 0 = sparse top-k path, 0 = force dense).
  if (args.graph_topk >= 0) train.graph_topk = args.graph_topk;
  train.report_path = args.report_path;
  if (!args.prof_path.empty()) {
    // Overrides (rather than augments) any TGCRN_PROF env setting; the
    // trainer arms the profiler and epoch JSONL lines gain "prof" blocks.
    train.prof.enabled = true;
    train.prof.path = args.prof_path;
  }
  const auto result = tgcrn::core::TrainAndEvaluate(&model, dataset, train);
  if (!args.prof_path.empty()) {
    if (tgcrn::obs::WriteProfileFile(args.prof_path)) {
      std::printf("profile written to %s\n", args.prof_path.c_str());
    }
  }
  if (!args.report_path.empty()) {
    std::printf("run report written to %s\n", args.report_path.c_str());
  }
  std::printf("parallel width: %d thread(s)\n", result.num_threads);

  std::printf("\nper-horizon test metrics:\n");
  for (size_t h = 0; h < result.per_horizon.size(); ++h) {
    const auto& m = result.per_horizon[h];
    std::printf("  +%2zu: MAE %8.3f  RMSE %8.3f  MAPE %6.2f%%\n", h + 1,
                m.mae, m.rmse, m.mape);
  }
  std::printf("  avg: MAE %8.3f  RMSE %8.3f  MAPE %6.2f%%\n",
              result.average.mae, result.average.rmse, result.average.mape);
  std::printf("trained %lld epochs, %.2fs/epoch\n",
              static_cast<long long>(result.epochs_run),
              result.seconds_per_epoch);

  if (!args.save_path.empty()) {
    const tgcrn::Status status = tgcrn::core::SaveCheckpoint(
        args.save_path, model, dataset.scaler());
    if (!status.ok()) {
      std::fprintf(stderr, "save failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("checkpoint written to %s (config + parameters + scaler)\n",
                args.save_path.c_str());
  }
  return 0;
}
