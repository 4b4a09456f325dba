// Copyright 2026 TGCRN Reproduction Authors
// Integration example: plugging YOUR OWN spatially correlated time series
// into the library. Shows the full path a downstream user follows:
//   1. fill a data::SpatioTemporalData from raw arrays (here: a toy
//      sensor network generated inline - replace with your CSV loader),
//   2. wrap it in a ForecastDataset (windowing, scaling, splits),
//   3. configure and train TGCRN,
//   4. save a checkpoint (config + weights + scaler), load it back as a
//      new model, and verify the reloaded model predicts identically.
//
// Run:  ./examples/custom_dataset
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "core/checkpoint.h"
#include "core/trainer.h"

using namespace tgcrn;  // NOLINT: example brevity

int main() {
  // --- 1. Your data: values[t][sensor][feature] + calendar info ----------
  const int64_t num_sensors = 6;
  const int64_t steps_per_day = 24;  // hourly
  const int64_t num_days = 30;
  const int64_t total = steps_per_day * num_days;

  data::SpatioTemporalData data;
  data.values = Tensor::Zeros({total, num_sensors, 1});
  data.steps_per_day = steps_per_day;
  Rng noise(7);
  for (int64_t t = 0; t < total; ++t) {
    data.slot_of_day.push_back(t % steps_per_day);
    data.day_of_week.push_back((t / steps_per_day) % 7);
    const double hour = static_cast<double>(t % steps_per_day);
    // Each sensor: a phase-shifted daily wave + shared random walk.
    for (int64_t s = 0; s < num_sensors; ++s) {
      const double phase = 2.0 * M_PI * (hour - 2.0 * s) / 24.0;
      const double value = 50.0 + 20.0 * std::sin(phase) +
                           5.0 * noise.NextGaussian();
      data.values.set({t, s, 0}, static_cast<float>(value));
    }
  }

  // --- 2. Windowing / scaling / splits -----------------------------------
  data::ForecastDataset::Options options;
  options.input_steps = 6;
  options.output_steps = 3;
  options.train_fraction = 0.7;
  options.val_fraction = 0.15;
  data::ForecastDataset dataset(std::move(data), options);
  std::printf("windows: %lld train / %lld val / %lld test\n",
              static_cast<long long>(dataset.NumTrainSamples()),
              static_cast<long long>(dataset.NumValSamples()),
              static_cast<long long>(dataset.NumTestSamples()));

  // --- 3. Model + training ------------------------------------------------
  core::TGCRNConfig config;
  config.num_nodes = num_sensors;
  config.input_dim = 1;
  config.output_dim = 1;
  config.horizon = options.output_steps;
  config.hidden_dim = 8;
  config.num_layers = 1;
  config.node_embed_dim = 6;
  config.time_embed_dim = 4;
  config.steps_per_day = steps_per_day;
  Rng rng(1);
  core::TGCRN model(config, &rng);

  core::TrainConfig train_config;
  train_config.epochs = 4;
  train_config.verbose = false;
  const auto result = core::TrainAndEvaluate(&model, dataset, train_config);
  std::printf("test MAE %.2f (data scale: mean 50, amplitude 20)\n",
              result.average.mae);

  // --- 4. Checkpoint round trip -------------------------------------------
  const std::string ckpt =
      (std::filesystem::temp_directory_path() / "custom_model.ckpt")
          .string();
  const Status status = core::SaveCheckpoint(ckpt, model, dataset.scaler());
  if (!status.ok()) {
    std::printf("save failed: %s\n", status.ToString().c_str());
    return 1;
  }
  auto loaded = core::LoadCheckpoint(ckpt);
  if (!loaded.ok()) {
    std::printf("load failed: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  core::TGCRN& reloaded = *loaded.ValueOrDie().model;
  const data::Batch probe =
      dataset.MakeBatch(data::ForecastDataset::Split::kTest, {0, 1});
  model.SetTraining(false);
  reloaded.SetTraining(false);
  const Tensor a = model.Forward(probe).value();
  const Tensor b = reloaded.Forward(probe).value();
  const bool identical = a.AllClose(b, 0.0f);
  std::printf("reloaded model reproduces predictions exactly: %s\n",
              identical ? "yes" : "NO");
  std::filesystem::remove(ckpt);
  return identical ? 0 : 1;
}
