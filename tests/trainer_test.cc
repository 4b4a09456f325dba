// Copyright 2026 TGCRN Reproduction Authors
// Integration tests of the training harness: end-to-end improvement over
// epochs, early stopping, best-weight restoration, and evaluation parity.
#include "core/trainer.h"

#include <chrono>
#include <cstdlib>

#include <gtest/gtest.h>

#include "core/tgcrn.h"
#include "datagen/metro_sim.h"
#include "obs/metrics.h"

namespace tgcrn {
namespace {

class TrainerFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::MetroSimConfig config;
    config.num_stations = 6;
    config.num_days = 10;
    config.seed = 77;
    config.target_mean_inflow = 50.0;
    config.keep_od_ground_truth = false;
    auto sim = datagen::SimulateMetro(config);
    data::ForecastDataset::Options options;
    options.input_steps = 4;
    options.output_steps = 2;
    dataset_ = new data::ForecastDataset(std::move(sim.data), options);
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static core::TGCRNConfig SmallConfig() {
    core::TGCRNConfig config;
    config.num_nodes = 6;
    config.input_dim = 2;
    config.output_dim = 2;
    config.horizon = 2;
    config.hidden_dim = 8;
    config.num_layers = 1;
    config.node_embed_dim = 6;
    config.time_embed_dim = 4;
    config.steps_per_day = 72;
    return config;
  }

  static data::ForecastDataset* dataset_;
};

data::ForecastDataset* TrainerFixture::dataset_ = nullptr;

TEST_F(TrainerFixture, TrainingImprovesOverUntrained) {
  Rng rng(1);
  core::TGCRN model(SmallConfig(), &rng);
  const auto untrained = metrics::AverageMetrics(core::EvaluateModel(
      &model, *dataset_, data::ForecastDataset::Split::kTest, {}));
  core::TrainConfig config;
  config.epochs = 4;
  config.lr = 6e-3f;
  config.max_batches_per_epoch = 30;
  config.verbose = false;
  const auto result = core::TrainAndEvaluate(&model, *dataset_, config);
  EXPECT_LT(result.average.mae, untrained.mae);
  EXPECT_EQ(result.epochs_run, 4);
  EXPECT_EQ(result.val_mae_history.size(), 4u);
  EXPECT_EQ(result.num_parameters, model.NumParameters());
  EXPECT_GT(result.seconds_per_epoch, 0.0);
}

TEST_F(TrainerFixture, ValidationMaeTrendsDownward) {
  Rng rng(2);
  core::TGCRN model(SmallConfig(), &rng);
  core::TrainConfig config;
  config.epochs = 5;
  config.lr = 6e-3f;
  config.max_batches_per_epoch = 30;
  config.verbose = false;
  const auto result = core::TrainAndEvaluate(&model, *dataset_, config);
  EXPECT_LT(result.val_mae_history.back(), result.val_mae_history.front());
  EXPECT_LT(result.train_loss_history.back(),
            result.train_loss_history.front());
}

TEST_F(TrainerFixture, EarlyStoppingHaltsTraining) {
  Rng rng(3);
  core::TGCRN model(SmallConfig(), &rng);
  core::TrainConfig config;
  config.epochs = 50;
  config.patience = 1;  // stop at the first non-improvement
  config.lr = 0.5f;     // absurd LR forces val to bounce
  config.max_batches_per_epoch = 10;
  config.verbose = false;
  const auto result = core::TrainAndEvaluate(&model, *dataset_, config);
  EXPECT_LT(result.epochs_run, 50);
}

TEST_F(TrainerFixture, BestWeightsAreRestored) {
  // With an oscillating (too-large) LR the best validation epoch is
  // usually not the last. After TrainAndEvaluate returns, the model must
  // hold the weights of the best epoch: re-evaluating the validation split
  // must reproduce min(val_mae_history) exactly.
  Rng rng(4);
  core::TGCRN model(SmallConfig(), &rng);
  core::TrainConfig config;
  config.epochs = 5;
  config.lr = 0.3f;  // deliberately unstable
  config.max_batches_per_epoch = 20;
  config.verbose = false;
  const auto result = core::TrainAndEvaluate(&model, *dataset_, config);
  double best = result.val_mae_history[0];
  for (double v : result.val_mae_history) best = std::min(best, v);
  const auto val_now = metrics::AverageMetrics(core::EvaluateModel(
      &model, *dataset_, data::ForecastDataset::Split::kVal, {}));
  // EvaluateModel averages per-horizon MAEs while the trainer computes one
  // pooled MAE; with equal-sized horizons these agree to rounding.
  EXPECT_NEAR(val_now.mae, best, 0.05 * best);
}

TEST_F(TrainerFixture, EvaluateModelMatchesTrainResult) {
  Rng rng(5);
  core::TGCRN model(SmallConfig(), &rng);
  core::TrainConfig config;
  config.epochs = 2;
  config.max_batches_per_epoch = 15;
  config.verbose = false;
  const auto result = core::TrainAndEvaluate(&model, *dataset_, config);
  const auto evaluated = core::EvaluateModel(
      &model, *dataset_, data::ForecastDataset::Split::kTest, {});
  ASSERT_EQ(evaluated.size(), result.per_horizon.size());
  for (size_t h = 0; h < evaluated.size(); ++h) {
    EXPECT_NEAR(evaluated[h].mae, result.per_horizon[h].mae, 1e-9);
  }
}

TEST_F(TrainerFixture, MaxBatchesCapsEpochWork) {
  Rng rng(6);
  core::TGCRN model(SmallConfig(), &rng);
  core::TrainConfig config;
  config.epochs = 1;
  config.max_batches_per_epoch = 2;
  config.verbose = false;
  const auto t0 = std::chrono::steady_clock::now();
  core::TrainAndEvaluate(&model, *dataset_, config);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(secs, 10.0);  // 2 batches + eval must be quick
}

TEST_F(TrainerFixture, EvaluationRunsInInferenceMode) {
  // EvaluateModel wraps the forward passes in ag::NoGradGuard, so a full
  // eval epoch must not record a single autograd op.
  Rng rng(7);
  core::TGCRN model(SmallConfig(), &rng);
  obs::Counter* fwd =
      obs::Registry::Global().GetCounter("autograd.forward_ops");
  const int64_t before = fwd->Value();
  const auto evaluated = core::EvaluateModel(
      &model, *dataset_, data::ForecastDataset::Split::kVal, {});
  EXPECT_EQ(fwd->Value(), before) << "eval built autograd graph nodes";
  EXPECT_FALSE(evaluated.empty());
  // Training afterwards records ops again.
  core::TrainConfig config;
  config.epochs = 1;
  config.max_batches_per_epoch = 2;
  config.verbose = false;
  core::TrainAndEvaluate(&model, *dataset_, config);
  EXPECT_GT(fwd->Value(), before);
}

// TGCRN_GRAPH_TOPK is one whole integer: "abc" used to read as 0 (the
// dense model) and "16k" as 16; both now stop the process naming the
// variable and the value. Valid values keep their meaning.
TEST(GraphTopKEnvDeathTest, MalformedValueAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* bad : {"abc", "16k", "8 ", " 8", "0x10", "1e3"}) {
    EXPECT_DEATH(
        {
          setenv("TGCRN_GRAPH_TOPK", bad, 1);
          (void)core::GraphTopKFromEnv();
        },
        "TGCRN_GRAPH_TOPK=\".*\" is not an integer")
        << bad;
  }
}

TEST(GraphTopKEnvDeathTest, ValidValuesKeepMeaning) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        const bool ok = [] {
          unsetenv("TGCRN_GRAPH_TOPK");
          if (core::GraphTopKFromEnv() != -1) return false;
          setenv("TGCRN_GRAPH_TOPK", "", 1);
          if (core::GraphTopKFromEnv() != -1) return false;
          setenv("TGCRN_GRAPH_TOPK", "8", 1);
          if (core::GraphTopKFromEnv() != 8) return false;
          setenv("TGCRN_GRAPH_TOPK", "0", 1);
          if (core::GraphTopKFromEnv() != 0) return false;
          setenv("TGCRN_GRAPH_TOPK", "-1", 1);
          return core::GraphTopKFromEnv() == -1;
        }();
        std::exit(ok ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace tgcrn
