// Copyright 2026 TGCRN Reproduction Authors
// Tests of the training-health monitor: deterministic tensor statistics,
// env-var option parsing, the non-finite sentinel (counting and logging
// modes), activation taps, learned-graph diagnostics, and the health block
// a real 2-epoch train embeds in its JSONL report — plus the guarantee
// that an enabled monitor never changes the training result.
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/variable.h"
#include "common/thread_pool.h"
#include "core/tgcrn.h"
#include "core/trainer.h"
#include "datagen/metro_sim.h"
#include "obs/health.h"
#include "obs/report.h"
#include "tensor/tensor.h"

namespace tgcrn {
namespace {

using common::ScopedNumThreads;

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ------------------------------------------------------- Tensor stats --

TEST(TensorStatsTest, KnownValuesWithNonFinites) {
  const Tensor t = Tensor::FromVector(
      {8}, {1.0f, -2.0f, 0.0f, kNaN, kInf, 3.0f, 0.0f, -kInf});
  const obs::TensorStatsReport stats = obs::ComputeTensorStats(t);
  EXPECT_EQ(stats.count, 8);
  EXPECT_EQ(stats.nan_count, 1);
  EXPECT_EQ(stats.inf_count, 2);
  EXPECT_TRUE(stats.HasNonFinite());
  // Finite elements: {1, -2, 0, 3, 0}.
  EXPECT_DOUBLE_EQ(stats.mean, 2.0 / 5.0);
  EXPECT_DOUBLE_EQ(stats.rms, std::sqrt(14.0 / 5.0));
  EXPECT_DOUBLE_EQ(stats.min, -2.0);
  EXPECT_DOUBLE_EQ(stats.max, 3.0);
  EXPECT_DOUBLE_EQ(stats.zero_fraction, 2.0 / 8.0);
}

TEST(TensorStatsTest, EmptyAndAllNonFinite) {
  EXPECT_EQ(obs::ComputeTensorStats(Tensor::Zeros({0})).count, 0);
  const Tensor t = Tensor::FromVector({2}, {kNaN, kInf});
  const obs::TensorStatsReport stats = obs::ComputeTensorStats(t);
  EXPECT_EQ(stats.count, 2);
  EXPECT_EQ(stats.nan_count, 1);
  EXPECT_EQ(stats.inf_count, 1);
  // No finite elements: the moments stay at their zero defaults instead of
  // going NaN, so the report prints cleanly.
  EXPECT_DOUBLE_EQ(stats.mean, 0.0);
  EXPECT_DOUBLE_EQ(stats.rms, 0.0);
}

TEST(TensorStatsTest, BitwiseDeterministicAcrossThreadCounts) {
  Rng rng(321);
  // Large enough for many reduction chunks and several pool threads.
  const Tensor t = Tensor::RandNormal({37, 1031}, 0.0f, 3.0f, &rng);
  obs::TensorStatsReport serial, parallel;
  {
    ScopedNumThreads guard(1);
    serial = obs::ComputeTensorStats(t);
  }
  {
    ScopedNumThreads guard(8);
    parallel = obs::ComputeTensorStats(t);
  }
  // Bitwise equality, not tolerance: the chunked reduction contract.
  EXPECT_EQ(serial.mean, parallel.mean);
  EXPECT_EQ(serial.rms, parallel.rms);
  EXPECT_EQ(serial.min, parallel.min);
  EXPECT_EQ(serial.max, parallel.max);
  EXPECT_EQ(serial.zero_fraction, parallel.zero_fraction);
}

TEST(TensorStatsTest, DescribeMentionsEveryField) {
  obs::TensorStatsReport stats;
  stats.count = 4;
  stats.nan_count = 3;
  const std::string text = obs::DescribeTensorStats(stats);
  EXPECT_NE(text.find("count=4"), std::string::npos);
  EXPECT_NE(text.find("nan=3"), std::string::npos);
  EXPECT_NE(text.find("rms="), std::string::npos);
  EXPECT_NE(text.find("zero_fraction="), std::string::npos);
}

// ------------------------------------------------------------ Options --

TEST(HealthOptionsTest, FromEnvParsesAllKnobs) {
  unsetenv("TGCRN_HEALTH");
  EXPECT_FALSE(obs::HealthOptions::FromEnv().enabled);

  setenv("TGCRN_HEALTH", "", 1);
  EXPECT_FALSE(obs::HealthOptions::FromEnv().enabled);

  setenv("TGCRN_HEALTH", "1", 1);
  EXPECT_TRUE(obs::HealthOptions::FromEnv().enabled);

  setenv("TGCRN_HEALTH", "0", 1);
  EXPECT_FALSE(obs::HealthOptions::FromEnv().enabled);

  unsetenv("TGCRN_HEALTH");
}

// TGCRN_HEALTH is 0 or 1: a word such as "false" must not switch the
// monitor on.
TEST(HealthOptionsDeathTest, NonBinaryValueAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* value : {"false", "off", "no", "yes", "2", " 1"}) {
    EXPECT_DEATH(
        {
          setenv("TGCRN_HEALTH", value, 1);
          obs::HealthOptions::FromEnv();
        },
        "TGCRN_HEALTH=.* is not 0 or 1")
        << value;
  }
  unsetenv("TGCRN_HEALTH");
}

TEST(HealthMonitorTest, DisabledMonitorNeverOpensSamplingWindow) {
  obs::HealthMonitor disabled((obs::HealthOptions()));
  EXPECT_FALSE(disabled.enabled());
  disabled.BeginActivationSampling();
  EXPECT_FALSE(obs::HealthSamplingActive());
}

// ----------------------------------------------------- Train fixture --

class HealthTrainFixture : public ::testing::Test {
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

  static core::TGCRNConfig SmallModelConfig() {
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

data::ForecastDataset* HealthTrainFixture::dataset_ = nullptr;

// ----------------------------------------------------------- Sentinel --

TEST_F(HealthTrainFixture, NonFatalSentinelCountsAndReports) {
  Rng rng(23);
  core::TGCRN model(SmallModelConfig(), &rng);
  obs::HealthOptions options;
  options.enabled = true;
  obs::HealthMonitor monitor(options);
  monitor.Attach(model);
  auto params = model.NamedParameters();
  params.front().second.node()->AccumulateGrad(
      Tensor::Full(params.front().second.shape(), kNaN));
  monitor.HandleNonFiniteGradients(1);
  monitor.HandleNonFiniteGradients(2);
  EXPECT_EQ(monitor.non_finite_steps(), 2);

  obs::HealthReport report;
  monitor.CollectInto(&report);
  EXPECT_EQ(report.non_finite_steps, 2);
  ASSERT_EQ(report.modules.size(), params.size());
  // The poisoned gradient shows up in the per-module stats.
  int64_t nan_grads = 0;
  for (const auto& module : report.modules) {
    nan_grads += module.grad.nan_count;
  }
  EXPECT_GT(nan_grads, 0);
  // CollectInto resets the interval counters.
  EXPECT_EQ(monitor.non_finite_steps(), 0);
}

// ---------------------------------------------------- Activation taps --

TEST_F(HealthTrainFixture, ActivationTapsObserveOnlyInsideWindow) {
  obs::HealthOptions options;
  options.enabled = true;
  obs::HealthMonitor monitor(options);

  const Tensor t = Tensor::FromVector({4}, {1.0f, 2.0f, 3.0f, 4.0f});
  ASSERT_FALSE(obs::HealthSamplingActive());
  TGCRN_HEALTH_TAP("test.tap", t);  // no window: dropped

  monitor.BeginActivationSampling();
  ASSERT_TRUE(obs::HealthSamplingActive());
  TGCRN_HEALTH_TAP("test.tap", t);
  TGCRN_HEALTH_TAP("test.tap", t);
  monitor.EndActivationSampling();
  EXPECT_FALSE(obs::HealthSamplingActive());
  TGCRN_HEALTH_TAP("test.tap", t);  // window closed again

  obs::HealthReport report;
  monitor.CollectInto(&report);
  ASSERT_EQ(report.activations.size(), 1u);
  EXPECT_EQ(report.activations[0].name, "test.tap");
  EXPECT_EQ(report.activations[0].samples, 2);
  EXPECT_EQ(report.activations[0].stats.count, 8);
  EXPECT_DOUBLE_EQ(report.activations[0].stats.mean, 2.5);
  EXPECT_DOUBLE_EQ(report.activations[0].stats.max, 4.0);
  // Accumulators were consumed by the collection.
  obs::HealthReport second;
  monitor.CollectInto(&second);
  EXPECT_TRUE(second.activations.empty());
}

// ------------------------------------------------- Graph diagnostics --

TEST_F(HealthTrainFixture, GraphHealthBoundsAndStability) {
  Rng rng(31);
  core::TGCRN model(SmallModelConfig(), &rng);
  const auto batches =
      dataset_->EpochBatches(data::ForecastDataset::Split::kTrain, 4, &rng);
  ASSERT_FALSE(batches.empty());
  const data::Batch batch =
      dataset_->MakeBatch(data::ForecastDataset::Split::kTrain, batches[0]);

  obs::GraphHealthReport first;
  ASSERT_TRUE(model.CollectGraphHealth(batch, &first));
  EXPECT_GE(first.row_entropy, 0.0);
  EXPECT_LE(first.row_entropy, 1.0);
  EXPECT_GT(first.sparsity, 0.0);
  EXPECT_LE(first.sparsity, 1.0);
  EXPECT_GE(first.temporal_drift, 0.0);
  EXPECT_GT(first.topk, 0);
  // No previous top-k snapshot yet.
  EXPECT_TRUE(std::isnan(first.topk_stability));

  // Same weights, same batch: the second collection sees an identical
  // graph, so every neighborhood is stable.
  obs::GraphHealthReport second;
  ASSERT_TRUE(model.CollectGraphHealth(batch, &second));
  EXPECT_DOUBLE_EQ(second.topk_stability, 1.0);
  EXPECT_EQ(second.row_entropy, first.row_entropy);
  EXPECT_EQ(second.temporal_drift, first.temporal_drift);
}

// -------------------------------------------- Trainer integration ------

TEST_F(HealthTrainFixture, TrainEmbedsHealthBlocksInJsonlReport) {
  const auto path =
      (std::filesystem::temp_directory_path() / "tgcrn_health_test_run.jsonl")
          .string();
  std::filesystem::remove(path);

  Rng rng(41);
  core::TGCRN model(SmallModelConfig(), &rng);
  core::TrainConfig config;
  config.epochs = 2;
  config.max_batches_per_epoch = 10;
  config.verbose = false;
  config.report_path = path;
  config.health.enabled = true;
  const auto result = core::TrainAndEvaluate(&model, *dataset_, config);

  ASSERT_EQ(result.report.epochs.size(), 2u);
  const size_t num_params = model.NamedParameters().size();
  for (const auto& epoch : result.report.epochs) {
    ASSERT_TRUE(epoch.has_health);
    const obs::HealthReport& health = epoch.health;
    EXPECT_EQ(health.non_finite_steps, 0);
    ASSERT_EQ(health.modules.size(), num_params);
    for (const auto& module : health.modules) {
      EXPECT_FALSE(module.name.empty());
      EXPECT_GT(module.param.count, 0);
      EXPECT_FALSE(module.param.HasNonFinite()) << module.name;
      // Every parameter received a gradient during the epoch.
      EXPECT_GT(module.grad.count, 0) << module.name;
      EXPECT_GT(module.grad.rms, 0.0) << module.name;
    }
    // The first batch's forward pass hit all three shipped taps.
    ASSERT_FALSE(health.activations.empty());
    bool saw_adjacency = false, saw_prediction = false, saw_linear = false;
    for (const auto& activation : health.activations) {
      EXPECT_GT(activation.samples, 0);
      EXPECT_GT(activation.stats.count, 0);
      saw_adjacency |= activation.name == "tagsl.adjacency";
      saw_prediction |= activation.name == "tgcrn.prediction";
      saw_linear |= activation.name == "nn.linear.out";
    }
    EXPECT_TRUE(saw_adjacency);
    EXPECT_TRUE(saw_prediction);
    EXPECT_TRUE(saw_linear);
    // Learned-graph diagnostics ride along with valid ranges.
    ASSERT_TRUE(health.has_graph);
    EXPECT_GE(health.graph.row_entropy, 0.0);
    EXPECT_LE(health.graph.row_entropy, 1.0);
    EXPECT_GT(health.graph.sparsity, 0.0);
    EXPECT_LE(health.graph.sparsity, 1.0);
    EXPECT_GE(health.graph.temporal_drift, 0.0);
    // The health phase was timed.
    EXPECT_GT(epoch.phase_seconds.count(obs::kPhaseHealth), 0u);
  }
  // Epoch 0 has no previous top-k snapshot; epoch 1 does.
  EXPECT_TRUE(std::isnan(result.report.epochs[0].health.graph.topk_stability));
  const double stability =
      result.report.epochs[1].health.graph.topk_stability;
  EXPECT_GE(stability, 0.0);
  EXPECT_LE(stability, 1.0);

  // Health is embedded in the epoch lines: still 2 epochs + 1 summary.
  const std::string content = ReadFile(path);
  ASSERT_FALSE(content.empty());
  std::istringstream lines(content);
  std::string line;
  int line_count = 0;
  while (std::getline(lines, line)) ++line_count;
  EXPECT_EQ(line_count, 3);

  // The JSONL round trip preserves the health blocks.
  obs::RunReport loaded;
  ASSERT_TRUE(obs::RunReport::FromJsonl(content, &loaded));
  ASSERT_EQ(loaded.epochs.size(), 2u);
  for (size_t i = 0; i < loaded.epochs.size(); ++i) {
    ASSERT_TRUE(loaded.epochs[i].has_health);
    const obs::HealthReport& got = loaded.epochs[i].health;
    const obs::HealthReport& want = result.report.epochs[i].health;
    ASSERT_EQ(got.modules.size(), want.modules.size());
    EXPECT_EQ(got.modules[0].name, want.modules[0].name);
    EXPECT_DOUBLE_EQ(got.modules[0].param.rms, want.modules[0].param.rms);
    EXPECT_DOUBLE_EQ(got.modules[0].grad.rms, want.modules[0].grad.rms);
    ASSERT_EQ(got.activations.size(), want.activations.size());
    EXPECT_TRUE(got.has_graph);
    EXPECT_DOUBLE_EQ(got.graph.row_entropy, want.graph.row_entropy);
  }
  EXPECT_TRUE(std::isnan(loaded.epochs[0].health.graph.topk_stability));
  std::filesystem::remove(path);
}

TEST_F(HealthTrainFixture, MonitorDoesNotPerturbTraining) {
  core::TrainConfig config;
  config.epochs = 2;
  config.max_batches_per_epoch = 6;
  config.verbose = false;
  config.health.enabled = false;

  Rng rng_off(55);
  core::TGCRN model_off(SmallModelConfig(), &rng_off);
  const auto result_off = core::TrainAndEvaluate(&model_off, *dataset_, config);

  config.health.enabled = true;
  Rng rng_on(55);
  core::TGCRN model_on(SmallModelConfig(), &rng_on);
  const auto result_on = core::TrainAndEvaluate(&model_on, *dataset_, config);

  // The monitor observes; it must never change what the model computes.
  ASSERT_EQ(result_on.train_loss_history.size(),
            result_off.train_loss_history.size());
  for (size_t i = 0; i < result_on.train_loss_history.size(); ++i) {
    EXPECT_EQ(result_on.train_loss_history[i],
              result_off.train_loss_history[i]);
  }
  EXPECT_EQ(result_on.average.mae, result_off.average.mae);
}

}  // namespace
}  // namespace tgcrn
