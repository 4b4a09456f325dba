// Copyright 2026 TGCRN Reproduction Authors
#include "core/trainer.h"

#include <chrono>
#include <cmath>
#include <cstdlib>

#include "autograd/ops.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "optim/optimizer.h"

namespace tgcrn {
namespace core {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Accumulates wall-clock into a named phase bucket for the epoch report.
// Usage: { PhaseTimer t(&phases, obs::kPhaseForward); ...work... }
class PhaseTimer {
 public:
  PhaseTimer(std::map<std::string, double>* phases, const char* name)
      : phases_(phases), name_(name), start_(Clock::now()) {}
  ~PhaseTimer() { (*phases_)[name_] += SecondsSince(start_); }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  std::map<std::string, double>* phases_;
  const char* name_;
  Clock::time_point start_;
};

// Collects raw-space predictions and targets for a whole split.
void PredictSplit(ForecastModel* model, const data::ForecastDataset& dataset,
                  data::ForecastDataset::Split split, int64_t batch_size,
                  std::vector<Tensor>* preds, std::vector<Tensor>* targets) {
  model->SetTraining(false);
  // Inference mode: no graph nodes or backward closures are built, so the
  // forward pass neither counts autograd.forward_ops nor retains
  // activations.
  ag::NoGradGuard no_grad;
  const auto batches = dataset.EpochBatches(split, batch_size,
                                            /*rng=*/nullptr);
  for (const auto& ids : batches) {
    const data::Batch batch = dataset.MakeBatch(split, ids);
    ag::Variable pred = model->Forward(batch);
    preds->push_back(dataset.scaler().InverseTransform(pred.value()));
    targets->push_back(batch.y);
  }
  model->SetTraining(true);
}

double SplitMae(ForecastModel* model, const data::ForecastDataset& dataset,
                data::ForecastDataset::Split split,
                const metrics::MetricsOptions& options, int64_t batch_size) {
  std::vector<Tensor> preds, targets;
  PredictSplit(model, dataset, split, batch_size, &preds, &targets);
  const metrics::Metrics m = metrics::Evaluate(
      Tensor::Concat(preds, 0), Tensor::Concat(targets, 0), options);
  return m.mae;
}

}  // namespace

std::vector<metrics::Metrics> EvaluateModel(
    ForecastModel* model, const data::ForecastDataset& dataset,
    data::ForecastDataset::Split split,
    const metrics::MetricsOptions& options, int64_t batch_size) {
  std::vector<Tensor> preds, targets;
  PredictSplit(model, dataset, split, batch_size, &preds, &targets);
  return metrics::EvaluatePerHorizon(Tensor::Concat(preds, 0),
                                     Tensor::Concat(targets, 0), options);
}

int64_t GraphTopKFromEnv() {
  return EnvIntOrDie<int64_t>("TGCRN_GRAPH_TOPK",
                              std::getenv("TGCRN_GRAPH_TOPK"), -1);
}

TrainResult TrainAndEvaluate(ForecastModel* model,
                             const data::ForecastDataset& dataset,
                             const TrainConfig& config) {
  TrainResult result;
  result.num_parameters = model->NumParameters();
  if (config.graph_topk >= 0) model->SetGraphTopK(config.graph_topk);
  if (config.num_threads > 0) common::SetNumThreads(config.num_threads);
  result.num_threads = common::GetNumThreads();
  result.report.model = model->name();
  result.report.num_parameters = result.num_parameters;
  result.report.num_threads = result.num_threads;

  Rng rng(config.seed);
  // Health monitor: parameter list cached once here; when disabled, the
  // only per-step cost below is one branch (the zero-alloc steady state
  // pinned by autograd_arena_test stays intact).
  obs::HealthMonitor health_monitor(config.health);
  if (health_monitor.enabled()) health_monitor.Attach(*model);
  // Profiler: snapshots are cumulative, so each epoch's "prof" block is
  // the delta against the previous epoch's snapshot.
  obs::ProfReport prof_prev;
  if (config.prof.enabled) {
    obs::StartProfiling(config.prof);
    prof_prev = obs::CollectProfReport();
  }
  optim::Adam adam(model->Parameters(), config.lr, 0.9f, 0.999f, 1e-8f,
                   config.weight_decay);
  optim::MultiStepLR scheduler(&adam, config.lr_milestones, config.lr_gamma);
  optim::EarlyStopper stopper(config.patience);

  // Best-weights snapshot (values only).
  std::vector<Tensor> best_values;
  auto snapshot = [&]() {
    best_values.clear();
    for (const auto& p : model->Parameters()) {
      best_values.push_back(p.value().Clone());
    }
  };
  auto restore = [&]() {
    if (best_values.empty()) return;
    auto params = model->Parameters();
    TGCRN_CHECK_EQ(params.size(), best_values.size());
    for (size_t i = 0; i < params.size(); ++i) {
      params[i].SetValue(best_values[i].Clone());
    }
  };

  const auto train_start = Clock::now();
  double epoch_seconds_sum = 0.0;
  int64_t global_step = 0;
  model->SetTraining(true);

  for (int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    const auto epoch_start = Clock::now();
    auto batches = dataset.EpochBatches(data::ForecastDataset::Split::kTrain,
                                        config.batch_size, &rng);
    if (config.max_batches_per_epoch > 0 &&
        static_cast<int64_t>(batches.size()) > config.max_batches_per_epoch) {
      batches.resize(config.max_batches_per_epoch);
    }
    obs::EpochReport epoch_report;
    epoch_report.epoch = epoch;
    double loss_sum = 0.0;
    double grad_norm_sum = 0.0;
    double grad_norm_last = 0.0;
    int64_t batch_index = 0;
    for (const auto& ids : batches) {
      data::Batch batch;
      {
        PhaseTimer timer(&epoch_report.phase_seconds, obs::kPhaseData);
        batch = dataset.MakeBatch(data::ForecastDataset::Split::kTrain, ids);
      }
      if (config.scheduled_sampling_tau > 0.0) {
        const double tau = config.scheduled_sampling_tau;
        const double p =
            tau / (tau + std::exp(static_cast<double>(global_step) / tau));
        model->SetTeacherForcingProbability(static_cast<float>(p));
      }
      ++global_step;
      model->ZeroGrad();
      // Everything from forward to the loss read runs inside one arena
      // step: interior graph nodes are bump-allocated and the whole graph
      // is torn down in a flat O(nodes) walk + O(1) arena reset when the
      // scope closes. `loss` must not escape the scope, so the scalar is
      // read before it ends.
      ag::StepArenaScope arena_step;
      ag::Variable loss;
      // Activation taps sample the first training batch of each epoch
      // (one representative forward, not every batch).
      const bool sampling_activations =
          health_monitor.enabled() && batch_index == 0;
      if (sampling_activations) {
        health_monitor.BeginActivationSampling();
      }
      {
        PhaseTimer timer(&epoch_report.phase_seconds, obs::kPhaseForward);
        TGCRN_TRACE_SCOPE("train.forward");
        ag::Variable pred = model->Forward(batch);
        loss = ag::MaeLoss(pred, ag::Variable(batch.y_scaled));
        const float aux_weight = model->auxiliary_weight();
        if (aux_weight > 0.0f) {
          ag::Variable aux = model->AuxiliaryLoss(batch, &rng);
          if (aux.defined()) {
            loss = ag::Add(loss, ag::MulScalar(aux, aux_weight));
          }
        }
      }
      if (sampling_activations) health_monitor.EndActivationSampling();
      {
        PhaseTimer timer(&epoch_report.phase_seconds, obs::kPhaseBackward);
        TGCRN_TRACE_SCOPE("train.backward");
        loss.Backward();
      }
      {
        PhaseTimer timer(&epoch_report.phase_seconds, obs::kPhaseClip);
        TGCRN_TRACE_SCOPE("train.clip");
        grad_norm_last = optim::ClipGradNorm(adam.params(), config.clip_norm);
        grad_norm_sum += grad_norm_last;
      }
      // Sentinel: a NaN/Inf anywhere in the gradients propagates through
      // the clip reduction, so this finiteness test detects it for free.
      if (health_monitor.enabled() && !std::isfinite(grad_norm_last)) {
        health_monitor.HandleNonFiniteGradients(global_step);
      }
      {
        PhaseTimer timer(&epoch_report.phase_seconds, obs::kPhaseAdam);
        TGCRN_TRACE_SCOPE("train.adam_step");
        adam.Step();
      }
      loss_sum += loss.value().item();
      ++batch_index;
    }
    const double train_loss =
        batches.empty() ? 0.0 : loss_sum / static_cast<double>(batches.size());
    result.train_loss_history.push_back(train_loss);

    double val_mae = 0.0;
    {
      PhaseTimer timer(&epoch_report.phase_seconds, obs::kPhaseEval);
      TGCRN_TRACE_SCOPE("train.eval");
      val_mae = SplitMae(model, dataset, data::ForecastDataset::Split::kVal,
                         config.metric_options, config.batch_size);
    }
    result.val_mae_history.push_back(val_mae);

    epoch_report.train_loss = train_loss;
    epoch_report.val_mae = val_mae;
    epoch_report.lr = adam.lr();  // LR the epoch actually trained with
    epoch_report.grad_norm_last = grad_norm_last;
    epoch_report.grad_norm_mean =
        batches.empty() ? 0.0
                        : grad_norm_sum / static_cast<double>(batches.size());
    if (health_monitor.enabled()) {
      PhaseTimer timer(&epoch_report.phase_seconds, obs::kPhaseHealth);
      TGCRN_TRACE_SCOPE("train.health");
      epoch_report.has_health = true;
      health_monitor.CollectInto(&epoch_report.health);
      if (!batches.empty()) {
        // Learned-graph diagnostics on a deterministic sample: the epoch's
        // first training batch.
        const data::Batch sample = dataset.MakeBatch(
            data::ForecastDataset::Split::kTrain, batches.front());
        epoch_report.health.has_graph =
            model->CollectGraphHealth(sample, &epoch_report.health.graph);
      }
    }
    if (config.prof.enabled) {
      PhaseTimer timer(&epoch_report.phase_seconds, obs::kPhaseProf);
      obs::ProfReport snapshot = obs::CollectProfReport();
      epoch_report.has_prof = true;
      epoch_report.prof = snapshot.DeltaFrom(prof_prev);
      prof_prev = std::move(snapshot);
    }
    epoch_report.seconds = SecondsSince(epoch_start);
    epoch_seconds_sum += epoch_report.seconds;
    if (!config.report_path.empty() &&
        !obs::RunReport::AppendJsonLine(config.report_path,
                                        epoch_report.ToJson())) {
      TGCRN_LOG(Warning) << "failed to append epoch report to "
                         << config.report_path;
    }
    result.report.epochs.push_back(std::move(epoch_report));

    scheduler.Step(epoch);
    ++result.epochs_run;

    if (stopper.Update(static_cast<float>(val_mae))) snapshot();
    if (config.verbose) {
      TGCRN_LOG(Info) << model->name() << " epoch " << epoch
                      << " train_loss=" << train_loss
                      << " val_mae=" << val_mae << " lr=" << adam.lr();
    }
    if (stopper.ShouldStop()) {
      if (config.verbose) {
        TGCRN_LOG(Info) << model->name() << " early stop at epoch " << epoch;
      }
      break;
    }
  }
  restore();

  result.total_seconds = SecondsSince(train_start);
  result.seconds_per_epoch =
      result.epochs_run > 0 ? epoch_seconds_sum / result.epochs_run : 0.0;
  result.per_horizon =
      EvaluateModel(model, dataset, data::ForecastDataset::Split::kTest,
                    config.metric_options, config.batch_size);
  result.average = metrics::AverageMetrics(result.per_horizon);

  result.report.epochs_run = result.epochs_run;
  result.report.total_seconds = result.total_seconds;
  for (const auto& m : result.per_horizon) {
    obs::HorizonMetricsReport h;
    h.mae = m.mae;
    h.rmse = m.rmse;
    h.mape = m.mape;
    result.report.test_per_horizon.push_back(h);
  }
  result.report.test_average.mae = result.average.mae;
  result.report.test_average.rmse = result.average.rmse;
  result.report.test_average.mape = result.average.mape;
  if (!config.report_path.empty() &&
      !obs::RunReport::AppendJsonLine(config.report_path,
                                      result.report.SummaryJson())) {
    TGCRN_LOG(Warning) << "failed to append run summary to "
                       << config.report_path;
  }
  return result;
}

}  // namespace core
}  // namespace tgcrn
