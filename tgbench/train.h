// Copyright 2026 TGCRN Reproduction Authors
// The training section of a workload: TGCRN training on a metro
// simulator stand-in, driven through the public calls in the order
// core::TrainAndEvaluate makes them (MakeBatch, ZeroGrad, StepArenaScope,
// Forward, MaeLoss, AuxiliaryLoss, Backward, ClipGradNorm, Adam::Step).
//
// End-to-end run: a few steps at the default thread width, no-grad
// core::EvaluateModel passes over the val split on their weights, and a
// second learner replaying the same batches at one thread (losses must
// match bit for bit), which then steps on in slices between the serving
// rounds.
// Traced run: the same step loop untraced and then with a span around
// every call, registry and thread-pool counter deltas, a step-API pass
// (InitState + P x EncoderStep + DecoderForecast), and standalone
// TagSL / GCGRUCell calls at the workload's shapes.
#ifndef TGBENCH_TRAIN_H_
#define TGBENCH_TRAIN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/tgcrn.h"
#include "data/dataset.h"
#include "optim/optimizer.h"
#include "result.h"
#include "spans.h"

namespace tgbench {

struct TrainSpec {
  // datagen::SimulateMetro inputs.
  int64_t stations = 32;
  int64_t days = 28;
  int64_t steps_per_day = 72;
  int64_t max_od_pairs_per_station = 0;  // > 0: neighbor-limited OD mode
  double target_mean_inflow = 320.0;
  // Windows and batches.
  int64_t input_steps = 12;   // P
  int64_t output_steps = 12;  // Q
  int64_t batch_size = 16;
  // Model; num_nodes, horizon and steps_per_day come from the fields above.
  tgcrn::core::TGCRNConfig model;
};

// N=32, 28 days x 72 slots, P=Q=12, batch 16, default TGCRNConfig.
TrainSpec MetroDenseTrainSpec();
// N=1024, 7 days x 18 slots, 8 OD pairs per station, P=4, Q=2, batch 4;
// top-16 sparse graph, 1 layer, H=8, d_nu=8, d_tau=4 (the Table 8 sweep).
TrainSpec CitySparseTrainSpec();

class TrainSection {
 public:
  // Set-up: generates the data from `seed`, builds the dataset, the batch
  // order, the model and optimizer, and runs one warm-up step.
  TrainSection(const TrainSpec& spec, uint64_t seed);

  // End-to-end run, in three calls. RunChecks makes the check steps and
  // eval passes and adds eval.val_mae; StepOneThread steps the one-thread
  // learner for about `seconds` (at least one step), as often as the
  // caller likes; Finish counts the steps and adds train.samples_per_s.1t.
  void RunChecks(RunResult* result);
  void StepOneThread(double seconds);
  void Finish(RunResult* result);
  // Per-layer phases within about `seconds`; adds the training layers'
  // metrics (see README.md).
  void RunTraced(double seconds, RunResult* result);

 private:
  // One model + optimizer + TDL sampling stream, always built from the
  // same fixed seed, so two learners see identical arithmetic.
  struct Learner {
    std::unique_ptr<tgcrn::core::TGCRN> model;
    std::unique_ptr<tgcrn::optim::Adam> adam;
    tgcrn::Rng aux_rng{0};
    int64_t steps = 0;
    std::vector<float> losses;
  };
  std::unique_ptr<Learner> NewLearner() const;
  // One training step on the learner's next batch; returns the loss.
  float Step(Learner* learner, SpanRecorder* spans);
  // Wall seconds of each step, stepping until `seconds` have passed and
  // at least kMinSteps steps ran.
  std::vector<double> TimedSteps(Learner* learner, double seconds,
                                 SpanRecorder* spans);
  // Per-call timings of standalone TagSL / GCGRUCell calls (see .cc).
  void ProbeGraphAndCell(RunResult* result, double forward_ms);
  void ProbeStepApi(SpanRecorder* spans);
  // Counts the learners' steps and non-finite losses.
  void CountSteps(const std::vector<const Learner*>& learners,
                  RunResult* result) const;

  TrainSpec spec_;
  std::unique_ptr<tgcrn::data::ForecastDataset> dataset_;
  std::vector<std::vector<int64_t>> batches_;  // train-split batch order
  std::unique_ptr<Learner> learner_;           // the full-width learner
  std::unique_ptr<Learner> serial_;            // the one-thread learner
  std::vector<double> serial_times_;           // its timed steps, seconds
};

}  // namespace tgbench

#endif  // TGBENCH_TRAIN_H_
