// Copyright 2026 TGCRN Reproduction Authors
#include "train.h"

#include <cmath>
#include <cstring>
#include <optional>
#include <string>

#include "autograd/ops.h"
#include "common/thread_pool.h"
#include "core/time_encoders.h"
#include "core/trainer.h"
#include "datagen/metro_sim.h"
#include "metrics/metrics.h"
#include "obs/metrics.h"
#include "stats.h"

namespace tgbench {
namespace {

using tgcrn::Tensor;
using tgcrn::ag::Variable;
using Split = tgcrn::data::ForecastDataset::Split;

// Weights and the TDL sampling stream are fixed; the workload seed only
// picks the data and the batch order.
constexpr uint64_t kModelSeed = 20240;
constexpr uint64_t kAuxSeed = 99;
constexpr float kClipNorm = 5.0f;
constexpr int64_t kMinSteps = 4;
// eval.val_mae is taken on the weights after this many optimizer steps
// (the warm-up step included), so it does not depend on the timing.
constexpr int64_t kMaeSteps = 4;
constexpr int kMinEvalPasses = 2;
constexpr int kProbeReps = 5;

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Uniform values in [-1, 1).
Tensor RandomTensor(const tgcrn::Shape& shape, tgcrn::Rng* rng) {
  Tensor t(shape);
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.mutable_data()[i] = static_cast<float>(2.0 * rng->NextDouble() - 1.0);
  }
  return t;
}

// The registry counters the traced step loop reports per step.
struct CounterSnapshot {
  int64_t forward_ops, backward_ops, arena_nodes, allocations, pool_hits,
      pool_misses, gemm_calls;
  tgcrn::common::PoolStats pool;

  static CounterSnapshot Take() {
    tgcrn::obs::Registry& reg = tgcrn::obs::Registry::Global();
    auto value = [&reg](const char* name) {
      return reg.GetCounter(name)->Value();
    };
    return {value("autograd.forward_ops"),
            value("autograd.backward_ops"),
            value("arena.nodes_allocated"),
            value("tensor.allocations"),
            value("tensor.pool_hit"),
            value("tensor.pool_miss"),
            value("simd.gemm_scalar_calls") + value("simd.gemm_avx2_calls"),
            tgcrn::common::GetPoolStats()};
  }
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double FirstQuartile(const std::vector<double>& samples) {
  return ExactPercentile(samples, 25.0).value;
}

}  // namespace

TrainSpec MetroDenseTrainSpec() { return TrainSpec{}; }

TrainSpec CitySparseTrainSpec() {
  TrainSpec spec;
  spec.stations = 1024;
  spec.days = 7;
  spec.steps_per_day = 18;
  spec.max_od_pairs_per_station = 8;
  spec.target_mean_inflow = 40.0;
  spec.input_steps = 4;
  spec.output_steps = 2;
  spec.batch_size = 4;
  spec.model.graph_topk = 16;
  spec.model.num_layers = 1;
  spec.model.hidden_dim = 8;
  spec.model.node_embed_dim = 8;
  spec.model.time_embed_dim = 4;
  return spec;
}

TrainSection::TrainSection(const TrainSpec& spec, uint64_t seed)
    : spec_(spec) {
  tgcrn::datagen::MetroSimConfig sim;
  sim.num_stations = spec.stations;
  sim.num_days = spec.days;
  sim.steps_per_day = spec.steps_per_day;
  sim.seed = seed;
  sim.target_mean_inflow = spec.target_mean_inflow;
  sim.keep_od_ground_truth = false;
  sim.max_od_pairs_per_station = spec.max_od_pairs_per_station;
  tgcrn::datagen::MetroSimOutput out = tgcrn::datagen::SimulateMetro(sim);

  tgcrn::data::ForecastDataset::Options options;
  options.input_steps = spec.input_steps;
  options.output_steps = spec.output_steps;
  dataset_ = std::make_unique<tgcrn::data::ForecastDataset>(
      std::move(out.data), options);
  spec_.model.num_nodes = spec.stations;
  spec_.model.horizon = spec.output_steps;
  spec_.model.steps_per_day = spec.steps_per_day;

  tgcrn::Rng order_rng(seed ^ 0x5bd1e995ULL);
  batches_ = dataset_->EpochBatches(Split::kTrain, spec.batch_size, &order_rng);

  learner_ = NewLearner();
  Step(learner_.get(), nullptr);  // warm-up: pools, arena, lazy set-up
}

std::unique_ptr<TrainSection::Learner> TrainSection::NewLearner() const {
  auto learner = std::make_unique<Learner>();
  tgcrn::Rng rng(kModelSeed);
  learner->model = std::make_unique<tgcrn::core::TGCRN>(spec_.model, &rng);
  // The paper's recipe, as TrainAndEvaluate sets it up.
  learner->adam = std::make_unique<tgcrn::optim::Adam>(
      learner->model->Parameters(), 1e-3f, 0.9f, 0.999f, 1e-8f, 1e-4f);
  learner->aux_rng.Seed(kAuxSeed);
  learner->model->SetTraining(true);
  return learner;
}

float TrainSection::Step(Learner* learner, SpanRecorder* spans) {
  const std::vector<int64_t>& ids =
      batches_[learner->steps % static_cast<int64_t>(batches_.size())];
  ++learner->steps;
  tgcrn::core::TGCRN& model = *learner->model;
  Span step(spans, "train.step");
  tgcrn::data::Batch batch;
  {
    Span s(spans, "data.make_batch");
    batch = dataset_->MakeBatch(Split::kTrain, ids);
  }
  {
    Span s(spans, "model.zero_grad");
    model.ZeroGrad();
  }
  std::optional<tgcrn::ag::StepArenaScope> arena;
  {
    Span s(spans, "autograd.arena_enter");
    arena.emplace();
  }
  float loss_value = 0.0f;
  {
    // Graph handles must be gone before the arena scope closes.
    Variable pred, loss;
    {
      Span s(spans, "tgcrn.forward");
      pred = model.Forward(batch);
    }
    {
      Span s(spans, "loss.mae");
      loss = tgcrn::ag::MaeLoss(pred, Variable(batch.y_scaled));
    }
    const float aux_weight = model.auxiliary_weight();
    if (aux_weight > 0.0f) {
      Span s(spans, "tdl.aux_loss");
      Variable aux = model.AuxiliaryLoss(batch, &learner->aux_rng);
      if (aux.defined()) {
        loss = tgcrn::ag::Add(loss, tgcrn::ag::MulScalar(aux, aux_weight));
      }
    }
    {
      Span s(spans, "autograd.backward");
      loss.Backward();
    }
    {
      Span s(spans, "optim.clip");
      tgcrn::optim::ClipGradNorm(learner->adam->params(), kClipNorm);
    }
    {
      Span s(spans, "optim.adam");
      learner->adam->Step();
    }
    loss_value = loss.value().item();
  }
  {
    Span s(spans, "autograd.arena_teardown");
    arena.reset();
  }
  learner->losses.push_back(loss_value);
  return loss_value;
}

std::vector<double> TrainSection::TimedSteps(Learner* learner, double seconds,
                                             SpanRecorder* spans) {
  std::vector<double> times;
  const int64_t start = NowNs();
  while (static_cast<int64_t>(times.size()) < kMinSteps ||
         SecondsSince(start) < seconds) {
    const int64_t t0 = NowNs();
    Step(learner, spans);
    times.push_back(SecondsSince(t0));
  }
  return times;
}

void TrainSection::CountSteps(const std::vector<const Learner*>& learners,
                              RunResult* result) const {
  int64_t attempted = 0, failed = 0;
  for (const Learner* learner : learners) {
    for (float loss : learner->losses) {
      ++attempted;
      if (!std::isfinite(loss)) ++failed;
    }
  }
  result->CountOps(attempted, failed);
}

void TrainSection::RunChecks(RunResult* result) {
  // The full-width learner (which continues from the set-up warm-up step)
  // makes kMaeSteps steps, kMinEvalPasses eval passes run over the val
  // split on a copy of its weights, and a fresh one-thread learner replays
  // the same warm-up and batches.
  Learner* full = learner_.get();
  {
    tgcrn::common::ScopedNumThreads one(1);
    serial_ = NewLearner();
    Step(serial_.get(), nullptr);
  }
  std::vector<double> full_times, eval_times;
  while (full->steps < kMaeSteps) {
    const int64_t t0 = NowNs();
    Step(full, nullptr);
    full_times.push_back(SecondsSince(t0));
  }
  std::unique_ptr<Learner> evaluator = NewLearner();
  auto from = full->model->Parameters();
  auto to = evaluator->model->Parameters();
  for (size_t i = 0; i < to.size(); ++i) {
    to[i].SetValue(from[i].value().Clone());
  }
  std::optional<double> val_mae;
  while (static_cast<int>(eval_times.size()) < kMinEvalPasses) {
    const int64_t t0 = NowNs();
    const auto per_horizon = tgcrn::core::EvaluateModel(
        evaluator->model.get(), *dataset_, Split::kVal, {}, spec_.batch_size);
    eval_times.push_back(SecondsSince(t0));
    const double mae = tgcrn::metrics::AverageMetrics(per_horizon).mae;
    if (!std::isfinite(mae)) result->Fail("val MAE is not finite");
    if (val_mae && *val_mae != mae) {
      result->Fail("val MAE differs between identical eval passes");
    }
    val_mae = mae;
  }
  while (serial_->steps < full->steps) StepOneThread(0.0);
  for (size_t i = 0; i < full->losses.size(); ++i) {
    if (!SameBits(full->losses[i], serial_->losses[i])) {
      result->Fail("step " + std::to_string(i) + " loss differs between " +
                   std::to_string(tgcrn::common::GetNumThreads()) +
                   " threads and 1 thread");
      break;
    }
  }

  // The default-width throughputs use the first quartile of the operation
  // times. On a host that steals vCPUs, a step of the 4-thread pool stalls
  // whenever one worker is descheduled: over four 30-s windows the median
  // step ranged over 224-365 ms, the first quartile over 205-256 ms. They
  // are printed here, from the few check steps and passes, but reported
  // only by the traced run: on city-sparse they spread by 55% across runs,
  // wider than the largest bound an end-to-end metric may carry.
  std::printf("train.samples_per_s      %10.4f samples/s\n",
              static_cast<double>(spec_.batch_size) /
                  FirstQuartile(full_times));
  std::printf("eval.samples_per_s       %10.4f samples/s\n",
              static_cast<double>(dataset_->NumValSamples()) /
                  FirstQuartile(eval_times));
  result->Add("eval.val_mae", val_mae.value_or(0.0), "raw");
}

void TrainSection::StepOneThread(double seconds) {
  tgcrn::common::ScopedNumThreads one(1);
  const int64_t start = NowNs();
  do {
    const int64_t t0 = NowNs();
    Step(serial_.get(), nullptr);
    serial_times_.push_back(SecondsSince(t0));
  } while (SecondsSince(start) < seconds);
}

void TrainSection::Finish(RunResult* result) {
  CountSteps({learner_.get(), serial_.get()}, result);
  // The host runs in fast and slow spells that can outlast a 14-s
  // training section, so the one-thread steps are spread over the whole
  // run and their mean is taken, which moves smoothly with the share of
  // each spell where a median or quartile jumps between them. With all
  // steps in one section, the median step spread by up to 25% across
  // runs.
  std::printf("train.samples_per_s.1t over %zu steps\n",
              serial_times_.size());
  result->Add("train.samples_per_s.1t",
              static_cast<double>(spec_.batch_size) / Mean(serial_times_),
              "samples/s");
}

void TrainSection::ProbeStepApi(SpanRecorder* spans) {
  tgcrn::core::TGCRN& model = *learner_->model;
  const tgcrn::data::Batch batch =
      dataset_->MakeBatch(Split::kTrain, batches_.front());
  const int64_t p = batch.x.size(1);
  for (int rep = 0; rep < kProbeReps; ++rep) {
    tgcrn::ag::StepArenaScope arena;
    tgcrn::core::TGCRNState state = model.InitState(batch.batch_size());
    Variable x_all{batch.x};
    for (int64_t t = 0; t < p; ++t) {
      Variable x = tgcrn::ag::Squeeze(tgcrn::ag::Slice(x_all, 1, t, t + 1), 1);
      std::vector<int64_t> slots;
      for (const auto& row : batch.x_slots) slots.push_back(row[t]);
      Span s(spans, "tgcrn.encoder_step");
      model.EncoderStep(x, slots, &state);
    }
    Span s(spans, "tgcrn.decoder_forecast");
    Variable pred = model.DecoderForecast(&state, batch.y_slots);
  }
}

// Standalone TagSL and GCGRUCell calls at the workload's shapes, one set
// per layer (layer 0 sees the d input channels, deeper layers the hidden
// state, as inside TGCRN). Forward and backward are timed separately;
// backward seeds the output with ones. The cell's adjacency, embeddings
// and state are leaves, so its backward stops at the cell.
void TrainSection::ProbeGraphAndCell(RunResult* result, double forward_ms) {
  using tgcrn::core::TagSL;
  const tgcrn::core::TGCRNConfig& mc = spec_.model;
  const int64_t b = spec_.batch_size;
  const int64_t n = mc.num_nodes;
  const bool sparse = mc.graph_topk > 0;
  tgcrn::Rng rng(kModelSeed + 1);
  tgcrn::core::DiscreteTimeEmbedding time_encoder(mc.steps_per_day,
                                                  mc.time_embed_dim, &rng);
  TagSL::Options options;
  options.num_nodes = n;
  options.node_dim = mc.node_embed_dim;
  options.alpha = mc.alpha;
  TagSL tagsl(options, &time_encoder, &rng);

  std::vector<int64_t> slots, prev;
  for (int64_t i = 0; i < b; ++i) {
    const int64_t slot =
        static_cast<int64_t>(rng.NextUint64() % mc.steps_per_day);
    slots.push_back(slot);
    prev.push_back((slot + mc.steps_per_day - 1) % mc.steps_per_day);
  }
  const Variable time_embed(time_encoder.Encode(slots).value(), true);

  std::vector<double> graph_fwd, graph_bwd, cell_fwd, cell_bwd;
  for (int64_t layer = 0; layer < mc.num_layers; ++layer) {
    const int64_t c = layer == 0 ? mc.input_dim : mc.hidden_dim;
    const Variable x(RandomTensor({b, n, c}, &rng), layer > 0);
    const Variable h(RandomTensor({b, n, mc.hidden_dim}, &rng), true);
    tgcrn::core::GCGRUCell cell(c, mc.hidden_dim, mc.node_embed_dim,
                                mc.time_embed_dim, &rng);
    std::vector<double> gf, gb, cf, cb;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      tgcrn::core::Adjacency adj;
      {
        tgcrn::ag::StepArenaScope arena;
        Variable graph;
        int64_t t0 = NowNs();
        if (sparse) {
          tgcrn::ag::SparseGraph g =
              tagsl.BuildSparseGraph(x, slots, prev, mc.graph_topk);
          gf.push_back(SecondsSince(t0) * 1e6);
          graph = g.values;
          adj = tgcrn::core::Adjacency(tgcrn::ag::SparseGraph{
              g.index, Variable(g.values.value(), true)});
        } else {
          graph = tagsl.BuildGraph(x, slots, prev);
          gf.push_back(SecondsSince(t0) * 1e6);
          adj = tgcrn::core::Adjacency(Variable(graph.value(), true));
        }
        const Tensor ones = Tensor::Ones(graph.shape());
        t0 = NowNs();
        graph.Backward(ones);
        gb.push_back(SecondsSince(t0) * 1e6);
      }
      tgcrn::ag::StepArenaScope arena;
      int64_t t0 = NowNs();
      Variable next =
          cell.Forward(x, h, adj, tagsl.node_embedding(), time_embed);
      cf.push_back(SecondsSince(t0) * 1e6);
      const Tensor ones = Tensor::Ones(next.shape());
      t0 = NowNs();
      next.Backward(ones);
      cb.push_back(SecondsSince(t0) * 1e6);
    }
    graph_fwd.push_back(Median(gf));
    graph_bwd.push_back(Median(gb));
    cell_fwd.push_back(Median(cf));
    cell_bwd.push_back(Median(cb));
  }

  // Refresh interval 1: every encoder and decoder step builds one graph
  // and runs one cell per layer.
  const double calls = static_cast<double>(
      (spec_.input_steps + spec_.output_steps) * mc.num_layers);
  const double graph_fwd_us = Mean(graph_fwd);
  const double cell_fwd_us = Mean(cell_fwd);
  result->Add("tagsl.graph_fwd_us", graph_fwd_us, "us");
  result->Add("tagsl.graph_bwd_us", Mean(graph_bwd), "us");
  result->Add("tagsl.calls_per_step", calls, "count");
  result->Add("gcgru.cell_fwd_us", cell_fwd_us, "us");
  result->Add("gcgru.cell_bwd_us", Mean(cell_bwd), "us");
  result->Add("gcgru.calls_per_step", calls, "count");
  result->Add("tgcrn.forward_unattributed_share",
              Ratio(forward_ms - calls * (graph_fwd_us + cell_fwd_us) / 1e3,
                    forward_ms),
              "ratio");
}

void TrainSection::RunTraced(double seconds, RunResult* result) {
  Learner* learner = learner_.get();
  const std::vector<double> untraced =
      TimedSteps(learner, 0.4 * seconds, nullptr);
  result->Add("train.samples_per_s",
              static_cast<double>(spec_.batch_size) / FirstQuartile(untraced),
              "samples/s");
  std::vector<double> eval_times;
  for (int pass = 0; pass < kMinEvalPasses; ++pass) {
    const int64_t t0 = NowNs();
    tgcrn::core::EvaluateModel(learner->model.get(), *dataset_, Split::kVal,
                               {}, spec_.batch_size);
    eval_times.push_back(SecondsSince(t0));
  }
  result->Add("eval.samples_per_s",
              static_cast<double>(dataset_->NumValSamples()) /
                  FirstQuartile(eval_times),
              "samples/s");

  SpanRecorder spans;
  const CounterSnapshot before = CounterSnapshot::Take();
  const std::vector<double> traced = TimedSteps(learner, 0.4 * seconds, &spans);
  const CounterSnapshot after = CounterSnapshot::Take();
  CountSteps({learner}, result);
  const double steps = static_cast<double>(traced.size());
  auto per_step = [steps](int64_t delta) {
    return static_cast<double>(delta) / steps;
  };

  result->Add("data.make_batch_ms", Median(spans.DurationsMs("data.make_batch")),
              "ms");
  const double forward_ms = Median(spans.DurationsMs("tgcrn.forward"));
  result->Add("tgcrn.forward_ms", forward_ms, "ms");
  result->Add("tdl.aux_loss_ms", Median(spans.DurationsMs("tdl.aux_loss")),
              "ms");
  result->Add("autograd.backward_ms",
              Median(spans.DurationsMs("autograd.backward")), "ms");
  result->Add("autograd.forward_ops_per_step",
              per_step(after.forward_ops - before.forward_ops), "count");
  result->Add("autograd.backward_ops_per_step",
              per_step(after.backward_ops - before.backward_ops), "count");
  result->Add("arena.nodes_per_step",
              per_step(after.arena_nodes - before.arena_nodes), "count");
  result->Add("optim.clip_ms", Median(spans.DurationsMs("optim.clip")), "ms");
  result->Add("optim.adam_ms", Median(spans.DurationsMs("optim.adam")), "ms");
  const int64_t pf_calls =
      after.pool.parallel_for_calls - before.pool.parallel_for_calls;
  result->Add("threadpool.parallel_for_per_step", per_step(pf_calls), "count");
  result->Add("threadpool.serial_share",
              Ratio(static_cast<double>(after.pool.serial_runs -
                                        before.pool.serial_runs),
                    static_cast<double>(pf_calls)),
              "ratio");
  result->Add("threadpool.chunks_per_call",
              Ratio(static_cast<double>(after.pool.chunks_executed -
                                        before.pool.chunks_executed),
                    static_cast<double>(pf_calls)),
              "count");
  result->Add("tensor.allocations_per_step",
              per_step(after.allocations - before.allocations), "count");
  const int64_t hits = after.pool_hits - before.pool_hits;
  result->Add("tensor.pool_hit_ratio",
              Ratio(static_cast<double>(hits),
                    static_cast<double>(hits + after.pool_misses -
                                        before.pool_misses)),
              "ratio");
  result->Add("simd.gemm_calls_per_step",
              per_step(after.gemm_calls - before.gemm_calls), "count");
  result->Add("train.unattributed_ms", Median(spans.SelfMs("train.step")),
              "ms");
  result->Add("trace.overhead_pct",
              (Median(traced) / Median(untraced) - 1.0) * 100.0, "%");

  ProbeStepApi(&spans);
  result->Add("tgcrn.encoder_step_ms",
              Median(spans.DurationsMs("tgcrn.encoder_step")), "ms");
  result->Add("tgcrn.decoder_ms",
              Median(spans.DurationsMs("tgcrn.decoder_forecast")), "ms");
  ProbeGraphAndCell(result, forward_ms);

  for (const SpanRecorder::Summary& s : spans.Summarize()) {
    std::fprintf(stderr, "span %-26s n=%-5lld total %10.3f ms  self %10.3f ms\n",
                 s.name.c_str(), static_cast<long long>(s.count), s.total_ms,
                 s.self_ms);
  }
}

}  // namespace tgbench
