// Copyright 2026 TGCRN Reproduction Authors
// Tests for the paper's core machinery: TagSL graph construction (Eq 6-9),
// time-distance sampling (Algorithm 1) and the discrepancy loss (Eq 3),
// GCGRU recurrence (Eq 13-16), and the full TGCRN encoder-decoder.
#include <cmath>

#include <gtest/gtest.h>

#include "core/gcgru.h"
#include "core/tagsl.h"
#include "core/tgcrn.h"
#include "core/time_discrepancy.h"
#include "core/time_encoders.h"
#include "graph/graph_ops.h"
#include "optim/optimizer.h"

namespace tgcrn {
namespace {

using ag::Variable;

// --- Time encoders -----------------------------------------------------------

TEST(TimeEncodersTest, DiscreteEmbeddingShapesAndGrad) {
  Rng rng(1);
  core::DiscreteTimeEmbedding enc(72, 8, &rng);
  Variable e = enc.Encode({0, 5, 71});
  EXPECT_EQ(e.shape(), (Shape{3, 8}));
  ag::SumAll(e).Backward();
  EXPECT_TRUE(enc.weight().has_grad());
  EXPECT_EQ(enc.num_slots(), 72);
}

TEST(TimeEncodersTest, Time2vecPeriodicChannels) {
  Rng rng(2);
  core::Time2vecEncoder enc(6, 72, &rng);
  Variable a = enc.Encode({10});
  EXPECT_EQ(a.shape(), (Shape{1, 6}));
  // Periodic channels are bounded by [-1, 1].
  for (int64_t c = 1; c < 6; ++c) {
    EXPECT_LE(std::fabs(a.value().at({0, c})), 1.0f);
  }
  // Gradients reach the frequency parameters.
  ag::SumAll(ag::Mul(a, a)).Backward();
  for (const auto& p : enc.Parameters()) EXPECT_TRUE(p.has_grad());
}

TEST(TimeEncodersTest, ContinuousEncoderNormAndDeterminism) {
  Rng rng(3);
  core::ContinuousTimeEncoder enc(8, 72, &rng);
  Variable a = enc.Encode({7});
  Variable b = enc.Encode({7});
  EXPECT_TRUE(a.value().AllClose(b.value(), 0.0f));
  // cos^2 + sin^2 structure: squared norm = half * (1/half) = 1.
  EXPECT_NEAR(a.value().Mul(a.value()).SumAll(), 1.0f, 1e-4f);
}

// --- TagSL -------------------------------------------------------------------

core::TagSL::Options TagslOptions(int64_t n, bool use_time, bool use_pdf) {
  core::TagSL::Options options;
  options.num_nodes = n;
  options.node_dim = 6;
  options.alpha = 0.3f;
  options.use_time = use_time;
  options.use_pdf = use_pdf;
  return options;
}

TEST(TagSLTest, GraphIsRowStochastic) {
  Rng rng(4);
  core::DiscreteTimeEmbedding enc(72, 4, &rng);
  core::TagSL tagsl(TagslOptions(5, true, true), &enc, &rng);
  Variable x(Tensor::RandUniform({3, 5, 2}, -1, 1, &rng));
  Variable adj = tagsl.BuildGraph(x, {1, 2, 3}, {0, 1, 2});
  EXPECT_EQ(adj.shape(), (Shape{3, 5, 5}));
  for (int64_t b = 0; b < 3; ++b) {
    EXPECT_TRUE(graph::IsRowStochastic(adj.value().Slice(0, b, b + 1)
                                           .Squeeze(0)))
        << "batch " << b;
  }
}

TEST(TagSLTest, TimeAwarenessChangesGraphOverTime) {
  // With identical node states, different time slots must still produce
  // different adjacencies (the time-aware property) ...
  Rng rng(5);
  core::DiscreteTimeEmbedding enc(72, 4, &rng);
  core::TagSL tagsl(TagslOptions(4, true, true), &enc, &rng);
  Variable x(Tensor::RandUniform({1, 4, 2}, -1, 1, &rng));
  Tensor a1 = tagsl.BuildRawGraph(x, {10}, {9}).value();
  Tensor a2 = tagsl.BuildRawGraph(x, {40}, {39}).value();
  EXPECT_GT(Tensor::MaxAbsDiff(a1, a2), 1e-6f);
}

TEST(TagSLTest, StaticVariantIgnoresTime) {
  // ... while the self-learning ablation (w/o tagsl) must not.
  Rng rng(6);
  core::TagSL tagsl(TagslOptions(4, false, false), nullptr, &rng);
  Variable x(Tensor::RandUniform({1, 4, 2}, -1, 1, &rng));
  Tensor a1 = tagsl.BuildRawGraph(x, {10}, {9}).value();
  Tensor a2 = tagsl.BuildRawGraph(x, {40}, {39}).value();
  EXPECT_NEAR(Tensor::MaxAbsDiff(a1, a2), 0.0f, 1e-7f);
}

TEST(TagSLTest, PdfReactsToNodeState) {
  // With the periodic discriminant, different node states (weekday vs
  // weekend patterns) modulate the same structural graph.
  Rng rng(7);
  core::DiscreteTimeEmbedding enc(72, 4, &rng);
  core::TagSL with_pdf(TagslOptions(4, true, true), &enc, &rng);
  Variable xa(Tensor::RandUniform({1, 4, 2}, -1, 1, &rng));
  Variable xb(Tensor::RandUniform({1, 4, 2}, -1, 1, &rng));
  Tensor a = with_pdf.BuildRawGraph(xa, {10}, {9}).value();
  Tensor b = with_pdf.BuildRawGraph(xb, {10}, {9}).value();
  EXPECT_GT(Tensor::MaxAbsDiff(a, b), 1e-6f);

  core::TagSL no_pdf(TagslOptions(4, true, false), &enc, &rng);
  Tensor c = no_pdf.BuildRawGraph(xa, {10}, {9}).value();
  Tensor d = no_pdf.BuildRawGraph(xb, {10}, {9}).value();
  EXPECT_NEAR(Tensor::MaxAbsDiff(c, d), 0.0f, 1e-7f);
}

TEST(TagSLTest, GradientsReachEmbeddings) {
  Rng rng(8);
  core::DiscreteTimeEmbedding enc(72, 4, &rng);
  core::TagSL tagsl(TagslOptions(4, true, true), &enc, &rng);
  Variable x(Tensor::RandUniform({2, 4, 2}, -1, 1, &rng));
  Variable adj = tagsl.BuildGraph(x, {3, 4}, {2, 3});
  ag::SumAll(ag::Mul(adj, adj)).Backward();
  EXPECT_TRUE(tagsl.node_embedding().has_grad());
  EXPECT_TRUE(enc.weight().has_grad());
}

// --- Time discrepancy learning ----------------------------------------------

TEST(TimeDiscrepancyTest, CircularDistance) {
  EXPECT_EQ(core::CircularSlotDistance(0, 71, 72), 1);
  EXPECT_EQ(core::CircularSlotDistance(0, 36, 72), 36);
  EXPECT_EQ(core::CircularSlotDistance(10, 10, 72), 0);
  EXPECT_EQ(core::CircularSlotDistance(70, 2, 72), 4);
}

std::vector<std::vector<int64_t>> MakeSlotRows(int64_t rows, int64_t len,
                                               int64_t spd, Rng* rng) {
  std::vector<std::vector<int64_t>> out;
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t start = rng->UniformInt(0, spd - 1);
    std::vector<int64_t> row;
    for (int64_t i = 0; i < len; ++i) row.push_back((start + i) % spd);
    out.push_back(std::move(row));
  }
  return out;
}

// Property sweep over seeds: Algorithm 1's invariants hold.
class SamplingPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SamplingPropertyTest, AlgorithmOneInvariants) {
  Rng rng(GetParam());
  const int64_t spd = 72, len = 8, gamma = 2;
  const auto rows = MakeSlotRows(6, len, spd, &rng);
  const auto s = core::SampleTimeDistances(rows, gamma, &rng);
  ASSERT_EQ(s.anchor.size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    // Every sample is a valid slot id.
    for (int64_t v : {s.anchor[i], s.adjacent[i], s.mid[i], s.distant[i]}) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, spd);
    }
    // Anchor and adjacent come from row i and are within gamma slots
    // (circularly, because windows wrap midnight).
    EXPECT_LE(core::CircularSlotDistance(s.anchor[i], s.adjacent[i], spd),
              gamma);
    // Mid-distance lies beyond the adjacent range but within the window.
    EXPECT_GT(core::CircularSlotDistance(s.anchor[i], s.mid[i], spd), gamma);
    EXPECT_LT(core::CircularSlotDistance(s.anchor[i], s.mid[i], spd), len);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamplingPropertyTest,
                         ::testing::Range(1, 13));

TEST(TimeDiscrepancyTest, LossIsZeroForPerfectlyProportionalEmbedding) {
  // Build a 1-D "ruler" embedding where distance(slot_a, slot_b) in
  // embedding space is exactly proportional to |a - b|: ratios all equal,
  // loss ~ 0. Use a short non-wrapping window so circular == linear.
  Rng rng(20);
  core::DiscreteTimeEmbedding enc(72, 1, &rng);
  Tensor ruler(Shape{72, 1});
  for (int64_t i = 0; i < 72; ++i) {
    ruler.set_flat(i, 0.5f * static_cast<float>(i));
  }
  enc.Parameters()[0].SetValue(ruler);
  std::vector<std::vector<int64_t>> rows = {{10, 11, 12, 13, 14, 15, 16, 17},
                                            {20, 21, 22, 23, 24, 25, 26, 27}};
  Rng srng(21);
  Variable loss =
      core::TimeDiscrepancyLossFromRows(enc, rows, 2, 72, &srng);
  EXPECT_NEAR(loss.value().item(), 0.0f, 2e-2f);
}

TEST(TimeDiscrepancyTest, LossPenalizesNonProportionalEmbedding) {
  Rng rng(22);
  core::DiscreteTimeEmbedding enc(72, 4, &rng);  // random table
  std::vector<std::vector<int64_t>> rows = {{10, 11, 12, 13, 14, 15, 16, 17},
                                            {30, 31, 32, 33, 34, 35, 36, 37}};
  Rng srng(23);
  Variable loss =
      core::TimeDiscrepancyLossFromRows(enc, rows, 2, 72, &srng);
  EXPECT_GT(loss.value().item(), 1e-3f);
  loss.Backward();
  EXPECT_TRUE(enc.weight().has_grad());
}

TEST(TimeDiscrepancyTest, TrainingTableReducesLoss) {
  // A few gradient steps on L_time alone must reduce it.
  Rng rng(24);
  core::DiscreteTimeEmbedding enc(24, 4, &rng);
  optim::SGD sgd(enc.Parameters(), 0.05f);
  Rng srng(25);
  auto eval_loss = [&]() {
    Rng fixed(42);
    const auto rows = MakeSlotRows(8, 8, 24, &fixed);
    Rng sample_rng(43);
    return core::TimeDiscrepancyLossFromRows(enc, rows, 2, 24, &sample_rng)
        .value()
        .item();
  };
  const float before = eval_loss();
  for (int step = 0; step < 60; ++step) {
    enc.ZeroGrad();
    const auto rows = MakeSlotRows(8, 8, 24, &srng);
    Variable loss =
        core::TimeDiscrepancyLossFromRows(enc, rows, 2, 24, &srng);
    loss.Backward();
    sgd.Step();
  }
  EXPECT_LT(eval_loss(), before);
}

// --- GCGRU -------------------------------------------------------------------

TEST(GCGRUTest, ShapeContractAndBounds) {
  Rng rng(30);
  core::GCGRUCell cell(2, 8, 6, 4, &rng);
  Variable x(Tensor::RandUniform({3, 5, 2}, -1, 1, &rng));
  Variable h(Tensor::Zeros({3, 5, 8}));
  Variable adj(Tensor::Full({3, 5, 5}, 0.2f));  // uniform row-stochastic
  Variable node_embed(Tensor::RandUniform({5, 6}, -1, 1, &rng));
  Variable time_embed(Tensor::RandUniform({3, 4}, -1, 1, &rng));
  Variable h1 = cell.Forward(x, h, adj, node_embed, time_embed);
  EXPECT_EQ(h1.shape(), (Shape{3, 5, 8}));
  EXPECT_LE(h1.value().MaxAll(), 1.0f);
  EXPECT_GE(h1.value().MinAll(), -1.0f);
}

TEST(GCGRUTest, FactorizedWeightsMatchConcatenatedFormulation) {
  // The split pools must reproduce the paper's concatenated E_hat @ W_pool
  // exactly: out = s (E_nu Wp_nu) + s (E_tau Wp_tau) == s ([E_nu;E_tau]
  // [Wp_nu;Wp_tau]). Verify the linear part numerically via the full cell:
  // a cell with zeroed time pools must equal a cell built without time.
  Rng rng(301);
  core::GCGRUCell with_time(1, 4, 3, 2, &rng);
  // Zero the time pools.
  for (auto& [name, p] : with_time.NamedParameters()) {
    if (name.find("time") != std::string::npos) {
      p.SetValue(Tensor::Zeros(p.value().shape()));
    }
  }
  Rng rng2(301);  // same seed -> identical node pools (created first)
  core::GCGRUCell no_time(1, 4, 3, 0, &rng2);
  no_time.CopyParametersFrom(no_time);  // no-op; keeps API exercised
  // Copy node-pool values from with_time so both cells share weights.
  auto src = with_time.NamedParameters();
  for (auto& [name, p] : no_time.NamedParameters()) {
    for (auto& [sname, sp] : src) {
      if (sname == name) p.SetValue(sp.value().Clone());
    }
  }
  Variable x(Tensor::RandUniform({2, 3, 1}, -1, 1, &rng));
  Variable h(Tensor::RandUniform({2, 3, 4}, -0.5, 0.5, &rng));
  Variable adj(Tensor::Full({2, 3, 3}, 1.0f / 3.0f));
  Variable node_embed(Tensor::RandUniform({3, 3}, -1, 1, &rng));
  Variable time_embed(Tensor::RandUniform({2, 2}, -1, 1, &rng));
  Tensor a = with_time.Forward(x, h, adj, node_embed, time_embed).value();
  Tensor b = no_time.Forward(x, h, adj, node_embed, {}).value();
  EXPECT_TRUE(a.AllClose(b, 1e-5f));
}

TEST(GCGRUTest, GraphActuallyMixesNodes) {
  // With the identity graph node 0's state ignores node 1; with a mixing
  // graph it must not.
  Rng rng(31);
  core::GCGRUCell cell(1, 4, 3, 0, &rng);
  Tensor xa = Tensor::Zeros({1, 2, 1});
  Tensor xb = Tensor::Zeros({1, 2, 1});
  xb.set({0, 1, 0}, 5.0f);  // perturb node 1 only
  Variable h(Tensor::Zeros({1, 2, 4}));
  Variable node_embed(Tensor::RandUniform({2, 3}, -1, 1, &rng));

  Variable eye(Tensor::Eye(2).Unsqueeze(0));
  Tensor ha_eye =
      cell.Forward(Variable(xa), h, eye, node_embed, {}).value();
  Tensor hb_eye =
      cell.Forward(Variable(xb), h, eye, node_embed, {}).value();
  // Node 0 rows identical under identity adjacency.
  EXPECT_TRUE(ha_eye.Slice(1, 0, 1).AllClose(hb_eye.Slice(1, 0, 1), 1e-6f));

  Variable mix(Tensor::Full({1, 2, 2}, 0.5f));
  Tensor ha_mix =
      cell.Forward(Variable(xa), h, mix, node_embed, {}).value();
  Tensor hb_mix =
      cell.Forward(Variable(xb), h, mix, node_embed, {}).value();
  EXPECT_FALSE(ha_mix.Slice(1, 0, 1).AllClose(hb_mix.Slice(1, 0, 1), 1e-4f));
}

TEST(GCGRUTest, NodeAdaptiveWeightsDiffer) {
  // Different node-embedding rows => different responses for identical
  // inputs (the node-specific patterns of Eq 13-16).
  Rng rng(32);
  core::GCGRUCell cell(1, 4, 3, 0, &rng);
  Variable x(Tensor::Ones({1, 2, 1}));
  Variable h(Tensor::Zeros({1, 2, 4}));
  Variable adj(Tensor::Eye(2).Unsqueeze(0));
  Tensor node_embed(Shape{2, 3});
  for (int64_t c = 0; c < 3; ++c) {
    node_embed.set({0, c}, 1.0f);
    node_embed.set({1, c}, -1.0f);
  }
  Tensor out = cell.Forward(x, h, adj, Variable(node_embed), {}).value();
  EXPECT_FALSE(out.Slice(1, 0, 1).AllClose(out.Slice(1, 1, 2), 1e-4f));
}

TEST(GCGRUTest, TimeEmbeddingChangesDynamics) {
  // Different time representations at the same state => different hidden
  // updates (the time-aware weights of Eq 12).
  Rng rng(34);
  core::GCGRUCell cell(1, 4, 3, 2, &rng);
  Variable x(Tensor::Ones({1, 2, 1}));
  Variable h(Tensor::Zeros({1, 2, 4}));
  Variable adj(Tensor::Full({1, 2, 2}, 0.5f));
  Variable node_embed(Tensor::RandUniform({2, 3}, -1, 1, &rng));
  Variable t1(Tensor::RandUniform({1, 2}, -1, 1, &rng));
  Variable t2(Tensor::RandUniform({1, 2}, -1, 1, &rng));
  Tensor a = cell.Forward(x, h, adj, node_embed, t1).value();
  Tensor b = cell.Forward(x, h, adj, node_embed, t2).value();
  EXPECT_GT(Tensor::MaxAbsDiff(a, b), 1e-6f);
}

TEST(GCGRUTest, BpttGradientsFlow) {
  Rng rng(33);
  core::GCGRUCell cell(2, 4, 3, 2, &rng);
  Variable x(Tensor::RandUniform({1, 3, 2}, -1, 1, &rng), true);
  Variable h(Tensor::Zeros({1, 3, 4}));
  Variable adj(Tensor::Full({1, 3, 3}, 1.0f / 3.0f));
  Variable node_embed(Tensor::RandUniform({3, 3}, -1, 1, &rng), true);
  Variable time_embed(Tensor::RandUniform({1, 2}, -1, 1, &rng), true);
  // Three steps feeding the same x.
  Variable state = h;
  for (int i = 0; i < 3; ++i) {
    state = cell.Forward(x, state, adj, node_embed, time_embed);
  }
  ag::SumAll(state).Backward();
  EXPECT_TRUE(x.has_grad());
  EXPECT_GT(x.grad().Abs().SumAll(), 0.0f);
  EXPECT_TRUE(node_embed.has_grad());
  EXPECT_TRUE(time_embed.has_grad());
  for (const auto& p : cell.Parameters()) EXPECT_TRUE(p.has_grad());
}

// --- TGCRN end to end ---------------------------------------------------------

core::TGCRNConfig SmallConfig(int64_t n = 4) {
  core::TGCRNConfig config;
  config.num_nodes = n;
  config.input_dim = 2;
  config.output_dim = 2;
  config.horizon = 3;
  config.hidden_dim = 6;
  config.num_layers = 2;
  config.node_embed_dim = 5;
  config.time_embed_dim = 4;
  config.steps_per_day = 24;
  return config;
}

data::Batch MakeFakeBatch(int64_t b, int64_t p, int64_t q, int64_t n,
                          int64_t d, int64_t spd, uint64_t seed) {
  Rng rng(seed);
  data::Batch batch;
  batch.x = Tensor::RandUniform({b, p, n, d}, -1, 1, &rng);
  batch.y = Tensor::RandUniform({b, q, n, d}, -1, 1, &rng);
  batch.y_scaled = batch.y.Clone();
  for (int64_t i = 0; i < b; ++i) {
    const int64_t start = rng.UniformInt(0, spd - 1);
    std::vector<int64_t> xs, ys, xd, yd;
    for (int64_t t = 0; t < p; ++t) xs.push_back((start + t) % spd);
    for (int64_t t = 0; t < q; ++t) ys.push_back((start + p + t) % spd);
    xd.assign(p, 0);
    yd.assign(q, 0);
    batch.x_slots.push_back(xs);
    batch.y_slots.push_back(ys);
    batch.x_days.push_back(xd);
    batch.y_days.push_back(yd);
  }
  return batch;
}

TEST(TGCRNTest, ForwardShapes) {
  Rng rng(40);
  core::TGCRN model(SmallConfig(), &rng);
  auto batch = MakeFakeBatch(2, 4, 3, 4, 2, 24, 41);
  Variable pred = model.Forward(batch);
  EXPECT_EQ(pred.shape(), (Shape{2, 3, 4, 2}));
  EXPECT_FALSE(pred.value().HasNonFinite());
}

TEST(TGCRNDeathTest, NegativeOrNonFiniteAlphaAborts) {
  // The sparse selection's gate ceiling 1 + alpha needs alpha >= 0.
  for (const float alpha : {-0.1f, std::nanf("")}) {
    auto config = SmallConfig();
    config.alpha = alpha;
    EXPECT_DEATH(
        {
          Rng rng(45);
          core::TGCRN model(config, &rng);
        },
        "alpha must be finite and >= 0");
  }
}

TEST(TGCRNTest, DirectHeadVariantShapes) {
  auto config = SmallConfig();
  config.use_encoder_decoder = false;
  Rng rng(42);
  core::TGCRN model(config, &rng);
  auto batch = MakeFakeBatch(2, 4, 3, 4, 2, 24, 43);
  EXPECT_EQ(model.Forward(batch).shape(), (Shape{2, 3, 4, 2}));
}

TEST(TGCRNTest, AblationVariantsConstructAndRun) {
  auto batch = MakeFakeBatch(2, 4, 3, 4, 2, 24, 44);
  for (int variant = 0; variant < 5; ++variant) {
    auto config = SmallConfig();
    switch (variant) {
      case 0:
        config.use_tagsl = false;
        break;
      case 1:
        config.use_tdl = false;
        break;
      case 2:
        config.use_pdf = false;
        break;
      case 3:
        config.time_encoder = core::TGCRNConfig::TimeEncoderKind::kTime2vec;
        config.use_tdl = false;
        break;
      case 4:
        config.time_encoder =
            core::TGCRNConfig::TimeEncoderKind::kContinuous;
        config.use_tdl = false;
        break;
    }
    Rng rng(50 + variant);
    core::TGCRN model(config, &rng);
    Variable pred = model.Forward(batch);
    EXPECT_EQ(pred.shape(), (Shape{2, 3, 4, 2})) << "variant " << variant;
    EXPECT_FALSE(pred.value().HasNonFinite()) << "variant " << variant;
  }
}

TEST(TGCRNTest, AuxiliaryLossOnlyForDiscreteTdl) {
  auto batch = MakeFakeBatch(2, 4, 3, 4, 2, 24, 60);
  Rng rng(61);
  core::TGCRN with(SmallConfig(), &rng);
  EXPECT_GT(with.auxiliary_weight(), 0.0f);
  Rng aux_rng(62);
  EXPECT_TRUE(with.AuxiliaryLoss(batch, &aux_rng).defined());

  auto config = SmallConfig();
  config.use_tdl = false;
  Rng rng2(63);
  core::TGCRN without(config, &rng2);
  EXPECT_EQ(without.auxiliary_weight(), 0.0f);
  EXPECT_FALSE(without.AuxiliaryLoss(batch, &aux_rng).defined());
}

TEST(TGCRNTest, BackwardPopulatesAllParameters) {
  Rng rng(70);
  core::TGCRN model(SmallConfig(), &rng);
  auto batch = MakeFakeBatch(2, 4, 3, 4, 2, 24, 71);
  Variable pred = model.Forward(batch);
  Variable loss = ag::MaeLoss(pred, Variable(batch.y_scaled));
  Rng aux_rng(72);
  loss = ag::Add(loss, ag::MulScalar(model.AuxiliaryLoss(batch, &aux_rng),
                                     0.1f));
  loss.Backward();
  int64_t with_grad = 0, total = 0;
  for (const auto& [name, p] : model.NamedParameters()) {
    ++total;
    if (p.has_grad()) ++with_grad;
  }
  // Every parameter participates in this architecture.
  EXPECT_EQ(with_grad, total);
}

TEST(TGCRNTest, FewStepsReduceTrainingLoss) {
  Rng rng(80);
  auto config = SmallConfig();
  config.num_layers = 1;
  core::TGCRN model(config, &rng);
  auto batch = MakeFakeBatch(4, 4, 3, 4, 2, 24, 81);
  optim::Adam adam(model.Parameters(), 5e-3f);
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 25; ++step) {
    model.ZeroGrad();
    Variable loss =
        ag::MaeLoss(model.Forward(batch), Variable(batch.y_scaled));
    if (step == 0) first = loss.value().item();
    last = loss.value().item();
    loss.Backward();
    adam.Step();
  }
  EXPECT_LT(last, first);
}

TEST(TGCRNTest, ScheduledSamplingChangesTrainingForwardOnly) {
  auto config = SmallConfig();
  config.sampling_seed = 7;
  Rng rng(100);
  core::TGCRN model(config, &rng);
  auto batch = MakeFakeBatch(4, 4, 3, 4, 2, 24, 101);
  // Eval mode: teacher forcing must have no effect.
  model.SetTraining(false);
  model.SetTeacherForcingProbability(1.0f);
  Tensor eval_a = model.Forward(batch).value();
  Tensor eval_b = model.Forward(batch).value();
  EXPECT_TRUE(eval_a.AllClose(eval_b, 0.0f));
  // Train mode with certain teacher forcing: step q>0 sees ground truth,
  // so the outputs differ from free-running decoding.
  model.SetTraining(true);
  Tensor forced = model.Forward(batch).value();
  model.SetTeacherForcingProbability(0.0f);
  Tensor free_run = model.Forward(batch).value();
  EXPECT_GT(Tensor::MaxAbsDiff(forced, free_run), 1e-6f);
  // The first decoder step is unaffected by the feeding policy.
  EXPECT_TRUE(forced.Slice(1, 0, 1).AllClose(free_run.Slice(1, 0, 1),
                                             1e-6f));
}

TEST(TGCRNTest, InterLayerDropoutOnlyActsInTraining) {
  auto config = SmallConfig();
  config.inter_layer_dropout = 0.5f;
  Rng rng(110);
  core::TGCRN model(config, &rng);
  auto batch = MakeFakeBatch(2, 4, 3, 4, 2, 24, 111);
  model.SetTraining(false);
  Tensor a = model.Forward(batch).value();
  Tensor b = model.Forward(batch).value();
  EXPECT_TRUE(a.AllClose(b, 0.0f)) << "eval must be deterministic";
  model.SetTraining(true);
  Tensor c = model.Forward(batch).value();
  Tensor d = model.Forward(batch).value();
  EXPECT_GT(Tensor::MaxAbsDiff(c, d), 1e-6f) << "dropout must be active";
}

TEST(TGCRNTest, GraphRefreshIntervalTradesFidelity) {
  auto config = SmallConfig();
  Rng rng(120);
  core::TGCRN every_step(config, &rng);
  config.graph_refresh_interval = 4;
  Rng rng2(120);
  core::TGCRN lazy(config, &rng2);
  lazy.CopyParametersFrom(every_step);
  auto batch = MakeFakeBatch(2, 4, 3, 4, 2, 24, 121);
  every_step.SetTraining(false);
  lazy.SetTraining(false);
  Tensor a = every_step.Forward(batch).value();
  Tensor b = lazy.Forward(batch).value();
  // Same weights, different graph cadence: outputs differ but stay finite
  // and in range.
  EXPECT_GT(Tensor::MaxAbsDiff(a, b), 1e-7f);
  EXPECT_FALSE(b.HasNonFinite());
}

TEST(TGCRNTest, LearnedAdjacencyAccessors) {
  Rng rng(90);
  core::TGCRN model(SmallConfig(), &rng);
  Tensor x = Tensor::RandUniform({4, 2}, -1, 1, &rng);
  Tensor adj = model.LearnedAdjacency(x, {5});
  EXPECT_EQ(adj.shape(), (Shape{4, 4}));
  EXPECT_TRUE(graph::IsRowStochastic(adj));
  Tensor raw = model.LearnedRawAdjacency(x, {5});
  EXPECT_EQ(raw.shape(), (Shape{4, 4}));
  Tensor table = model.TimeEmbeddingTable();
  EXPECT_EQ(table.shape(), (Shape{24, 4}));
}

TEST(TGCRNTest, ParameterCountScalesWithEmbeddingDims) {
  Rng rng(91);
  auto small = SmallConfig();
  core::TGCRN a(small, &rng);
  auto big = SmallConfig();
  big.node_embed_dim = 10;
  big.time_embed_dim = 8;
  core::TGCRN b(big, &rng);
  EXPECT_GT(b.NumParameters(), a.NumParameters());
}

}  // namespace
}  // namespace tgcrn
