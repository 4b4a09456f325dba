// Copyright 2026 TGCRN Reproduction Authors
// Tests for the NN module layer: parameter registry, layers' shape
// contracts, and gradient flow through each layer.

#include <gtest/gtest.h>

#include "gradcheck.h"
#include "nn/attention.h"
#include "nn/causal_conv1d.h"
#include "nn/embedding.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/rnn_cells.h"

namespace tgcrn {
namespace {

using ag::Variable;
using testing::ExpectGradientsClose;

TEST(ModuleTest, ParameterRegistryAndCounts) {
  Rng rng(1);
  nn::Linear linear(3, 4, &rng);
  EXPECT_EQ(linear.NumParameters(), 3 * 4 + 4);
  EXPECT_EQ(linear.Parameters().size(), 2u);
  const auto named = linear.NamedParameters();
  EXPECT_EQ(named[0].first, "weight");
  EXPECT_EQ(named[1].first, "bias");
}

TEST(ModuleTest, NestedModulesCollectRecursively) {
  Rng rng(2);
  nn::GRUCell cell(3, 5, &rng);
  // gates: (3+5)x10 + 10 ; candidate: (3+5)x5 + 5
  EXPECT_EQ(cell.NumParameters(), 8 * 10 + 10 + 8 * 5 + 5);
  const auto named = cell.NamedParameters();
  bool found = false;
  for (const auto& [name, p] : named) {
    if (name == "gates.weight") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ModuleTest, TrainEvalModePropagates) {
  Rng rng(3);
  nn::GRUCell cell(2, 2, &rng);
  EXPECT_TRUE(cell.training());
  cell.SetTraining(false);
  EXPECT_FALSE(cell.training());
}

TEST(ModuleTest, CopyParametersFrom) {
  Rng rng(6);
  nn::Linear a(3, 2, &rng);
  nn::Linear b(3, 2, &rng);
  b.CopyParametersFrom(a);
  EXPECT_TRUE(
      a.Parameters()[1].value().AllClose(b.Parameters()[1].value(), 0.0f));
}

TEST(LinearTest, ShapesAndBatchRanks) {
  Rng rng(7);
  nn::Linear linear(4, 3, &rng);
  Variable x2(Tensor::Ones({5, 4}));
  EXPECT_EQ(linear.Forward(x2).shape(), (Shape{5, 3}));
  Variable x3(Tensor::Ones({2, 5, 4}));
  EXPECT_EQ(linear.Forward(x3).shape(), (Shape{2, 5, 3}));
  Variable x1(Tensor::Ones({4}));
  EXPECT_EQ(linear.Forward(x1).shape(), (Shape{3}));
}

TEST(LinearTest, GradcheckThroughLayer) {
  Rng rng(8);
  nn::Linear linear(3, 2, &rng);
  auto params = linear.Parameters();
  auto fn = [&linear](const std::vector<Variable>& in) {
    Variable out = linear.Forward(in[0]);
    return ag::SumAll(ag::Mul(out, out));
  };
  Rng drng(9);
  Variable x(Tensor::RandUniform({4, 3}, -1, 1, &drng), true);
  ExpectGradientsClose(fn, {x});
  // Parameters also receive gradients.
  linear.ZeroGrad();
  ag::SumAll(linear.Forward(x)).Backward();
  for (const auto& p : params) EXPECT_TRUE(p.has_grad());
}

TEST(EmbeddingTest, LookupShapesAndGrad) {
  Rng rng(10);
  nn::Embedding emb(6, 3, &rng);
  Variable rows = emb.Forward({1, 4, 1});
  EXPECT_EQ(rows.shape(), (Shape{3, 3}));
  ag::SumAll(rows).Backward();
  const Tensor& g = emb.weight().grad();
  EXPECT_EQ(g.at({1, 0}), 2.0f);  // id 1 appears twice
  EXPECT_EQ(g.at({4, 0}), 1.0f);
  EXPECT_EQ(g.at({0, 0}), 0.0f);
}

TEST(GRUCellTest, StateShapePreservedAndBounded) {
  Rng rng(11);
  nn::GRUCell cell(3, 5, &rng);
  Variable x(Tensor::RandUniform({2, 3}, -1, 1, &rng));
  Variable h(Tensor::Zeros({2, 5}));
  Variable h1 = cell.Forward(x, h);
  EXPECT_EQ(h1.shape(), (Shape{2, 5}));
  // GRU output is a convex combination of h (=0) and tanh candidate.
  EXPECT_LE(h1.value().MaxAll(), 1.0f);
  EXPECT_GE(h1.value().MinAll(), -1.0f);
}

TEST(GRUCellTest, GradFlowsThroughTime) {
  Rng rng(12);
  nn::GRUCell cell(2, 3, &rng);
  Variable x0(Tensor::RandUniform({1, 2}, -1, 1, &rng), true);
  Variable h(Tensor::Zeros({1, 3}));
  Variable h1 = cell.Forward(x0, h);
  Variable h2 = cell.Forward(ag::MulScalar(x0, 0.5f), h1);
  ag::SumAll(h2).Backward();
  EXPECT_TRUE(x0.has_grad());
  EXPECT_GT(x0.grad().Abs().SumAll(), 0.0f);
}

TEST(LSTMCellTest, StateAndGradFlow) {
  Rng rng(13);
  nn::LSTMCell cell(2, 4, &rng);
  auto state = cell.InitialState({3});
  Variable x(Tensor::RandUniform({3, 2}, -1, 1, &rng), true);
  auto next = cell.Forward(x, state);
  EXPECT_EQ(next.h.shape(), (Shape{3, 4}));
  EXPECT_EQ(next.c.shape(), (Shape{3, 4}));
  ag::SumAll(next.h).Backward();
  EXPECT_TRUE(x.has_grad());
}

TEST(LayerNormTest, NormalizesLastAxis) {
  Rng rng(14);
  nn::LayerNorm ln(6);
  Variable x(Tensor::RandUniform({4, 6}, -3, 7, &rng));
  Variable y = ln.Forward(x);
  // With default gamma=1, beta=0 every row has ~zero mean, ~unit variance.
  Tensor row_mean = y.value().Mean(1);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(row_mean.flat(i), 0.0f, 1e-4f);
  }
  Tensor sq = y.value().Mul(y.value()).Mean(1);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(sq.flat(i), 1.0f, 1e-2f);
  }
}

TEST(LayerNormTest, Gradcheck) {
  nn::LayerNorm ln(4);
  auto fn = [&ln](const std::vector<Variable>& in) {
    Variable y = ln.Forward(in[0]);
    Variable w(Tensor::Arange(12).Reshape({3, 4}));
    return ag::SumAll(ag::Mul(y, w));
  };
  Rng rng(15);
  Variable x(Tensor::RandUniform({3, 4}, -2, 2, &rng), true);
  ExpectGradientsClose(fn, {x}, /*eps=*/5e-3f, /*rtol=*/5e-2f,
                       /*atol=*/5e-2f);
}

TEST(AttentionTest, ShapesSelfAttention) {
  Rng rng(16);
  nn::MultiHeadAttention mha(8, 2, &rng);
  Variable x(Tensor::RandUniform({2, 5, 8}, -1, 1, &rng));
  Variable y = mha.Forward(x, x, x);
  EXPECT_EQ(y.shape(), (Shape{2, 5, 8}));
}

TEST(AttentionTest, CausalMaskBlocksFuture) {
  Rng rng(17);
  nn::MultiHeadAttention mha(4, 1, &rng);
  // Two inputs identical up to position 2, different afterwards: causal
  // outputs at positions 0..2 must match.
  Tensor a = Tensor::RandUniform({1, 5, 4}, -1, 1, &rng);
  Tensor b = a.Clone();
  for (int64_t t = 3; t < 5; ++t) {
    for (int64_t c = 0; c < 4; ++c) b.set({0, t, c}, 9.0f);
  }
  Variable ya = mha.Forward(Variable(a), Variable(a), Variable(a),
                            /*causal=*/true);
  Variable yb = mha.Forward(Variable(b), Variable(b), Variable(b),
                            /*causal=*/true);
  EXPECT_TRUE(ya.value().Slice(1, 0, 3).AllClose(
      yb.value().Slice(1, 0, 3), 1e-5f));
  EXPECT_FALSE(ya.value().Slice(1, 3, 5).AllClose(
      yb.value().Slice(1, 3, 5), 1e-3f));
}

TEST(AttentionTest, CrossAttentionShapes) {
  Rng rng(18);
  nn::MultiHeadAttention mha(8, 4, &rng);
  Variable q(Tensor::RandUniform({2, 3, 8}, -1, 1, &rng));
  Variable kv(Tensor::RandUniform({2, 7, 8}, -1, 1, &rng));
  EXPECT_EQ(mha.Forward(q, kv, kv).shape(), (Shape{2, 3, 8}));
}

TEST(CausalConv1dTest, CausalityHolds) {
  Rng rng(19);
  nn::CausalConv1d conv(3, 2, /*kernel_size=*/2, /*dilation=*/2, &rng);
  Tensor a = Tensor::RandUniform({1, 6, 3}, -1, 1, &rng);
  Tensor b = a.Clone();
  // Perturb the last time step only; outputs before it must not change.
  for (int64_t c = 0; c < 3; ++c) b.set({0, 5, c}, 7.0f);
  Variable ya = conv.Forward(Variable(a));
  Variable yb = conv.Forward(Variable(b));
  EXPECT_TRUE(ya.value().Slice(1, 0, 5).AllClose(
      yb.value().Slice(1, 0, 5), 1e-6f));
}

TEST(CausalConv1dTest, ReceptiveFieldAndShapes) {
  Rng rng(20);
  nn::CausalConv1d conv(4, 6, 2, 4, &rng);
  EXPECT_EQ(conv.receptive_field(), 5);
  Variable x(Tensor::RandUniform({2, 8, 4}, -1, 1, &rng));
  EXPECT_EQ(conv.Forward(x).shape(), (Shape{2, 8, 6}));
  // Works on [B, N, T, C] too (time is axis -2).
  Variable x4(Tensor::RandUniform({2, 3, 8, 4}, -1, 1, &rng));
  EXPECT_EQ(conv.Forward(x4).shape(), (Shape{2, 3, 8, 6}));
}

TEST(CausalConv1dTest, MatchesHandConvolution) {
  Rng rng(21);
  nn::CausalConv1d conv(1, 1, 2, 1, &rng);
  // y_t = x_t * w0 + x_{t-1} * w1 + b
  Variable x(Tensor::FromVector({1, 3, 1}, {1, 2, 3}));
  const auto params = conv.NamedParameters();
  float w0 = 0, w1 = 0, bias = 0;
  for (const auto& [name, p] : params) {
    if (name == "tap0") w0 = p.value().flat(0);
    if (name == "tap1") w1 = p.value().flat(0);
    if (name == "bias") bias = p.value().flat(0);
  }
  Tensor y = conv.Forward(x).value();
  EXPECT_NEAR(y.flat(0), 1 * w0 + 0 * w1 + bias, 1e-5f);
  EXPECT_NEAR(y.flat(1), 2 * w0 + 1 * w1 + bias, 1e-5f);
  EXPECT_NEAR(y.flat(2), 3 * w0 + 2 * w1 + bias, 1e-5f);
}

}  // namespace
}  // namespace tgcrn
