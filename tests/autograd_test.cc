// Copyright 2026 TGCRN Reproduction Authors
// Gradient correctness tests for the autograd engine: every op is verified
// against central finite differences, plus composite expressions that mirror
// real model structures (gates, attention-style softmax chains).
#include "autograd/ops.h"

#include <gtest/gtest.h>

#include "common/cpu_features.h"
#include "gradcheck.h"
#include "obs/metrics.h"

namespace tgcrn {
namespace {

using ag::Variable;
using testing::ExpectGradientsClose;

Variable Leaf(Shape shape, uint64_t seed, float lo = -1.0f, float hi = 1.0f) {
  Rng rng(seed);
  return Variable(Tensor::RandUniform(std::move(shape), lo, hi, &rng),
                  /*requires_grad=*/true);
}

TEST(AutogradTest, LeafBasics) {
  Variable v(Tensor::Ones({2, 2}), /*requires_grad=*/true);
  EXPECT_TRUE(v.defined());
  EXPECT_TRUE(v.requires_grad());
  EXPECT_FALSE(v.has_grad());
  Variable undefined;
  EXPECT_FALSE(undefined.defined());
}

TEST(AutogradTest, BackwardOnScalarAccumulatesOnes) {
  Variable v(Tensor::FromVector({3}, {1, 2, 3}), true);
  Variable s = ag::SumAll(v);
  s.Backward();
  EXPECT_TRUE(v.grad().AllClose(Tensor::Ones({3})));
  // Second backward accumulates.
  ag::SumAll(v).Backward();
  EXPECT_TRUE(v.grad().AllClose(Tensor::Full({3}, 2.0f)));
  v.ZeroGrad();
  EXPECT_FALSE(v.has_grad());
}

TEST(AutogradTest, DetachBlocksGradient) {
  Variable v(Tensor::Ones({2}), true);
  Variable d = v.Detach();
  EXPECT_FALSE(d.needs_grad());
  Variable out = ag::SumAll(ag::Mul(d, d));
  EXPECT_FALSE(out.needs_grad());
}

TEST(AutogradTest, GradSharedSubexpression) {
  // loss = sum(x*x + x) -> dx = 2x + 1
  Variable x(Tensor::FromVector({3}, {1, -2, 0.5}), true);
  Variable loss = ag::SumAll(ag::Add(ag::Mul(x, x), x));
  loss.Backward();
  EXPECT_TRUE(x.grad().AllClose(Tensor::FromVector({3}, {3, -3, 2}), 1e-5f));
}

TEST(AutogradTest, AddSubMulDivGradcheck) {
  auto fn = [](const std::vector<Variable>& in) {
    Variable s = ag::Div(ag::Mul(in[0], in[1]),
                         ag::AddScalar(ag::Mul(in[1], in[1]), 2.0f));
    return ag::SumAll(ag::Sub(s, in[0]));
  };
  ExpectGradientsClose(fn, {Leaf({2, 3}, 1), Leaf({2, 3}, 2)});
}

TEST(AutogradTest, BroadcastAddGradcheck) {
  auto fn = [](const std::vector<Variable>& in) {
    return ag::SumAll(ag::Mul(ag::Add(in[0], in[1]), ag::Add(in[0], in[1])));
  };
  ExpectGradientsClose(fn, {Leaf({2, 3}, 3), Leaf({3}, 4)});
  ExpectGradientsClose(fn, {Leaf({4, 1, 3}, 5), Leaf({2, 3}, 6)});
}

TEST(AutogradTest, MatmulGradcheck) {
  auto fn = [](const std::vector<Variable>& in) {
    return ag::SumAll(ag::Matmul(in[0], in[1]));
  };
  ExpectGradientsClose(fn, {Leaf({3, 4}, 7), Leaf({4, 2}, 8)});
}

TEST(AutogradTest, BatchedMatmulBroadcastGradcheck) {
  auto fn = [](const std::vector<Variable>& in) {
    Variable prod = ag::Matmul(in[0], in[1]);
    return ag::SumAll(ag::Mul(prod, prod));
  };
  // Batched lhs, shared rhs: the exact pattern of graph convolution.
  ExpectGradientsClose(fn, {Leaf({2, 3, 4}, 9), Leaf({4, 2}, 10)});
  // Both batched.
  ExpectGradientsClose(fn, {Leaf({2, 3, 4}, 11), Leaf({2, 4, 2}, 12)});
  // Shared lhs, batched rhs.
  ExpectGradientsClose(fn, {Leaf({3, 4}, 13), Leaf({2, 4, 2}, 14)});
}

// Parameterized sweep of unary ops.
struct UnaryCase {
  const char* name;
  Variable (*fn)(const Variable&);
  float lo;
  float hi;
};

// Without this, gtest prints the raw bytes of the case (two pointers), so the
// name ctest discovers for each case changes from one build to the next.
void PrintTo(const UnaryCase& c, std::ostream* os) { *os << c.name; }

class UnaryGradTest : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryGradTest, Gradcheck) {
  const auto& param = GetParam();
  auto fn = [&param](const std::vector<Variable>& in) {
    Variable y = param.fn(in[0]);
    return ag::SumAll(ag::Mul(y, y));
  };
  ExpectGradientsClose(fn, {Leaf({3, 3}, 21, param.lo, param.hi)});
}

INSTANTIATE_TEST_SUITE_P(
    Ops, UnaryGradTest,
    ::testing::Values(
        UnaryCase{"sigmoid", [](const Variable& v) { return ag::Sigmoid(v); },
                  -2.0f, 2.0f},
        UnaryCase{"tanh", [](const Variable& v) { return ag::Tanh(v); },
                  -2.0f, 2.0f},
        UnaryCase{"exp", [](const Variable& v) { return ag::Exp(v); }, -1.0f,
                  1.0f},
        UnaryCase{"log", [](const Variable& v) { return ag::Log(v); }, 0.5f,
                  3.0f},
        UnaryCase{"sqrt", [](const Variable& v) { return ag::Sqrt(v); }, 0.5f,
                  3.0f},
        UnaryCase{"neg", [](const Variable& v) { return ag::Neg(v); }, -2.0f,
                  2.0f},
        UnaryCase{"pow3",
                  [](const Variable& v) { return ag::Pow(v, 3.0f); }, 0.3f,
                  1.5f}),
    [](const ::testing::TestParamInfo<UnaryCase>& info) {
      return info.param.name;
    });

// ISA levels the vmath/fused-kernel gradchecks run at: scalar always,
// AVX2 when the build and CPU support it.
std::vector<common::SimdIsa> GradcheckIsas() {
  std::vector<common::SimdIsa> isas = {common::SimdIsa::kScalar};
  if (common::Avx2CompiledIn() && common::CpuSupportsAvx2()) {
    isas.push_back(common::SimdIsa::kAvx2);
  }
  return isas;
}

// Sigmoid/Tanh/Exp route through the SIMD vmath fast paths; the sub-vector
// tail (length % 8) takes a separate code path in the AVX2 kernels, so
// gradcheck at every length 1..16 (two full AVX2 vectors) per fixed ISA.
TEST(AutogradTest, VmathFastPathGradcheckAtTailLengths) {
  auto fn = [](const std::vector<Variable>& in) {
    Variable mix = ag::Mul(ag::Sigmoid(in[0]), ag::Tanh(in[0]));
    return ag::SumAll(ag::Add(mix, ag::Exp(in[0])));
  };
  for (const common::SimdIsa isa : GradcheckIsas()) {
    common::ScopedSimdIsa pin(isa);
    for (int64_t len = 1; len <= 16; ++len) {
      SCOPED_TRACE(std::string(common::SimdIsaName(isa)) + " len=" +
                   std::to_string(len));
      ExpectGradientsClose(fn, {Leaf({len}, 60 + len, -1.5f, 1.5f)});
    }
  }
}

// The fused gradient kernels (SigmoidGradKernel & co.) are what Backward
// actually calls; their output must match the explicit chain-rule tensor
// expression at each fixed ISA.
TEST(AutogradTest, FusedGradientKernelsMatchChainRulePerIsa) {
  for (const common::SimdIsa isa : GradcheckIsas()) {
    common::ScopedSimdIsa pin(isa);
    SCOPED_TRACE(common::SimdIsaName(isa));
    Rng rng(91);
    Tensor x0 = Tensor::RandUniform({3, 13}, -2, 2, &rng);

    Variable xs(x0.Clone(), /*requires_grad=*/true);
    ag::SumAll(ag::Sigmoid(xs)).Backward();
    Tensor y = x0.Sigmoid();
    // d(sigmoid)/dx = y * (1 - y), written out with unfused tensor ops.
    Tensor expected = y.Mul(Tensor::Ones(y.shape()).Sub(y));
    EXPECT_TRUE(xs.grad().AllClose(expected, 1e-6f));

    Variable xt(x0.Clone(), /*requires_grad=*/true);
    ag::SumAll(ag::Tanh(xt)).Backward();
    Tensor t = x0.Tanh();
    expected = Tensor::Ones(t.shape()).Sub(t.Mul(t));
    EXPECT_TRUE(xt.grad().AllClose(expected, 1e-6f));

    Variable xe(x0.Clone(), /*requires_grad=*/true);
    ag::SumAll(ag::Exp(xe)).Backward();
    EXPECT_TRUE(xe.grad().AllClose(x0.Exp(), 1e-6f));
  }
}

TEST(AutogradTest, ReluGradcheckAwayFromKink) {
  // Keep inputs away from 0 where the derivative is undefined.
  Rng rng(22);
  Tensor t = Tensor::RandUniform({4, 4}, 0.2f, 2.0f, &rng);
  Tensor signs = Tensor::RandUniform({4, 4}, -1.0f, 1.0f, &rng)
                     .Map([](float v) { return v > 0 ? 1.0f : -1.0f; });
  Variable x(t.Mul(signs), true);
  auto fn = [](const std::vector<Variable>& in) {
    return ag::SumAll(ag::Relu(in[0]));
  };
  ExpectGradientsClose(fn, {x}, /*eps=*/1e-2f);
}

TEST(AutogradTest, AbsGradcheckAwayFromKink) {
  Rng rng(23);
  Tensor t = Tensor::RandUniform({4, 4}, 0.3f, 2.0f, &rng);
  Variable x(t, true);
  auto fn = [](const std::vector<Variable>& in) {
    return ag::SumAll(ag::Abs(in[0]));
  };
  ExpectGradientsClose(fn, {x});
}

TEST(AutogradTest, SoftmaxGradcheck) {
  auto fn = [](const std::vector<Variable>& in) {
    Variable sm = ag::Softmax(in[0], 1);
    // Weighted sum so the gradient is non-trivial.
    Variable w(Tensor::FromVector({2, 3}, {1, 2, 3, -1, 0.5, 2}));
    return ag::SumAll(ag::Mul(sm, w));
  };
  ExpectGradientsClose(fn, {Leaf({2, 3}, 31)});
}

TEST(AutogradTest, SoftmaxLastAxisGradcheck) {
  auto fn = [](const std::vector<Variable>& in) {
    Variable sm = ag::Softmax(in[0], -1);
    return ag::SumAll(ag::Mul(sm, sm));
  };
  ExpectGradientsClose(fn, {Leaf({2, 2, 4}, 32)});
}

TEST(AutogradTest, ReductionGradchecks) {
  auto sum_fn = [](const std::vector<Variable>& in) {
    Variable s = ag::Sum(in[0], 1);
    return ag::SumAll(ag::Mul(s, s));
  };
  ExpectGradientsClose(sum_fn, {Leaf({3, 4}, 33)});
  auto mean_fn = [](const std::vector<Variable>& in) {
    Variable m = ag::Mean(in[0], 0, /*keepdim=*/true);
    return ag::SumAll(ag::Mul(m, m));
  };
  ExpectGradientsClose(mean_fn, {Leaf({3, 4}, 34)});
  auto mean_all_fn = [](const std::vector<Variable>& in) {
    Variable m = ag::MeanAll(in[0]);
    return ag::Mul(m, m);
  };
  ExpectGradientsClose(mean_all_fn, {Leaf({2, 5}, 35)});
}

TEST(AutogradTest, ShapeOpGradchecks) {
  auto reshape_fn = [](const std::vector<Variable>& in) {
    Variable r = ag::Reshape(in[0], {4, 3});
    return ag::SumAll(ag::Mul(r, r));
  };
  ExpectGradientsClose(reshape_fn, {Leaf({3, 4}, 36)});

  auto transpose_fn = [](const std::vector<Variable>& in) {
    Variable t = ag::Transpose(in[0], 0, 1);
    Variable w(Tensor::Arange(12).Reshape({4, 3}));
    return ag::SumAll(ag::Mul(t, w));
  };
  ExpectGradientsClose(transpose_fn, {Leaf({3, 4}, 37)});

  auto permute_fn = [](const std::vector<Variable>& in) {
    Variable p = ag::Permute(in[0], {2, 0, 1});
    return ag::SumAll(ag::Mul(p, p));
  };
  ExpectGradientsClose(permute_fn, {Leaf({2, 3, 4}, 38)});

  auto slice_fn = [](const std::vector<Variable>& in) {
    Variable s = ag::Slice(in[0], 1, 1, 3);
    return ag::SumAll(ag::Mul(s, s));
  };
  ExpectGradientsClose(slice_fn, {Leaf({2, 4}, 39)});
}

TEST(AutogradTest, SliceGradientZeroOutsideRange) {
  Variable x(Tensor::Arange(8).Reshape({2, 4}), true);
  Variable s = ag::Slice(x, 1, 1, 3);
  ag::SumAll(s).Backward();
  EXPECT_TRUE(x.grad().AllClose(
      Tensor::FromVector({2, 4}, {0, 1, 1, 0, 0, 1, 1, 0})));
}

TEST(AutogradTest, ConcatGradcheck) {
  auto fn = [](const std::vector<Variable>& in) {
    Variable c = ag::Concat({in[0], in[1]}, 1);
    return ag::SumAll(ag::Mul(c, c));
  };
  ExpectGradientsClose(fn, {Leaf({2, 3}, 40), Leaf({2, 2}, 41)});
}

TEST(AutogradTest, StackGradcheck) {
  auto fn = [](const std::vector<Variable>& in) {
    Variable s = ag::Stack({in[0], in[1]}, 0);
    return ag::SumAll(ag::Mul(s, s));
  };
  ExpectGradientsClose(fn, {Leaf({2, 3}, 42), Leaf({2, 3}, 43)});
}

TEST(AutogradTest, EmbeddingLookupGradScatter) {
  Variable w(Tensor::Arange(6).Reshape({3, 2}), true);
  Variable picked = ag::EmbeddingLookup(w, {1, 1, 2});
  ag::SumAll(picked).Backward();
  EXPECT_TRUE(w.grad().AllClose(
      Tensor::FromVector({3, 2}, {0, 0, 2, 2, 1, 1})));
}

TEST(AutogradTest, EmbeddingLookupGradcheck) {
  auto fn = [](const std::vector<Variable>& in) {
    Variable e = ag::EmbeddingLookup(in[0], {0, 2, 2, 1});
    return ag::SumAll(ag::Mul(e, e));
  };
  ExpectGradientsClose(fn, {Leaf({3, 4}, 44)});
}

TEST(AutogradTest, BroadcastToGradcheck) {
  auto fn = [](const std::vector<Variable>& in) {
    Variable b = ag::BroadcastTo(in[0], {4, 2, 3});
    return ag::SumAll(ag::Mul(b, b));
  };
  ExpectGradientsClose(fn, {Leaf({2, 3}, 45)});
}

TEST(AutogradTest, DropoutTrainEvalSemantics) {
  Rng rng(46);
  Variable x(Tensor::Ones({1000}), true);
  Variable eval_out = ag::Dropout(x, 0.4f, /*training=*/false, &rng);
  EXPECT_TRUE(eval_out.value().AllClose(x.value()));
  Variable train_out = ag::Dropout(x, 0.4f, /*training=*/true, &rng);
  // Mean preserved in expectation by inverted scaling.
  EXPECT_NEAR(train_out.value().MeanAll(), 1.0f, 0.1f);
  // Gradient equals the mask.
  ag::SumAll(train_out).Backward();
  EXPECT_TRUE(x.grad().AllClose(
      train_out.value()));  // since x is all-ones, out == mask
}

TEST(AutogradTest, GateCompositeGradcheck) {
  // A GRU-style gate: z = sigmoid(x W + h U); out = z*h + (1-z)*tanh(x).
  auto fn = [](const std::vector<Variable>& in) {
    const Variable& x = in[0];
    const Variable& h = in[1];
    const Variable& w = in[2];
    const Variable& u = in[3];
    Variable z = ag::Sigmoid(ag::Add(ag::Matmul(x, w), ag::Matmul(h, u)));
    Variable one_minus_z = ag::AddScalar(ag::Neg(z), 1.0f);
    Variable out = ag::Add(ag::Mul(z, h), ag::Mul(one_minus_z, ag::Tanh(x)));
    return ag::SumAll(ag::Mul(out, out));
  };
  ExpectGradientsClose(fn, {Leaf({2, 3}, 47), Leaf({2, 3}, 48),
                            Leaf({3, 3}, 49), Leaf({3, 3}, 50)});
}

TEST(AutogradTest, AttentionCompositeGradcheck) {
  // softmax(QK^T) V: the self-learning-graph pattern of Eq (6).
  auto fn = [](const std::vector<Variable>& in) {
    Variable scores = ag::Matmul(in[0], ag::Transpose(in[1], 0, 1));
    Variable attn = ag::Softmax(scores, 1);
    Variable out = ag::Matmul(attn, in[2]);
    return ag::SumAll(ag::Mul(out, out));
  };
  ExpectGradientsClose(fn, {Leaf({3, 2}, 51), Leaf({3, 2}, 52),
                            Leaf({3, 2}, 53)});
}

TEST(AutogradTest, LossGradchecks) {
  auto mae_fn = [](const std::vector<Variable>& in) {
    Variable target(Tensor::FromVector({2, 2}, {5, -3, 2, 7}));
    return ag::MaeLoss(in[0], target);
  };
  ExpectGradientsClose(mae_fn, {Leaf({2, 2}, 54)});

  auto mse_fn = [](const std::vector<Variable>& in) {
    Variable target(Tensor::FromVector({2, 2}, {5, -3, 2, 7}));
    return ag::MseLoss(in[0], target);
  };
  ExpectGradientsClose(mse_fn, {Leaf({2, 2}, 55)});
}

TEST(AutogradTest, MaskedMaeIgnoresNullTargets) {
  Variable pred(Tensor::FromVector({4}, {1, 2, 3, 4}), true);
  Variable target(Tensor::FromVector({4}, {0, 0, 5, 8}));
  Variable loss = ag::MaskedMaeLoss(pred, target, /*null_threshold=*/1e-3f);
  // Only elements 2 and 3 count: (|3-5| + |4-8|) / 2 = 3.
  EXPECT_NEAR(loss.value().item(), 3.0f, 1e-5f);
  loss.Backward();
  EXPECT_EQ(pred.grad().flat(0), 0.0f);
  EXPECT_EQ(pred.grad().flat(1), 0.0f);
  EXPECT_NE(pred.grad().flat(2), 0.0f);
}

TEST(AutogradTest, MaskedMaeAllNullIsZero) {
  Variable pred(Tensor::FromVector({2}, {1, 2}), true);
  Variable target(Tensor::Zeros({2}));
  Variable loss = ag::MaskedMaeLoss(pred, target, 1e-3f);
  EXPECT_EQ(loss.value().item(), 0.0f);
  loss.Backward();
  EXPECT_TRUE(pred.grad().AllClose(Tensor::Zeros({2})));
}

TEST(AutogradTest, InferenceGraphDropsHistory) {
  // With no trainable leaves, interior nodes must not retain parents.
  Variable a(Tensor::Ones({2, 2}));
  Variable b(Tensor::Ones({2, 2}));
  Variable c = ag::Matmul(a, b);
  EXPECT_FALSE(c.needs_grad());
  EXPECT_TRUE(c.node()->parents.empty());
}

TEST(AutogradTest, SameShapeFastPathGradcheck) {
  // The non-broadcast closures take the fused ReduceTo-skipping paths
  // (axpy for Sub/MulScalar, multiply-accumulate for Mul/Exp, fused
  // kernel for Div rhs); verify them against finite differences.
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        Variable q = ag::Div(ag::Mul(v[0], v[1]), ag::AddScalar(v[1], 2.5f));
        Variable r = ag::Sub(ag::MulScalar(v[0], -1.7f), q);
        return ag::SumAll(ag::Add(r, ag::Exp(v[0])));
      },
      {Leaf({3, 5}, 91), Leaf({3, 5}, 92, 0.5f, 1.5f)});
}

TEST(AutogradTest, FusedActivationGradcheckComposite) {
  // Sigmoid/Tanh/Relu/Softmax backward all route through the fused
  // kernels; chain them the way a GRU gate does.
  ExpectGradientsClose(
      [](const std::vector<Variable>& v) {
        Variable z = ag::Sigmoid(v[0]);
        Variable r = ag::Tanh(v[1]);
        Variable h = ag::Relu(ag::Mul(z, r));
        return ag::SumAll(ag::Mul(ag::Softmax(h, -1), z));
      },
      {Leaf({4, 6}, 93), Leaf({4, 6}, 94)});
}

TEST(AutogradTest, NoGradGuardSkipsGraphConstruction) {
  Variable w(Tensor::Ones({3, 3}), /*requires_grad=*/true);
  Variable x(Tensor::Ones({3, 3}));
  {
    ag::NoGradGuard guard;
    EXPECT_FALSE(ag::GradEnabled());
    Variable y = ag::Matmul(x, w);
    // The result is a plain leaf: no parents, no gradient flow, even
    // though w requires grad.
    EXPECT_FALSE(y.needs_grad());
    EXPECT_TRUE(y.node()->parents.empty());
    EXPECT_FALSE(static_cast<bool>(y.node()->backward_fn));
    // Values are still computed normally.
    EXPECT_TRUE(y.value().AllClose(Tensor::Full({3, 3}, 3.0f)));
  }
  EXPECT_TRUE(ag::GradEnabled());
  // Guards nest and restore the outer state.
  {
    ag::NoGradGuard outer;
    {
      ag::NoGradGuard inner;
      EXPECT_FALSE(ag::GradEnabled());
    }
    EXPECT_FALSE(ag::GradEnabled());
  }
  EXPECT_TRUE(ag::GradEnabled());
}

TEST(AutogradTest, NoGradGuardLeavesParamsUntouched) {
  Variable w = Leaf({4, 4}, 95);
  const Tensor w_before = w.value().Clone();
  {
    ag::NoGradGuard guard;
    Variable y = ag::Sigmoid(ag::Matmul(Leaf({4, 4}, 96), w));
    (void)y;
  }
  EXPECT_FALSE(w.has_grad());
  EXPECT_EQ(Tensor::MaxAbsDiff(w.value(), w_before), 0.0f);
  // Gradient flow works again once the guard is gone.
  ag::SumAll(ag::Mul(w, w)).Backward();
  EXPECT_TRUE(w.has_grad());
}

TEST(AutogradTest, NoGradGuardKeepsForwardOpsFlat) {
  obs::Counter* fwd =
      obs::Registry::Global().GetCounter("autograd.forward_ops");
  Variable w = Leaf({4, 4}, 97);
  const int64_t before = fwd->Value();
  {
    ag::NoGradGuard guard;
    Variable y = ag::Tanh(ag::Matmul(Leaf({4, 4}, 98), w));
    (void)y;
  }
  EXPECT_EQ(fwd->Value(), before);
  Variable y = ag::Tanh(ag::Matmul(Leaf({4, 4}, 99), w));
  EXPECT_GT(fwd->Value(), before);
}

TEST(AutogradTest, DeepChainBackwardDoesNotOverflow) {
  // Simulates long BPTT chains (encoder-decoder over many steps).
  Variable x(Tensor::Full({4}, 1.0001f), true);
  Variable y = x;
  for (int i = 0; i < 3000; ++i) {
    y = ag::MulScalar(y, 1.0f);
  }
  ag::SumAll(y).Backward();
  EXPECT_TRUE(x.grad().AllClose(Tensor::Ones({4}), 1e-4f));
}

}  // namespace
}  // namespace tgcrn
