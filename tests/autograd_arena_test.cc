// Copyright 2026 TGCRN Reproduction Authors
// Steady-state memory plan tests: the common::Arena allocator, the
// autograd step arena (nodes bump-allocated per step, flat teardown,
// nothing live after the scope — run under ASan in CI), and persistent
// gradient buffers (ZeroGrad retains storage; a steady-state training step
// performs zero tensor allocations).
#include <cmath>
#include <cstring>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/arena.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "optim/optimizer.h"
#include "tensor/tensor.h"

namespace tgcrn {
namespace {

using ag::Variable;

int64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name)->Value();
}

Variable Leaf(Shape shape, uint64_t seed, bool requires_grad = true) {
  Rng rng(seed);
  return Variable(Tensor::RandUniform(std::move(shape), -1.0f, 1.0f, &rng),
                  requires_grad);
}

// --- common::Arena --------------------------------------------------------

TEST(ArenaTest, BumpAllocatesAlignedAndTracksUsage) {
  common::Arena arena(/*block_bytes=*/1024);
  void* a = arena.Allocate(10, 8);
  void* b = arena.Allocate(24, 16);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 16, 0u);
  EXPECT_NE(a, b);
  const auto stats = arena.stats();
  EXPECT_GE(stats.bytes_used, 34u);
  EXPECT_GE(stats.bytes_reserved, stats.bytes_used);
  EXPECT_EQ(stats.num_blocks, 1u);
}

TEST(ArenaTest, ResetReusesTheSameStorage) {
  common::Arena arena(/*block_bytes=*/1024);
  void* first = arena.Allocate(64, 8);
  arena.Reset();
  void* again = arena.Allocate(64, 8);
  // O(1) rewind: the first allocation after Reset lands on the same bytes.
  EXPECT_EQ(first, again);
  EXPECT_EQ(arena.stats().high_water_bytes, 64u);
  EXPECT_EQ(arena.stats().num_blocks, 1u);
}

TEST(ArenaTest, GrowsByBlocksAndServesOversizedRequests) {
  common::Arena arena(/*block_bytes=*/256);
  for (int i = 0; i < 8; ++i) arena.Allocate(100, 8);
  EXPECT_GT(arena.stats().num_blocks, 1u);
  // A request larger than the block size gets a dedicated block.
  void* big = arena.Allocate(5000, 8);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0xab, 5000);  // the full extent must be writable
  const size_t blocks_before = arena.stats().num_blocks;
  arena.Reset();
  EXPECT_EQ(arena.stats().num_blocks, blocks_before);  // capacity retained
  EXPECT_EQ(arena.stats().bytes_used, 0u);
  arena.ReleaseBlocks();
  EXPECT_EQ(arena.stats().num_blocks, 0u);
  EXPECT_EQ(arena.stats().bytes_reserved, 0u);
}

// --- Step arena -----------------------------------------------------------

TEST(StepArenaTest, InteriorNodesGoThroughArenaAndAllDieAtScopeEnd) {
  const auto before = ag::internal::ThreadGraphArenaStats();
  const int64_t arena_nodes_before = CounterValue("arena.nodes_allocated");
  {
    ag::StepArenaScope step;
    Variable w = Leaf({8, 8}, 1);  // leaves stay heap-allocated
    Variable x = Leaf({8, 8}, 2, /*requires_grad=*/false);
    Variable y = ag::Sigmoid(ag::Matmul(x, w));
    ag::SumAll(y).Backward();
    ASSERT_TRUE(w.has_grad());

    const auto during = ag::internal::ThreadGraphArenaStats();
    EXPECT_TRUE(during.in_step);
    // Matmul + Sigmoid + SumAll = three interior nodes in the arena.
    EXPECT_EQ(during.live_nodes, 3);
    EXPECT_GT(during.bytes_used, 0u);
    EXPECT_EQ(during.nodes_allocated_total,
              before.nodes_allocated_total + 3);
  }
  const auto after = ag::internal::ThreadGraphArenaStats();
  EXPECT_FALSE(after.in_step);
  EXPECT_EQ(after.live_nodes, 0);  // flat teardown destroyed every node
  EXPECT_EQ(after.bytes_used, 0u);
  EXPECT_EQ(CounterValue("arena.nodes_allocated"), arena_nodes_before + 3);
}

TEST(StepArenaTest, HeapPathOutsideScopeStillWorks) {
  const auto before = ag::internal::ThreadGraphArenaStats();
  Variable w = Leaf({4, 4}, 3);
  Variable y = ag::SumAll(ag::Tanh(w));
  y.Backward();
  EXPECT_TRUE(w.has_grad());
  const auto after = ag::internal::ThreadGraphArenaStats();
  EXPECT_EQ(after.nodes_allocated_total, before.nodes_allocated_total);
}

TEST(StepArenaTest, ScopesNestAndResetOnlyAtOutermostExit) {
  ag::StepArenaScope outer;
  Variable w = Leaf({4, 4}, 4);
  Variable a = ag::Relu(w);
  {
    ag::StepArenaScope inner;
    Variable b = ag::SumAll(a);
    EXPECT_GE(ag::internal::ThreadGraphArenaStats().live_nodes, 2);
  }
  // Inner scope exit must not have torn down the graph: `a` is alive and
  // differentiable.
  EXPECT_TRUE(ag::internal::ThreadGraphArenaStats().in_step);
  ag::SumAll(a).Backward();
  EXPECT_TRUE(w.has_grad());
}

TEST(StepArenaTest, NoGradGuardInsideScopeBuildsNoArenaNodes) {
  ag::StepArenaScope step;
  const auto before = ag::internal::ThreadGraphArenaStats();
  {
    ag::NoGradGuard guard;
    Variable w = Leaf({4, 4}, 6);
    Variable y = ag::Matmul(w, w);
    EXPECT_FALSE(y.needs_grad());
  }
  EXPECT_EQ(ag::internal::ThreadGraphArenaStats().nodes_allocated_total,
            before.nodes_allocated_total);
}

TEST(StepArenaTest, DetachedValueSurvivesScopeEnd) {
  Variable kept;
  {
    ag::StepArenaScope step;
    Variable w = Leaf({4, 4}, 7);
    kept = ag::Sigmoid(ag::Matmul(w, w)).Detach();
  }
  // The arena node is gone but the detached heap leaf shares the value
  // storage, so this read is valid (ASan would flag a use-after-free).
  EXPECT_EQ(kept.numel(), 16);
  EXPECT_GT(kept.value().SumAll(), 0.0f);
}

// The same step built inside a StepArenaScope (arena nodes) and outside
// any scope (refcounted heap nodes) must produce identical gradients.
TEST(StepArenaTest, GradientsBitwiseIdenticalArenaOnOff) {
  auto run = [](bool in_scope, int64_t* arena_nodes) {
    const int64_t nodes_before =
        ag::internal::ThreadGraphArenaStats().nodes_allocated_total;
    std::optional<ag::StepArenaScope> step;
    if (in_scope) step.emplace();
    Variable w = Leaf({16, 16}, 8);
    Variable x = Leaf({16, 16}, 9, /*requires_grad=*/false);
    Variable y = ag::MeanAll(ag::Tanh(ag::Matmul(x, w)));
    y.Backward();
    *arena_nodes =
        ag::internal::ThreadGraphArenaStats().nodes_allocated_total -
        nodes_before;
    return w.grad().Clone();
  };
  int64_t arena_nodes_in = 0;
  int64_t arena_nodes_out = 0;
  const Tensor with_arena = run(true, &arena_nodes_in);
  const Tensor without_arena = run(false, &arena_nodes_out);
  EXPECT_GT(arena_nodes_in, 0);   // interior nodes went to the arena
  EXPECT_EQ(arena_nodes_out, 0);  // heap nodes outside any scope
  ASSERT_EQ(with_arena.shape(), without_arena.shape());
  EXPECT_EQ(std::memcmp(with_arena.data(), without_arena.data(),
                        static_cast<size_t>(with_arena.numel()) *
                            sizeof(float)),
            0);
}

TEST(StepArenaTest, ManyParentConcatSpillsAndTearsDownCleanly) {
  ag::StepArenaScope step;
  Variable w = Leaf({4, 8}, 10);
  std::vector<Variable> parts;
  for (int i = 0; i < 9; ++i) parts.push_back(ag::MulScalar(w, float(i)));
  Variable y = ag::SumAll(ag::Concat(parts, 0));  // 9 parents > inline cap
  y.Backward();
  ASSERT_TRUE(w.has_grad());
  // d/dw sum(concat_i(i * w)) = sum_i(i) = 36 everywhere.
  EXPECT_TRUE(w.grad().AllClose(Tensor::Full({4, 8}, 36.0f)));
}

// --- Persistent gradient buffers ------------------------------------------

TEST(GradRetentionTest, ZeroGradRetainsStorageAcrossSteps) {
  Variable w = Leaf({32, 32}, 11);  // 1024 elements
  Variable x = Leaf({32, 32}, 12, /*requires_grad=*/false);
  auto step = [&]() {
    w.ZeroGrad();
    ag::StepArenaScope scope;
    ag::SumAll(ag::Matmul(x, w)).Backward();
  };

  step();
  ASSERT_TRUE(w.has_grad());
  const float* grad_ptr = w.grad().data();
  const Tensor first = w.grad().Clone();

  const int64_t reuse_before = CounterValue("tensor.grad_buffer_reuse");
  for (int i = 0; i < 4; ++i) {
    step();
    ASSERT_TRUE(w.has_grad());
    // Same buffer, memset-reused: the data pointer never changes and the
    // values match the first step bitwise (same inputs each step).
    EXPECT_EQ(w.grad().data(), grad_ptr) << "grad buffer reallocated";
    EXPECT_EQ(std::memcmp(w.grad().data(), first.data(),
                          static_cast<size_t>(first.numel()) * sizeof(float)),
              0);
  }
  EXPECT_GE(CounterValue("tensor.grad_buffer_reuse"), reuse_before + 4);
}

TEST(GradRetentionTest, ZeroGradClearsFlagButKeepsBuffer) {
  Variable w = Leaf({16, 16}, 13);
  ag::SumAll(w).Backward();
  ASSERT_TRUE(w.has_grad());
  const float* ptr = w.grad().data();
  w.ZeroGrad();
  EXPECT_FALSE(w.has_grad());
  ag::SumAll(w).Backward();
  ASSERT_TRUE(w.has_grad());
  EXPECT_EQ(w.grad().data(), ptr);
  EXPECT_TRUE(w.grad().AllClose(Tensor::Ones({16, 16})));
}

// The headline guarantee: a steady-state training step allocates no
// tensor storage at all — graph nodes come from the arena, activations,
// interior grads and the scalar loss (with its seed gradient) from the
// pool, and leaf grads from the retained buffers.
TEST(GradRetentionTest, SteadyStateStepMakesZeroTensorAllocations) {
  Variable w1 = Leaf({64, 64}, 14);
  Variable w2 = Leaf({64, 64}, 15);
  Variable x = Leaf({16, 64}, 16, /*requires_grad=*/false);

  auto step = [&]() {
    w1.ZeroGrad();
    w2.ZeroGrad();
    ag::StepArenaScope scope;
    Variable h = ag::Sigmoid(ag::Matmul(x, w1));
    Variable loss = ag::SumAll(ag::Tanh(ag::Matmul(h, w2)));
    loss.Backward();
  };

  for (int i = 0; i < 3; ++i) step();  // warm the pool and the arena

  const int64_t allocs_before = CounterValue("tensor.allocations");
  const int64_t reuse_before = CounterValue("tensor.grad_buffer_reuse");
  for (int i = 0; i < 5; ++i) step();
  EXPECT_EQ(CounterValue("tensor.allocations"), allocs_before)
      << "steady-state step allocated tensor storage";
  EXPECT_EQ(CounterValue("tensor.grad_buffer_reuse"), reuse_before + 10)
      << "expected both leaf grads reused every step";
}

// --- In-place Adam over the stable buffers --------------------------------

TEST(AdamInPlaceTest, ParameterStorageIsStableAcrossSteps) {
  Variable w = Leaf({32, 32}, 17);
  const float* value_ptr = w.value().data();
  optim::Adam adam({w}, /*lr=*/1e-2f);
  for (int i = 0; i < 3; ++i) {
    w.ZeroGrad();
    ag::StepArenaScope scope;
    ag::MeanAll(ag::Mul(w, w)).Backward();
    adam.Step();
  }
  EXPECT_EQ(w.value().data(), value_ptr) << "Adam reallocated the weights";
  EXPECT_EQ(adam.step_count(), 3);
}

TEST(AdamInPlaceTest, FoldedWeightDecayMatchesMaterializedFormula) {
  // Reference: the pre-fold computation g' = g + wd * w via explicit
  // temporaries, then the textbook Adam update. Must match bitwise.
  const float lr = 1e-3f, beta1 = 0.9f, beta2 = 0.999f, eps = 1e-8f,
              wd = 1e-4f;
  Rng rng(18);
  const Tensor w0 = Tensor::RandUniform({40}, -1.0f, 1.0f, &rng);
  const Tensor g = Tensor::RandUniform({40}, -1.0f, 1.0f, &rng);

  Variable p(w0.Clone(), /*requires_grad=*/true);
  ag::SumAll(ag::Mul(p, Variable(g))).Backward();  // dL/dp == g
  optim::Adam adam({p}, lr, beta1, beta2, eps, wd);
  adam.Step();

  const Tensor gp = g.Add(w0.MulScalar(wd));
  std::vector<float> expected(40);
  const float bias1 = 1.0f - beta1;  // step 1
  const float bias2 = 1.0f - beta2;
  for (int j = 0; j < 40; ++j) {
    const float m = (1.0f - beta1) * gp.data()[j];
    const float v = (1.0f - beta2) * gp.data()[j] * gp.data()[j];
    const float m_hat = m / bias1;
    const float v_hat = v / bias2;
    expected[j] = w0.data()[j] - lr * m_hat / (std::sqrt(v_hat) + eps);
  }
  EXPECT_EQ(std::memcmp(p.value().data(), expected.data(),
                        40 * sizeof(float)),
            0)
      << "folded weight decay changed the update bitwise";
}

}  // namespace
}  // namespace tgcrn
