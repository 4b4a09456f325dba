// Copyright 2026 TGCRN Reproduction Authors
// Bitwise-determinism tests for every parallelized tensor kernel: the same
// computation at 1, 2 and 8 threads must produce byte-identical results on
// randomized shapes (including sizes not divisible by the chunk grain,
// empty tensors, and batch=1), and a full Trainer epoch must produce
// identical losses at 1 vs N threads — at each fixed SIMD ISA level. A
// regression test pins that the TGCRN_ISA env override actually routes
// dispatch (via the simd.* counters in the metric registry).
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/sparse_ops.h"
#include "autograd/variable.h"
#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "core/tgcrn.h"
#include "core/trainer.h"
#include "datagen/metro_sim.h"
#include "obs/metrics.h"
#include "tensor/tensor.h"

namespace tgcrn {
namespace {

using common::ScopedNumThreads;

// The fixed ISA levels the determinism contract is stated at: scalar
// always, AVX2 when the build and the CPU have it.
std::vector<common::SimdIsa> AvailableIsas() {
  std::vector<common::SimdIsa> isas = {common::SimdIsa::kScalar};
  if (common::Avx2CompiledIn() && common::CpuSupportsAvx2()) {
    isas.push_back(common::SimdIsa::kAvx2);
  }
  return isas;
}

// Runs `make` at 1, 2, 4 and 8 threads and asserts the outputs are
// byte-identical. `make` must build its own inputs (deterministically) so
// each thread count sees a fresh computation.
void ExpectBitwiseIdenticalAcrossThreads(
    const std::function<Tensor()>& make, const std::string& label) {
  Tensor reference;
  {
    ScopedNumThreads guard(1);
    reference = make();
  }
  for (const int threads : {2, 4, 8}) {
    ScopedNumThreads guard(threads);
    const Tensor got = make();
    ASSERT_EQ(got.shape(), reference.shape()) << label;
    if (got.numel() == 0) continue;  // memcmp must not see a null data()
    ASSERT_EQ(std::memcmp(got.data(), reference.data(),
                          static_cast<size_t>(got.numel()) * sizeof(float)),
              0)
        << label << " differs at " << threads << " threads";
  }
}

// Shapes chosen to straddle the parallel grain (~1k elements for
// elementwise kernels): several chunks, ragged tails, plus degenerate
// cases that must take the serial path.
std::vector<Shape> ElementwiseShapes() {
  return {
      {3, 47, 33},   // ~4.6k elements, not divisible by any grain
      {1, 5000},     // batch=1, splits into several chunks
      {1025},        // one element past the grain
      {7, 11},       // far below the grain: serial at any thread count
      {0},           // empty
      {4, 0, 9},     // empty via a zero dim
      {},            // rank-0 scalar
  };
}

TEST(ParallelDeterminismTest, ElementwiseBinarySameShape) {
  for (const Shape& shape : ElementwiseShapes()) {
    const int64_t id = ShapeNumel(shape);
    ExpectBitwiseIdenticalAcrossThreads(
        [&] {
          Rng rng(100 + id);
          Tensor a = Tensor::RandUniform(shape, -2, 2, &rng);
          Tensor b = Tensor::RandUniform(shape, -2, 2, &rng);
          return a.Mul(b).Add(a.Div(b.AddScalar(3.0f))).Sub(a.Maximum(b));
        },
        "elementwise " + ShapeToString(shape));
  }
}

TEST(ParallelDeterminismTest, ElementwiseBroadcast) {
  ExpectBitwiseIdenticalAcrossThreads(
      [] {
        Rng rng(7);
        Tensor a = Tensor::RandUniform({5, 37, 29}, -2, 2, &rng);
        Tensor row = Tensor::RandUniform({29}, -2, 2, &rng);
        Tensor col = Tensor::RandUniform({37, 1}, -2, 2, &rng);
        return a.Add(row).Mul(col).Minimum(a);
      },
      "broadcast binary");
  // Broadcast from a scalar tensor across a large output.
  ExpectBitwiseIdenticalAcrossThreads(
      [] {
        Rng rng(8);
        Tensor a = Tensor::RandUniform({4, 1999}, -2, 2, &rng);
        return a.Mul(Tensor::Scalar(0.37f));
      },
      "broadcast scalar");
}

TEST(ParallelDeterminismTest, UnaryMaps) {
  for (const Shape& shape : ElementwiseShapes()) {
    const int64_t id = ShapeNumel(shape);
    ExpectBitwiseIdenticalAcrossThreads(
        [&] {
          Rng rng(200 + id);
          Tensor a = Tensor::RandUniform(shape, -3, 3, &rng);
          return a.Tanh().Add(a.Sigmoid()).Add(a.Relu()).Add(
              a.Abs().AddScalar(0.1f).Log());
        },
        "unary " + ShapeToString(shape));
  }
}

TEST(ParallelDeterminismTest, MatmulRandomizedShapes) {
  Rng shape_rng(31);
  for (int trial = 0; trial < 8; ++trial) {
    const int64_t batch = shape_rng.UniformInt(1, 4);
    const int64_t m = shape_rng.UniformInt(1, 70);
    const int64_t k = shape_rng.UniformInt(1, 20);
    const int64_t n = shape_rng.UniformInt(1, 30);
    ExpectBitwiseIdenticalAcrossThreads(
        [&] {
          Rng rng(300 + trial);
          Tensor a = Tensor::RandUniform({batch, m, k}, -2, 2, &rng);
          Tensor b = Tensor::RandUniform({batch, k, n}, -2, 2, &rng);
          return a.Matmul(b);
        },
        "matmul trial " + std::to_string(trial));
  }
}

TEST(ParallelDeterminismTest, MatmulEdgeCases) {
  // batch=1 with rows straddling the chunk grain.
  ExpectBitwiseIdenticalAcrossThreads(
      [] {
        Rng rng(1);
        Tensor a = Tensor::RandUniform({1, 130, 17}, -1, 1, &rng);
        Tensor b = Tensor::RandUniform({1, 17, 23}, -1, 1, &rng);
        return a.Matmul(b);
      },
      "matmul batch=1");
  // Broadcast batch dims: [B, 1, m, k] x [1, C, k, n].
  ExpectBitwiseIdenticalAcrossThreads(
      [] {
        Rng rng(2);
        Tensor a = Tensor::RandUniform({3, 1, 19, 7}, -1, 1, &rng);
        Tensor b = Tensor::RandUniform({1, 5, 7, 11}, -1, 1, &rng);
        return a.Matmul(b);
      },
      "matmul broadcast batch");
  // Rank-2 (no batch) and empty m.
  ExpectBitwiseIdenticalAcrossThreads(
      [] {
        Rng rng(3);
        Tensor a = Tensor::RandUniform({200, 13}, -1, 1, &rng);
        Tensor b = Tensor::RandUniform({13, 29}, -1, 1, &rng);
        return a.Matmul(b);
      },
      "matmul rank-2");
  ExpectBitwiseIdenticalAcrossThreads(
      [] {
        Tensor a = Tensor::Zeros({2, 0, 5});
        Tensor b = Tensor::Zeros({2, 5, 3});
        return a.Matmul(b);
      },
      "matmul empty rows");
}

TEST(ParallelDeterminismTest, TransposedMatmuls) {
  // The backward-pass fast paths: g . B^T and A^T . g read the transposed
  // operand through strides. Same randomized-shape regime as Matmul.
  Rng shape_rng(57);
  for (int trial = 0; trial < 6; ++trial) {
    const int64_t batch = shape_rng.UniformInt(1, 4);
    const int64_t m = shape_rng.UniformInt(1, 70);
    const int64_t k = shape_rng.UniformInt(1, 20);
    const int64_t n = shape_rng.UniformInt(1, 30);
    ExpectBitwiseIdenticalAcrossThreads(
        [&] {
          Rng rng(600 + trial);
          Tensor a = Tensor::RandUniform({batch, k, m}, -2, 2, &rng);
          Tensor b = Tensor::RandUniform({batch, k, n}, -2, 2, &rng);
          return a.MatmulTransposeA(b);
        },
        "matmul_ta trial " + std::to_string(trial));
    ExpectBitwiseIdenticalAcrossThreads(
        [&] {
          Rng rng(700 + trial);
          Tensor a = Tensor::RandUniform({batch, m, k}, -2, 2, &rng);
          Tensor b = Tensor::RandUniform({batch, n, k}, -2, 2, &rng);
          return a.MatmulTransposeB(b);
        },
        "matmul_tb trial " + std::to_string(trial));
  }
  // Broadcast batch dims and rank-2 edge cases.
  ExpectBitwiseIdenticalAcrossThreads(
      [] {
        Rng rng(20);
        Tensor a = Tensor::RandUniform({3, 1, 7, 19}, -1, 1, &rng);
        Tensor b = Tensor::RandUniform({1, 5, 7, 11}, -1, 1, &rng);
        return a.MatmulTransposeA(b);
      },
      "matmul_ta broadcast batch");
  ExpectBitwiseIdenticalAcrossThreads(
      [] {
        Rng rng(21);
        Tensor a = Tensor::RandUniform({200, 13}, -1, 1, &rng);
        Tensor b = Tensor::RandUniform({29, 13}, -1, 1, &rng);
        return a.MatmulTransposeB(b);
      },
      "matmul_tb rank-2");
}

TEST(ParallelDeterminismTest, FusedGradientKernels) {
  for (const Shape& shape : ElementwiseShapes()) {
    const int64_t id = ShapeNumel(shape);
    ExpectBitwiseIdenticalAcrossThreads(
        [&] {
          Rng rng(800 + id);
          Tensor x = Tensor::RandUniform(shape, -3, 3, &rng);
          Tensor g = Tensor::RandUniform(shape, -2, 2, &rng);
          Tensor y = x.Sigmoid();
          Tensor t = x.Tanh();
          return SigmoidGradKernel(y, g)
              .Add(TanhGradKernel(t, g))
              .Add(ReluGradKernel(x, g))
              .Add(DivGradRhsKernel(g, x, x.Abs().AddScalar(1.0f)));
        },
        "fused grad " + ShapeToString(shape));
  }
  // Softmax backward rows straddle the per-row grain.
  ExpectBitwiseIdenticalAcrossThreads(
      [] {
        Rng rng(30);
        Tensor x = Tensor::RandUniform({16, 33, 33}, -5, 5, &rng);
        Tensor g = Tensor::RandUniform({16, 33, 33}, -2, 2, &rng);
        return SoftmaxGradKernel(x.Softmax(-1), g);
      },
      "softmax grad");
  ExpectBitwiseIdenticalAcrossThreads(
      [] {
        Rng rng(31);
        Tensor acc = Tensor::RandUniform({9, 501}, -1, 1, &rng);
        Tensor u = Tensor::RandUniform({9, 501}, -1, 1, &rng);
        Tensor v = Tensor::RandUniform({9, 501}, -1, 1, &rng);
        acc.AddScaledInplace(u, -0.37f);
        acc.AddProductInplace(u, v);
        return acc;
      },
      "AddScaledInplace + AddProductInplace");
}

TEST(ParallelDeterminismTest, Reductions) {
  // SumAll via a single-element tensor so the helper can memcmp it. Sizes
  // straddle the fixed reduction chunk (2048): below, exactly at, ragged.
  for (const int64_t n : {0, 1, 2000, 2048, 2049, 50001}) {
    ExpectBitwiseIdenticalAcrossThreads(
        [&] {
          Rng rng(400 + n);
          Tensor a = n > 0 ? Tensor::RandUniform({n}, -1, 1, &rng)
                           : Tensor::Zeros({0});
          return Tensor::Scalar(a.SumAll());
        },
        "SumAll n=" + std::to_string(n));
  }
  // Axis reductions: every output element keeps serial arithmetic.
  for (const int64_t axis : {0, 1, 2}) {
    ExpectBitwiseIdenticalAcrossThreads(
        [&] {
          Rng rng(500 + axis);
          Tensor a = Tensor::RandUniform({13, 37, 11}, -2, 2, &rng);
          return a.Sum(axis).Add(a.Mean(axis)).Add(a.Max(axis));
        },
        "axis reduction axis=" + std::to_string(axis));
  }
  ExpectBitwiseIdenticalAcrossThreads(
      [] {
        Rng rng(6);
        Tensor a = Tensor::RandUniform({2300, 3}, -2, 2, &rng);
        return a.Mean(1).Add(Tensor::Scalar(a.MeanAll()));
      },
      "MeanAll + outer-heavy reduction");
}

TEST(ParallelDeterminismTest, SoftmaxRows) {
  ExpectBitwiseIdenticalAcrossThreads(
      [] {
        Rng rng(9);
        Tensor a = Tensor::RandUniform({16, 33, 33}, -5, 5, &rng);
        return a.Softmax(-1);
      },
      "softmax last axis");
  ExpectBitwiseIdenticalAcrossThreads(
      [] {
        Rng rng(10);
        Tensor a = Tensor::RandUniform({16, 33, 33}, -5, 5, &rng);
        return a.Softmax(1);  // general path: broadcast kernels
      },
      "softmax middle axis");
}

TEST(ParallelDeterminismTest, PermuteAndBroadcastTo) {
  ExpectBitwiseIdenticalAcrossThreads(
      [] {
        Rng rng(11);
        Tensor a = Tensor::RandUniform({6, 29, 31}, -1, 1, &rng);
        return a.Permute({2, 0, 1});
      },
      "permute");
  ExpectBitwiseIdenticalAcrossThreads(
      [] {
        Rng rng(12);
        Tensor a = Tensor::RandUniform({1, 41, 1}, -1, 1, &rng);
        return a.BroadcastTo({7, 41, 19});
      },
      "broadcast_to");
}

TEST(ParallelDeterminismTest, InplaceAccumulation) {
  ExpectBitwiseIdenticalAcrossThreads(
      [] {
        Rng rng(13);
        Tensor acc = Tensor::RandUniform({9, 501}, -1, 1, &rng);
        Tensor inc = Tensor::RandUniform({9, 501}, -1, 1, &rng);
        acc.AddInplace(inc);
        acc.ScaleInplace(0.5f);
        return acc;
      },
      "AddInplace + ScaleInplace");
}

// End-to-end: one Trainer epoch on a small metro-sim dataset. Everything
// downstream of the kernels (losses, validation MAE, updated weights) must
// match exactly between a 1-thread and an 8-thread run.
TEST(ParallelDeterminismTest, TrainerEpochIdenticalAcrossThreadCounts) {
  datagen::MetroSimConfig sim_config;
  sim_config.num_stations = 6;
  sim_config.num_days = 8;
  sim_config.seed = 123;
  sim_config.keep_od_ground_truth = false;

  auto run_epoch = [&](int threads) {
    auto sim = datagen::SimulateMetro(sim_config);
    data::ForecastDataset::Options options;
    options.input_steps = 4;
    options.output_steps = 2;
    data::ForecastDataset dataset(std::move(sim.data), options);

    core::TGCRNConfig model_config;
    model_config.num_nodes = 6;
    model_config.input_dim = 2;
    model_config.output_dim = 2;
    model_config.horizon = 2;
    model_config.hidden_dim = 8;
    model_config.num_layers = 1;
    model_config.node_embed_dim = 6;
    model_config.time_embed_dim = 4;
    model_config.steps_per_day = 72;
    Rng rng(55);
    core::TGCRN model(model_config, &rng);

    core::TrainConfig train_config;
    train_config.epochs = 1;
    train_config.max_batches_per_epoch = 12;
    train_config.num_threads = threads;
    train_config.verbose = false;
    return core::TrainAndEvaluate(&model, dataset, train_config);
  };

  const auto serial = run_epoch(1);
  const auto parallel = run_epoch(8);
  common::SetNumThreads(1);

  ASSERT_EQ(serial.train_loss_history.size(),
            parallel.train_loss_history.size());
  for (size_t i = 0; i < serial.train_loss_history.size(); ++i) {
    EXPECT_EQ(serial.train_loss_history[i], parallel.train_loss_history[i])
        << "train loss diverged at epoch " << i;
  }
  ASSERT_EQ(serial.val_mae_history.size(), parallel.val_mae_history.size());
  for (size_t i = 0; i < serial.val_mae_history.size(); ++i) {
    EXPECT_EQ(serial.val_mae_history[i], parallel.val_mae_history[i])
        << "val MAE diverged at epoch " << i;
  }
  ASSERT_EQ(serial.per_horizon.size(), parallel.per_horizon.size());
  for (size_t h = 0; h < serial.per_horizon.size(); ++h) {
    EXPECT_EQ(serial.per_horizon[h].mae, parallel.per_horizon[h].mae);
    EXPECT_EQ(serial.per_horizon[h].rmse, parallel.per_horizon[h].rmse);
  }
  EXPECT_EQ(parallel.num_threads, 8);
}

// Kernel-level sweep at each fixed ISA: thread-count invariance must hold
// with the scalar kernels pinned and (when available) with the AVX2
// kernels pinned — not just at whatever level auto-dispatch picked.
TEST(ParallelDeterminismTest, MatmulAndVmathPerIsa) {
  for (const common::SimdIsa isa : AvailableIsas()) {
    common::ScopedSimdIsa pin(isa);
    const std::string tag = std::string(common::SimdIsaName(isa));
    ExpectBitwiseIdenticalAcrossThreads(
        [] {
          Rng rng(40);
          Tensor a = Tensor::RandUniform({2, 130, 270}, -1, 1, &rng);
          Tensor b = Tensor::RandUniform({2, 270, 23}, -1, 1, &rng);
          return a.Matmul(b);
        },
        "matmul (packed path) isa=" + tag);
    ExpectBitwiseIdenticalAcrossThreads(
        [] {
          Rng rng(41);
          Tensor a = Tensor::RandUniform({6, 1, 17}, -1, 1, &rng);
          Tensor b = Tensor::RandUniform({6, 17, 16}, -1, 1, &rng);
          return a.Matmul(b);
        },
        "matmul (m=1 batch path) isa=" + tag);
    ExpectBitwiseIdenticalAcrossThreads(
        [] {
          Rng rng(42);
          Tensor a = Tensor::RandUniform({3, 19, 130}, -1, 1, &rng);
          Tensor b = Tensor::RandUniform({3, 19, 11}, -1, 1, &rng);
          return a.MatmulTransposeA(b);
        },
        "matmul_ta isa=" + tag);
    ExpectBitwiseIdenticalAcrossThreads(
        [] {
          Rng rng(43);
          Tensor a = Tensor::RandUniform({130, 21}, -1, 1, &rng);
          Tensor b = Tensor::RandUniform({29, 21}, -1, 1, &rng);
          return a.MatmulTransposeB(b);
        },
        "matmul_tb isa=" + tag);
    ExpectBitwiseIdenticalAcrossThreads(
        [] {
          Rng rng(44);
          Tensor x = Tensor::RandUniform({3, 47, 33}, -3, 3, &rng);
          return x.Sigmoid().Add(x.Tanh()).Add(x.Exp().AddScalar(1.0f).Log());
        },
        "vmath isa=" + tag);
  }
}

// Sparse-path matrix entry: top-k selection, CSR SpMM forward and both
// backward kernels must be thread-count invariant at each fixed ISA (the
// 1/2/4/8-thread x scalar/avx2 grid), at c = 9 and at c = 10, the width
// of the GCGRU's training aggregation (one full 8-lane block plus a
// masked tail). Forward output and the gradients to the dense logits and
// the features are packed into one tensor so a single memcmp covers the
// whole sparse pipeline.
TEST(ParallelDeterminismTest, SparseTopKAndSpmmPerIsa) {
  for (const common::SimdIsa isa : AvailableIsas()) {
    common::ScopedSimdIsa pin(isa);
    for (const int64_t c : {9, 10}) {
      ExpectBitwiseIdenticalAcrossThreads(
          [c] {
            Rng rng(77);
            ag::Variable dense(
                ag::Softmax(
                    ag::Variable(
                        Tensor::RandUniform({3, 41, 41}, -2.0f, 2.0f, &rng)),
                    -1)
                    .value(),
                /*requires_grad=*/true);
            ag::Variable x(Tensor::RandUniform({3, 41, c}, -1.0f, 1.0f, &rng),
                           /*requires_grad=*/true);
            ag::SparseGraph sg = ag::SparsifyTopK(dense, 7);
            ag::Variable out = ag::SpmmCsr(sg, x);
            ag::SumAll(ag::Mul(out, out)).Backward();
            const Tensor& fwd = out.value();
            const Tensor& gd = dense.grad();
            const Tensor& gx = x.grad();
            Tensor packed =
                Tensor::ForOverwrite({fwd.numel() + gd.numel() + gx.numel()});
            int64_t at = 0;
            for (int64_t i = 0; i < fwd.numel(); ++i) {
              packed.set_flat(at++, fwd.flat(i));
            }
            for (int64_t i = 0; i < gd.numel(); ++i) {
              packed.set_flat(at++, gd.flat(i));
            }
            for (int64_t i = 0; i < gx.numel(); ++i) {
              packed.set_flat(at++, gx.flat(i));
            }
            return packed;
          },
          std::string("sparse topk+spmm fwd/bwd isa=") +
              common::SimdIsaName(isa) + " c=" + std::to_string(c));
    }
  }
}

// End-to-end matrix at each fixed ISA: a Trainer epoch — buffer pool and
// step arena engaged, as always — must produce bitwise-identical losses
// across 1/2/4/8 threads. The reference run per ISA is 1 thread.
TEST(ParallelDeterminismTest, TrainerEpochIdenticalThreadsPoolArenaPerIsa) {
  datagen::MetroSimConfig sim_config;
  sim_config.num_stations = 6;
  sim_config.num_days = 8;
  sim_config.seed = 132;
  sim_config.keep_od_ground_truth = false;

  auto run_epoch = [&](int threads) {
    auto sim = datagen::SimulateMetro(sim_config);
    data::ForecastDataset::Options options;
    options.input_steps = 4;
    options.output_steps = 2;
    data::ForecastDataset dataset(std::move(sim.data), options);

    core::TGCRNConfig model_config;
    model_config.num_nodes = 6;
    model_config.input_dim = 2;
    model_config.output_dim = 2;
    model_config.horizon = 2;
    model_config.hidden_dim = 8;
    model_config.num_layers = 1;
    model_config.node_embed_dim = 6;
    model_config.time_embed_dim = 4;
    model_config.steps_per_day = 72;
    Rng rng(55);
    core::TGCRN model(model_config, &rng);

    core::TrainConfig train_config;
    train_config.epochs = 1;
    train_config.max_batches_per_epoch = 8;
    train_config.num_threads = threads;
    train_config.verbose = false;
    return core::TrainAndEvaluate(&model, dataset, train_config);
  };

  for (const common::SimdIsa isa : AvailableIsas()) {
    common::ScopedSimdIsa pin(isa);
    const std::string tag = std::string(common::SimdIsaName(isa));
    const auto reference = run_epoch(/*threads=*/1);
    for (const int threads : {2, 4, 8}) {
      const auto got = run_epoch(threads);
      const std::string combo =
          "isa=" + tag + " threads=" + std::to_string(threads);
      ASSERT_EQ(got.train_loss_history.size(),
                reference.train_loss_history.size())
          << combo;
      for (size_t i = 0; i < reference.train_loss_history.size(); ++i) {
        EXPECT_EQ(got.train_loss_history[i], reference.train_loss_history[i])
            << "train loss diverged (" << combo << ")";
      }
      ASSERT_EQ(got.val_mae_history.size(), reference.val_mae_history.size())
          << combo;
      for (size_t i = 0; i < reference.val_mae_history.size(); ++i) {
        EXPECT_EQ(got.val_mae_history[i], reference.val_mae_history[i])
            << "val MAE diverged (" << combo << ")";
      }
    }
  }
  common::SetNumThreads(1);
}

// TGCRN_ISA must actually route dispatch: with the env var set to
// "scalar", every GEMM and vmath call lands on the scalar kernels (the
// simd.* counters in the metric registry are the observable), and with
// "avx2" (when available) on the AVX2 kernels.
TEST(ParallelDeterminismTest, TgcrnIsaEnvOverrideIsHonored) {
  // Remember the ambient override (CI pins TGCRN_ISA per job) so the
  // test can restore it for the rest of the binary.
  const char* ambient = getenv("TGCRN_ISA");
  const std::string saved = ambient != nullptr ? ambient : "";

  obs::Registry& registry = obs::Registry::Global();
  obs::Counter* gemm_scalar = registry.GetCounter("simd.gemm_scalar_calls");
  obs::Counter* gemm_avx2 = registry.GetCounter("simd.gemm_avx2_calls");
  obs::Counter* vmath_scalar = registry.GetCounter("simd.vmath_scalar_calls");
  obs::Counter* vmath_avx2 = registry.GetCounter("simd.vmath_avx2_calls");

  Rng rng(77);
  Tensor a = Tensor::RandUniform({9, 17}, -1, 1, &rng);
  Tensor b = Tensor::RandUniform({17, 12}, -1, 1, &rng);

  ASSERT_EQ(setenv("TGCRN_ISA", "scalar", /*overwrite=*/1), 0);
  common::ResetSimdIsaFromEnv();
  EXPECT_EQ(common::ActiveSimdIsa(), common::SimdIsa::kScalar);
  {
    const int64_t s0 = gemm_scalar->Value(), v0 = gemm_avx2->Value();
    const int64_t ms0 = vmath_scalar->Value(), mv0 = vmath_avx2->Value();
    (void)a.Matmul(b);
    (void)a.Sigmoid();
    EXPECT_EQ(gemm_scalar->Value(), s0 + 1);
    EXPECT_EQ(gemm_avx2->Value(), v0);
    EXPECT_EQ(vmath_scalar->Value(), ms0 + 1);
    EXPECT_EQ(vmath_avx2->Value(), mv0);
  }

  if (common::Avx2CompiledIn() && common::CpuSupportsAvx2()) {
    ASSERT_EQ(setenv("TGCRN_ISA", "avx2", /*overwrite=*/1), 0);
    common::ResetSimdIsaFromEnv();
    EXPECT_EQ(common::ActiveSimdIsa(), common::SimdIsa::kAvx2);
    const int64_t s0 = gemm_scalar->Value(), v0 = gemm_avx2->Value();
    const int64_t ms0 = vmath_scalar->Value(), mv0 = vmath_avx2->Value();
    (void)a.Matmul(b);
    (void)a.Sigmoid();
    EXPECT_EQ(gemm_scalar->Value(), s0);
    EXPECT_EQ(gemm_avx2->Value(), v0 + 1);
    EXPECT_EQ(vmath_scalar->Value(), ms0);
    EXPECT_EQ(vmath_avx2->Value(), mv0 + 1);
  }

  if (ambient != nullptr) {
    ASSERT_EQ(setenv("TGCRN_ISA", saved.c_str(), /*overwrite=*/1), 0);
  } else {
    ASSERT_EQ(unsetenv("TGCRN_ISA"), 0);
  }
  common::ResetSimdIsaFromEnv();
}

}  // namespace
}  // namespace tgcrn
