// Copyright 2026 TGCRN Reproduction Authors
// Micro-benchmarks of the substrate (google-benchmark): tensor kernels,
// autograd overhead, and the paper's core building blocks (TagSL graph
// construction, one GCGRU step). Not a paper table - this is the
// engineering baseline for the wall-clock numbers in bench_table8_cost.
#include <vector>

#include <benchmark/benchmark.h>

#include "autograd/ops.h"
#include "autograd/sparse_ops.h"
#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "core/gcgru.h"
#include "core/tagsl.h"
#include "core/time_encoders.h"
#include "graph/csr.h"
#include "obs/prof.h"
#include "serve/wire.h"
#include "tensor/buffer_pool.h"
#include "tensor/tensor.h"

namespace tgcrn {
namespace {

// Labels the row with the resolved SIMD ISA (every kernel row is
// attributable to the kernel set that produced it) and, when given a
// per-iteration flop count, attaches an analytic flops rate next to
// google-benchmark's wall clock.
void StampIsa(benchmark::State& state, double flops_per_iter = 0.0) {
  state.SetLabel(common::SimdIsaName(common::ActiveSimdIsa()));
  if (flops_per_iter > 0.0) {
    state.counters["flops"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * flops_per_iter,
        benchmark::Counter::kIsRate);
  }
}

// Samples the calling thread's perf_event group around the timed loop and
// attaches an "ipc" counter. Silently absent where the kernel denies
// perf_event_open (most containers) — obs/prof.h handles the fallback.
class IpcProbe {
 public:
  IpcProbe() : start_(obs::SampleThreadPerfCounters()) {}
  void Attach(benchmark::State& state) {
    const obs::PerfCounterSample end = obs::SampleThreadPerfCounters();
    if (!start_.available || !end.available) return;
    const int64_t cycles = end.cycles - start_.cycles;
    if (cycles <= 0) return;
    state.counters["ipc"] = benchmark::Counter(
        static_cast<double>(end.instructions - start_.instructions) /
        static_cast<double>(cycles));
  }

 private:
  obs::PerfCounterSample start_;
};

void BM_MatmulSquare(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::RandUniform({n, n}, -1, 1, &rng);
  Tensor b = Tensor::RandUniform({n, n}, -1, 1, &rng);
  IpcProbe probe;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Matmul(b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  StampIsa(state, 2.0 * static_cast<double>(n) * n * n);
  probe.Attach(state);
}
BENCHMARK(BM_MatmulSquare)->Arg(16)->Arg(64)->Arg(128);

void BM_BatchedMatmul(benchmark::State& state) {
  // The GCGRU inner shape: [B, N, 1, C] x [B, N, C, H].
  const int64_t b = 16, n = 20, c = 18, h = 16;
  Rng rng(2);
  Tensor lhs = Tensor::RandUniform({b, n, 1, c}, -1, 1, &rng);
  Tensor rhs = Tensor::RandUniform({b, n, c, h}, -1, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lhs.Matmul(rhs));
  }
}
BENCHMARK(BM_BatchedMatmul);

void BM_BroadcastAdd(benchmark::State& state) {
  Rng rng(3);
  Tensor a = Tensor::RandUniform({16, 20, 64}, -1, 1, &rng);
  Tensor b = Tensor::RandUniform({64}, -1, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Add(b));
  }
}
BENCHMARK(BM_BroadcastAdd);

void BM_SoftmaxRows(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(4);
  Tensor a = Tensor::RandUniform({16, n, n}, -1, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Softmax(-1));
  }
}
BENCHMARK(BM_SoftmaxRows)->Arg(20)->Arg(64);

// --- Thread-count sweeps ----------------------------------------------------
// The same kernels at 1/2/4 threads. Results are bitwise identical across
// the sweep (see tests/parallel_determinism_test.cc); only wall-clock
// changes. Arg is the thread count.

void BM_BatchedMatmulThreads(benchmark::State& state) {
  common::ScopedNumThreads threads(static_cast<int>(state.range(0)));
  const int64_t b = 16, n = 64, c = 32, h = 32;
  Rng rng(20);
  Tensor lhs = Tensor::RandUniform({b, n, c}, -1, 1, &rng);
  Tensor rhs = Tensor::RandUniform({b, c, h}, -1, 1, &rng);
  IpcProbe probe;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lhs.Matmul(rhs));
  }
  state.SetItemsProcessed(state.iterations() * 2 * b * n * c * h);
  StampIsa(state, 2.0 * static_cast<double>(b) * n * c * h);
  probe.Attach(state);
}
BENCHMARK(BM_BatchedMatmulThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_ElementwiseMulThreads(benchmark::State& state) {
  common::ScopedNumThreads threads(static_cast<int>(state.range(0)));
  Rng rng(21);
  Tensor a = Tensor::RandUniform({64, 64, 64}, -1, 1, &rng);
  Tensor b = Tensor::RandUniform({64, 64, 64}, -1, 1, &rng);
  IpcProbe probe;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Mul(b));
  }
  state.SetItemsProcessed(state.iterations() * a.numel());
  StampIsa(state, static_cast<double>(a.numel()));
  probe.Attach(state);
}
BENCHMARK(BM_ElementwiseMulThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_SumAllThreads(benchmark::State& state) {
  common::ScopedNumThreads threads(static_cast<int>(state.range(0)));
  Rng rng(22);
  Tensor a = Tensor::RandUniform({64, 64, 64}, -1, 1, &rng);
  IpcProbe probe;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.SumAll());
  }
  state.SetItemsProcessed(state.iterations() * a.numel());
  StampIsa(state, static_cast<double>(a.numel()));
  probe.Attach(state);
}
BENCHMARK(BM_SumAllThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_SigmoidThreads(benchmark::State& state) {
  common::ScopedNumThreads threads(static_cast<int>(state.range(0)));
  Rng rng(23);
  Tensor a = Tensor::RandUniform({64, 64, 64}, -4, 4, &rng);
  IpcProbe probe;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Sigmoid());
  }
  state.SetItemsProcessed(state.iterations() * a.numel());
  // 10 flops/element, the analytic model RecordKernelCost uses.
  StampIsa(state, 10.0 * static_cast<double>(a.numel()));
  probe.Attach(state);
}
BENCHMARK(BM_SigmoidThreads)->Arg(1)->Arg(2)->Arg(4);

// One ParallelFor dispatch by itself: 4,096 floats scaled in place, grain
// 256 (16 chunks), so the row is mostly the pool's fork-join cost.
void BM_ParallelForDispatch(benchmark::State& state) {
  common::ScopedNumThreads threads(static_cast<int>(state.range(0)));
  std::vector<float> data(4096, 1.0f);
  for (auto _ : state) {
    common::ParallelFor(0, 4096, 256, [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) data[i] *= 0.5f;
    });
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_ParallelForDispatch)->Arg(1)->Arg(2)->Arg(4);

// --- ISA sweeps -------------------------------------------------------------
// The same kernels with the SIMD level pinned (arg: 0 = scalar table,
// 1 = AVX2 table), single-threaded, so the speedup column in
// docs/BENCHMARKS.md is reproducible via --benchmark_filter=Isa. Note the
// "scalar" table is still auto-vectorized by the compiler's baseline SSE2,
// so this ratio understates the gain over the pre-microkernel seed code.

bool PinIsaOrSkip(benchmark::State& state, int64_t arg) {
  if (arg == 1 &&
      !(common::Avx2CompiledIn() && common::CpuSupportsAvx2())) {
    state.SkipWithError("AVX2 not available in this build/CPU");
    return false;
  }
  return true;
}

void BM_MatmulSquareIsa(benchmark::State& state) {
  if (!PinIsaOrSkip(state, state.range(0))) return;
  common::ScopedSimdIsa pin(state.range(0) == 1 ? common::SimdIsa::kAvx2
                                                : common::SimdIsa::kScalar);
  common::ScopedNumThreads threads(1);
  const int64_t n = 128;
  Rng rng(25);
  Tensor a = Tensor::RandUniform({n, n}, -1, 1, &rng);
  Tensor b = Tensor::RandUniform({n, n}, -1, 1, &rng);
  IpcProbe probe;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Matmul(b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  StampIsa(state, 2.0 * static_cast<double>(n) * n * n);
  probe.Attach(state);
}
BENCHMARK(BM_MatmulSquareIsa)->Arg(0)->Arg(1);

void BM_BatchedMatmulIsa(benchmark::State& state) {
  // The m=1 GCGRU inner shape, the per-step hot spot.
  if (!PinIsaOrSkip(state, state.range(0))) return;
  common::ScopedSimdIsa pin(state.range(0) == 1 ? common::SimdIsa::kAvx2
                                                : common::SimdIsa::kScalar);
  common::ScopedNumThreads threads(1);
  const int64_t b = 16, n = 20, c = 18, h = 16;
  Rng rng(26);
  Tensor lhs = Tensor::RandUniform({b, n, 1, c}, -1, 1, &rng);
  Tensor rhs = Tensor::RandUniform({b, n, c, h}, -1, 1, &rng);
  IpcProbe probe;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lhs.Matmul(rhs));
  }
  StampIsa(state, 2.0 * static_cast<double>(b) * n * c * h);
  probe.Attach(state);
}
BENCHMARK(BM_BatchedMatmulIsa)->Arg(0)->Arg(1);

void BM_SigmoidIsa(benchmark::State& state) {
  if (!PinIsaOrSkip(state, state.range(0))) return;
  common::ScopedSimdIsa pin(state.range(0) == 1 ? common::SimdIsa::kAvx2
                                                : common::SimdIsa::kScalar);
  common::ScopedNumThreads threads(1);
  Rng rng(27);
  Tensor a = Tensor::RandUniform({64, 64, 64}, -4, 4, &rng);
  IpcProbe probe;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Sigmoid());
  }
  state.SetItemsProcessed(state.iterations() * a.numel());
  StampIsa(state, 10.0 * static_cast<double>(a.numel()));
  probe.Attach(state);
}
BENCHMARK(BM_SigmoidIsa)->Arg(0)->Arg(1);

// --- Backward-pass fast-path kernels ---------------------------------------
// The transposed-matmul and fused gradient kernels vs the op chains they
// replaced. Shapes mirror the GCGRU/TagSL backward hot spots.

void BM_MatmulTransposeBVsExplicit(benchmark::State& state) {
  // g . B^T as the matmul backward computes it. Arg 0 = fused, 1 = chain;
  // arg 1 selects the shape: 0 = square rows, 1 = the GCGRU backward shape
  // [B, N, 1, H] x [B, N, C, H] where m=1 makes the explicit transpose
  // copy dominate.
  const bool chain = state.range(0) != 0;
  const bool gcgru_shape = state.range(1) != 0;
  Rng rng(30);
  Tensor g = gcgru_shape ? Tensor::RandUniform({16, 20, 1, 16}, -1, 1, &rng)
                         : Tensor::RandUniform({16, 64, 32}, -1, 1, &rng);
  Tensor b = gcgru_shape ? Tensor::RandUniform({16, 20, 18, 16}, -1, 1, &rng)
                         : Tensor::RandUniform({16, 32, 32}, -1, 1, &rng);
  const int64_t d = b.dim();
  for (auto _ : state) {
    if (chain) {
      benchmark::DoNotOptimize(g.Matmul(b.Transpose(d - 2, d - 1)));
    } else {
      benchmark::DoNotOptimize(g.MatmulTransposeB(b));
    }
  }
}
BENCHMARK(BM_MatmulTransposeBVsExplicit)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1});

void BM_MatmulTransposeAVsExplicit(benchmark::State& state) {
  // A^T . g as the matmul backward computes it. Arg 0 = fused, 1 = chain.
  const bool chain = state.range(0) != 0;
  Rng rng(31);
  Tensor a = Tensor::RandUniform({16, 64, 32}, -1, 1, &rng);
  Tensor g = Tensor::RandUniform({16, 64, 32}, -1, 1, &rng);
  for (auto _ : state) {
    if (chain) {
      benchmark::DoNotOptimize(a.Transpose(1, 2).Matmul(g));
    } else {
      benchmark::DoNotOptimize(a.MatmulTransposeA(g));
    }
  }
}
BENCHMARK(BM_MatmulTransposeAVsExplicit)->Arg(0)->Arg(1);

void BM_SigmoidBackwardFusedVsChain(benchmark::State& state) {
  const bool chain = state.range(0) != 0;
  Rng rng(32);
  Tensor x = Tensor::RandUniform({64, 64, 64}, -4, 4, &rng);
  Tensor y = x.Sigmoid();
  Tensor g = Tensor::RandUniform({64, 64, 64}, -1, 1, &rng);
  for (auto _ : state) {
    if (chain) {
      benchmark::DoNotOptimize(g.Mul(y).Mul(y.Neg().AddScalar(1.0f)));
    } else {
      benchmark::DoNotOptimize(SigmoidGradKernel(y, g));
    }
  }
  state.SetItemsProcessed(state.iterations() * y.numel());
}
BENCHMARK(BM_SigmoidBackwardFusedVsChain)->Arg(0)->Arg(1);

void BM_TanhBackwardFusedVsChain(benchmark::State& state) {
  const bool chain = state.range(0) != 0;
  Rng rng(33);
  Tensor x = Tensor::RandUniform({64, 64, 64}, -4, 4, &rng);
  Tensor y = x.Tanh();
  Tensor g = Tensor::RandUniform({64, 64, 64}, -1, 1, &rng);
  for (auto _ : state) {
    if (chain) {
      benchmark::DoNotOptimize(g.Mul(y.Mul(y).Neg().AddScalar(1.0f)));
    } else {
      benchmark::DoNotOptimize(TanhGradKernel(y, g));
    }
  }
  state.SetItemsProcessed(state.iterations() * y.numel());
}
BENCHMARK(BM_TanhBackwardFusedVsChain)->Arg(0)->Arg(1);

// Buffer-pool behavior on a training-step-shaped allocation sequence; the
// counters show the steady-state hit rate.
void BM_TensorPoolStepAllocations(benchmark::State& state) {
  auto& pool = TensorBufferPool::Global();
  Rng rng(34);
  Tensor x = Tensor::RandUniform({16, 512}, -1, 1, &rng);
  Tensor w = Tensor::RandUniform({512, 512}, -1, 1, &rng);
  for (auto _ : state) {
    Tensor h = x;
    for (int i = 0; i < 4; ++i) {
      h = h.Matmul(w).Tanh();
    }
    benchmark::DoNotOptimize(h);
  }
  const auto stats = pool.GetStats();
  state.counters["pool_hits"] =
      benchmark::Counter(static_cast<double>(stats.hits));
  state.counters["pool_misses"] =
      benchmark::Counter(static_cast<double>(stats.misses));
}
BENCHMARK(BM_TensorPoolStepAllocations);

void BM_AutogradMatmulForwardBackward(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(5);
  ag::Variable a(Tensor::RandUniform({n, n}, -1, 1, &rng), true);
  ag::Variable b(Tensor::RandUniform({n, n}, -1, 1, &rng), true);
  for (auto _ : state) {
    a.ZeroGrad();
    b.ZeroGrad();
    ag::Variable loss = ag::SumAll(ag::Matmul(a, b));
    loss.Backward();
    benchmark::DoNotOptimize(a.grad());
  }
}
BENCHMARK(BM_AutogradMatmulForwardBackward)->Arg(16)->Arg(64);

// Full step lifecycle for a training-step-shaped op chain: graph build in
// the step arena (bump-allocated nodes), backward, flat list teardown and
// O(1) reset. Counters expose the arena's node traffic and high water.
void BM_AutogradStepArena(benchmark::State& state) {
  Rng rng(7);
  ag::Variable w1(Tensor::RandUniform({64, 64}, -1, 1, &rng), true);
  ag::Variable w2(Tensor::RandUniform({64, 64}, -1, 1, &rng), true);
  ag::Variable x(Tensor::RandUniform({16, 64}, -1, 1, &rng));
  const Tensor grad_out = Tensor::Ones({16, 64});
  const int64_t nodes_before =
      ag::internal::ThreadGraphArenaStats().nodes_allocated_total;
  for (auto _ : state) {
    w1.ZeroGrad();
    w2.ZeroGrad();
    ag::StepArenaScope step;
    ag::Variable h = x;
    for (int i = 0; i < 8; ++i) {
      h = ag::Tanh(ag::Matmul(h, (i % 2 == 0) ? w1 : w2));
    }
    h.Backward(grad_out);
    benchmark::DoNotOptimize(w1.grad());
  }
  const auto stats = ag::internal::ThreadGraphArenaStats();
  state.counters["arena_nodes"] = benchmark::Counter(
      static_cast<double>(stats.nodes_allocated_total - nodes_before));
  state.counters["arena_high_water_bytes"] =
      benchmark::Counter(static_cast<double>(stats.high_water_bytes));
}
BENCHMARK(BM_AutogradStepArena);

// --- Sparse graph kernels ---------------------------------------------------
// The TGCRN_GRAPH_TOPK path: dense -> top-k -> CSR sparsify, and the CSR
// SpMM aggregation it feeds. Selection is a scalar compare kernel (thread
// sweep only); SpMM has scalar and AVX2 tables (ISA + thread sweeps).

// Batch of row-stochastic matrices, the sparsify/SpMM input shape.
Tensor DenseAdjacency(int64_t b, int64_t n, uint64_t seed) {
  Rng rng(seed);
  return Tensor::RandUniform({b, n, n}, 0.0f, 1.0f, &rng).Softmax(-1);
}

void BM_SparsifyTopK(benchmark::State& state) {
  const int64_t n = state.range(0), k = state.range(1);
  const Tensor dense = DenseAdjacency(8, n, 50);
  IpcProbe probe;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::SparsifyTopK(dense, k));
  }
  state.SetItemsProcessed(state.iterations() * dense.numel());
  StampIsa(state);
  probe.Attach(state);
}
BENCHMARK(BM_SparsifyTopK)->Args({256, 16})->Args({1024, 16});

void BM_SparsifyTopKThreads(benchmark::State& state) {
  common::ScopedNumThreads threads(static_cast<int>(state.range(0)));
  const Tensor dense = DenseAdjacency(8, 1024, 51);
  IpcProbe probe;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::SparsifyTopK(dense, 16));
  }
  state.SetItemsProcessed(state.iterations() * dense.numel());
  StampIsa(state);
  probe.Attach(state);
}
BENCHMARK(BM_SparsifyTopKThreads)->Arg(1)->Arg(2)->Arg(4);

// The widths the GCGRU feeds the SpMM: c = 10 and 18 carry a masked
// 8-lane tail (training and serving), 16 and 32 do not, 40 takes two
// column passes.
const std::vector<int64_t> kSpmmWidths = {10, 16, 18, 32, 40};

// Forward SpMM through the autograd op; args: (0 = scalar, 1 = AVX2, c).
void BM_SpmmIsa(benchmark::State& state) {
  if (!PinIsaOrSkip(state, state.range(0))) return;
  common::ScopedSimdIsa pin(state.range(0) == 1 ? common::SimdIsa::kAvx2
                                                : common::SimdIsa::kScalar);
  common::ScopedNumThreads threads(1);
  const int64_t b = 8, n = 512, c = state.range(1), k = 16;
  graph::CsrBatch csr = graph::SparsifyTopK(DenseAdjacency(b, n, 52), k);
  ag::SparseGraph sg;
  sg.index = csr.index;
  sg.values = ag::Variable(csr.values);
  Rng rng(53);
  ag::Variable x(Tensor::RandUniform({b, n, c}, -1, 1, &rng));
  IpcProbe probe;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ag::SpmmCsr(sg, x));
  }
  const double flops = 2.0 * static_cast<double>(b) * n * k * c;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(flops));
  StampIsa(state, flops);
  probe.Attach(state);
}
BENCHMARK(BM_SpmmIsa)
    ->ArgsProduct({{0, 1}, kSpmmWidths})
    ->ArgNames({"isa", "c"});

// Forward SpMM thread sweep; args: (threads, c).
void BM_SpmmThreads(benchmark::State& state) {
  common::ScopedNumThreads threads(static_cast<int>(state.range(0)));
  const int64_t b = 8, n = 512, c = state.range(1), k = 16;
  graph::CsrBatch csr = graph::SparsifyTopK(DenseAdjacency(b, n, 54), k);
  ag::SparseGraph sg;
  sg.index = csr.index;
  sg.values = ag::Variable(csr.values);
  Rng rng(55);
  ag::Variable x(Tensor::RandUniform({b, n, c}, -1, 1, &rng));
  IpcProbe probe;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ag::SpmmCsr(sg, x));
  }
  const double flops = 2.0 * static_cast<double>(b) * n * k * c;
  StampIsa(state, flops);
  probe.Attach(state);
}
BENCHMARK(BM_SpmmThreads)
    ->ArgsProduct({{1, 2, 4}, kSpmmWidths})
    ->ArgNames({"threads", "c"});

// The three SpMM drivers the profiler names (spmm.SpmmCsr, SpmmCsrGradX,
// SpmmCsrGradValues) at the city-sparse training shape: B = 4, N = 1024,
// k = 16, one thread, the forward writing into a [B, N, 2c] buffer as the
// GCGRU does (ldo = 2c). Args: (0 = forward rows, 1 = transpose / grad-x,
// 2 = value gradients; c = 1..40 at the active ISA).
void BM_SpmmKernels(benchmark::State& state) {
  const int64_t op = state.range(0), c = state.range(1);
  const int64_t b = 4, n = 1024, k = 16;
  common::ScopedNumThreads threads(1);
  graph::CsrBatch csr = graph::SparsifyTopK(DenseAdjacency(b, n, 58), k);
  graph::CsrIndex& index = *csr.index;
  index.BuildTranspose();
  Rng rng(59);
  const Tensor x = Tensor::RandUniform({b, n, c}, -1, 1, &rng);
  const Tensor g = Tensor::RandUniform({b, n, c}, -1, 1, &rng);
  Tensor out = Tensor::Zeros({b, n, 2 * c});
  IpcProbe probe;
  for (auto _ : state) {
    if (op == 0) {
      ag::SpmmCsrRows(index, csr.values, x, out.mutable_data(), 2 * c);
      benchmark::DoNotOptimize(out.data());
      benchmark::ClobberMemory();
    } else if (op == 1) {
      benchmark::DoNotOptimize(ag::SpmmCsrGradX(&index, csr.values, g));
    } else {
      benchmark::DoNotOptimize(ag::SpmmCsrGradValues(index, g, x));
    }
  }
  StampIsa(state, 2.0 * static_cast<double>(b) * n * k * c);
  probe.Attach(state);
}
BENCHMARK(BM_SpmmKernels)
    ->ArgsProduct({{0, 1, 2}, benchmark::CreateDenseRange(1, 40, 1)})
    ->ArgNames({"op", "c"});

// Sparse vs dense aggregation at growing N, fixed k = 16: the N*k-vs-N^2
// crossover that motivates TGCRN_GRAPH_TOPK. Args: (N, 0 = dense batched
// matmul, 1 = CSR SpMM). Dense stops at 2048 (the [4, N, N] operand alone
// is 64 MB there).
void BM_AggregationNSweep(benchmark::State& state) {
  const int64_t n = state.range(0);
  const bool sparse = state.range(1) != 0;
  const int64_t b = 4, c = 16, k = 16;
  const Tensor dense = DenseAdjacency(b, n, 56);
  Rng rng(57);
  ag::Variable x(Tensor::RandUniform({b, n, c}, -1, 1, &rng));
  const double flops = sparse ? 2.0 * static_cast<double>(b) * n * k * c
                              : 2.0 * static_cast<double>(b) * n * n * c;
  if (sparse) {
    graph::CsrBatch csr = graph::SparsifyTopK(dense, k);
    ag::SparseGraph sg;
    sg.index = csr.index;
    sg.values = ag::Variable(csr.values);
    for (auto _ : state) {
      benchmark::DoNotOptimize(ag::SpmmCsr(sg, x));
    }
  } else {
    ag::Variable adj(dense);
    for (auto _ : state) {
      benchmark::DoNotOptimize(ag::Matmul(adj, x));
    }
  }
  StampIsa(state, flops);
}
BENCHMARK(BM_AggregationNSweep)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Args({2048, 0})
    ->Args({2048, 1})
    ->Args({4096, 1});

// The dense TagSL graph (Eq 6-11) at B = 16, C = 2, d_nu = 12, d_tau = 8:
// n nodes; bwd: 1 adds the graph's backward (seeded with ones), with x
// taking gradients as a deeper layer's input does.
void BM_TagslBuildGraph(benchmark::State& state) {
  const int64_t n = state.range(0);
  const bool backward = state.range(1) != 0;
  Rng rng(6);
  core::DiscreteTimeEmbedding encoder(72, 8, &rng);
  core::TagSL::Options options;
  options.num_nodes = n;
  options.node_dim = 12;
  core::TagSL tagsl(options, &encoder, &rng);
  ag::Variable x(Tensor::RandUniform({16, n, 2}, -1, 1, &rng), backward);
  std::vector<int64_t> slots(16, 10), prev(16, 9);
  const Tensor ones = Tensor::Ones({16, n, n});
  for (auto _ : state) {
    ag::StepArenaScope arena;
    ag::Variable graph = tagsl.BuildGraph(x, slots, prev);
    if (backward) graph.Backward(ones);
    benchmark::DoNotOptimize(graph.value().data());
  }
  StampIsa(state);
}
BENCHMARK(BM_TagslBuildGraph)
    ->ArgNames({"n", "bwd"})
    ->ArgsProduct({{20, 64}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// The exact top-k selection stage of the sparse path's graph build
// (TagSL::BuildSparseGraph, no autograd) at the city-sparse shape: B = 4,
// C = 2, d_nu = 8, d_tau = 4, k = 16, one thread. Each iteration's time is
// the tagsl.SelectTopK profiler scope alone, so the O(N*k) kept-edge
// recompute that follows the selection is excluded, and "flops" is the
// scope's analytic cost. cold = 1 flips the sign of one E_nu element
// before every call, so each call also rebuilds the walk's candidate
// prefix (the first call of a training forward pass); cold = 0 times the
// walk over the cached prefix (the other calls of a pass, and serving).
void BM_TagslSelectTopK(benchmark::State& state) {
  common::ScopedNumThreads threads(1);
  const int64_t n = state.range(0), b = 4, k = 16;
  const bool cold = state.range(1) != 0;
  Rng rng(8);
  core::DiscreteTimeEmbedding encoder(18, 4, &rng);
  core::TagSL::Options options;
  options.num_nodes = n;
  options.node_dim = 8;
  core::TagSL tagsl(options, &encoder, &rng);
  Tensor embed = tagsl.node_embedding().value();  // shares the storage
  ag::Variable x(Tensor::RandUniform({b, n, 2}, -1, 1, &rng));
  const std::vector<int64_t> slots = {3, 7, 11, 15}, prev = {2, 6, 10, 14};
  ag::NoGradGuard no_grad;
  obs::ProfOptions prof;
  prof.enabled = true;
  prof.counters = false;
  obs::StartProfiling(prof);
  double flops = 0.0;
  for (auto _ : state) {
    if (cold) embed.mutable_data()[0] = -embed.data()[0];
    obs::ResetProfile();
    benchmark::DoNotOptimize(tagsl.BuildSparseGraph(x, slots, prev, k));
    const obs::ProfReport report = obs::CollectProfReport();
    double seconds = 0.0;
    for (const auto& node : report.nodes) {
      if (node.name == "tagsl.SelectTopK") seconds += node.inclusive_seconds;
    }
    for (const auto& kernel : report.kernels) {
      if (kernel.name == "tagsl.SelectTopK") flops += kernel.flops;
    }
    state.SetIterationTime(seconds);
  }
  obs::StopProfiling();
  StampIsa(state, flops / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_TagslSelectTopK)
    ->ArgNames({"n", "cold"})
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// One pass of fused GCGRU steps at the metro-dense shapes: B = 16, N = 32,
// H = 16, d_nu = 12, d_tau = 8; layer 0 reads the d = 2 input, layer 1 the
// hidden state. topk: 0 = the dense row-softmax graph, k = its top-k CSR
// form. steps: T steps share one hoisted weight set (12 is a metro-dense
// encoder pass), each feeding its output back as h. bwd: 1 adds one
// backward from the last step (seeded with ones). Inputs need gradients,
// so the pass records its nodes as in training.
void BM_GcgruStep(benchmark::State& state) {
  const int64_t layer = state.range(0);
  const int64_t topk = state.range(1);
  const bool backward = state.range(2) != 0;
  const int64_t steps = state.range(3);
  const int64_t b = 16, n = 32, hid = 16;
  const int64_t cin = layer == 0 ? 2 : hid;
  Rng rng(7);
  core::GCGRUCell cell(cin, hid, 12, 8, &rng);
  ag::Variable x(Tensor::RandUniform({b, n, cin}, -1, 1, &rng), layer > 0);
  ag::Variable h(Tensor::RandUniform({b, n, hid}, -1, 1, &rng), true);
  ag::Variable node_embed(Tensor::RandUniform({n, 12}, -1, 1, &rng), true);
  ag::Variable time_embed(Tensor::RandUniform({b, 8}, -1, 1, &rng), true);
  const Tensor dense =
      Tensor::RandUniform({b, n, n}, -1, 1, &rng).Softmax(-1);
  core::Adjacency adj;
  if (topk > 0) {
    graph::CsrBatch csr = graph::SparsifyTopK(dense, topk);
    adj = core::Adjacency(
        ag::SparseGraph{csr.index, ag::Variable(csr.values, true)});
  } else {
    adj = core::Adjacency(ag::Variable(dense, true));
  }
  const Tensor ones = Tensor::Ones({b, n, hid});
  for (auto _ : state) {
    ag::StepArenaScope arena;
    const core::GCGRUWeights weights = cell.HoistWeights(node_embed, b);
    ag::Variable out = h;
    for (int64_t t = 0; t < steps; ++t) {
      out = cell.Forward(x, out, adj, node_embed, time_embed, weights);
    }
    if (backward) out.Backward(ones);
    benchmark::DoNotOptimize(out.value().data());
  }
  StampIsa(state);
}
BENCHMARK(BM_GcgruStep)
    ->ArgNames({"layer", "topk", "bwd", "steps"})
    ->ArgsProduct({{0, 1}, {0, 8}, {0, 1}, {1, 12}})
    ->Unit(benchmark::kMicrosecond);

// One forecast response at the metro-dense serving shape (Q = 12, N = 32,
// D = 2): the streamed writer (serve/wire.h) into a reused buffer, as the
// server appends into a connection's out buffer. bytes/s is the response
// size per second.
void BM_ForecastSerialize(benchmark::State& state) {
  const int64_t q = 12, n = 32, d = 2;
  Rng rng(9);
  const Tensor grid = Tensor::RandUniform({q, n, d}, -50, 400, &rng);
  serve::ForecastLine line;
  line.entity = "station-17";
  line.grid = grid.data();
  line.horizon = q;
  line.nodes = n;
  line.dims = d;
  line.steps = 288;
  std::string out;
  for (auto _ : state) {
    out.clear();
    serve::AppendForecastLine(line, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(out.size()));
  state.counters["bytes"] = static_cast<double>(out.size());
}
BENCHMARK(BM_ForecastSerialize)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace tgcrn

BENCHMARK_MAIN();
