// Copyright 2026 TGCRN Reproduction Authors
// Tests of the kernel cost profiler (obs/prof.h): attribution-tree shape on
// hand-built nested scopes, the determinism contract (invocation/flop
// counts bitwise identical across thread counts and ISA levels), the
// perf_event fallback path, report arithmetic (delta/accumulate/collapsed),
// the DiffReports gating rules on per-epoch "prof" blocks, the per-epoch
// "prof" JSONL round trip —
// and the guarantee that the profiler never changes what training computes
// (bitwise losses, zero-alloc steady state when off).
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "core/gcgru.h"
#include "core/tagsl.h"
#include "core/time_encoders.h"
#include "core/tgcrn.h"
#include "core/trainer.h"
#include "datagen/metro_sim.h"
#include "obs/diff.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "tensor/tensor.h"

namespace tgcrn {
namespace {

using common::ScopedNumThreads;
using common::ScopedSimdIsa;
using common::SimdIsa;

// Arms the profiler for one test body and guarantees it is disarmed (and
// the accumulators cleared) on every exit path, so tests cannot leak an
// armed profiler into each other.
class ScopedProfiler {
 public:
  explicit ScopedProfiler(bool counters = false) {
    obs::ProfOptions options;
    options.enabled = true;
    options.counters = counters;
    obs::StartProfiling(options);
  }
  ~ScopedProfiler() {
    obs::StopProfiling();
    obs::ResetProfile();
  }
};

const obs::ProfNodeReport* FindNode(const obs::ProfReport& report,
                                    const std::string& name) {
  for (const auto& node : report.nodes) {
    if (node.name == name) return &node;
  }
  return nullptr;
}

const obs::ProfKernelReport* FindKernel(const obs::ProfReport& report,
                                        const std::string& name) {
  for (const auto& kernel : report.kernels) {
    if (kernel.name == name) return &kernel;
  }
  return nullptr;
}

// ------------------------------------------------------------ Options --

TEST(ProfOptionsTest, FromEnvParsesOffOnAndPath) {
  unsetenv("TGCRN_PROF");
  unsetenv("TGCRN_PROF_COUNTERS");
  obs::ProfOptions off = obs::ProfOptions::FromEnv();
  EXPECT_FALSE(off.enabled);
  EXPECT_TRUE(off.counters);
  EXPECT_TRUE(off.path.empty());

  setenv("TGCRN_PROF", "0", 1);
  EXPECT_FALSE(obs::ProfOptions::FromEnv().enabled);

  setenv("TGCRN_PROF", "1", 1);
  obs::ProfOptions on = obs::ProfOptions::FromEnv();
  EXPECT_TRUE(on.enabled);
  EXPECT_TRUE(on.path.empty());

  setenv("TGCRN_PROF", "/tmp/run.prof.json", 1);
  setenv("TGCRN_PROF_COUNTERS", "0", 1);
  obs::ProfOptions with_path = obs::ProfOptions::FromEnv();
  EXPECT_TRUE(with_path.enabled);
  EXPECT_EQ(with_path.path, "/tmp/run.prof.json");
  EXPECT_FALSE(with_path.counters);

  setenv("TGCRN_PROF_COUNTERS", "1", 1);
  EXPECT_TRUE(obs::ProfOptions::FromEnv().counters);

  unsetenv("TGCRN_PROF");
  unsetenv("TGCRN_PROF_COUNTERS");
}

// TGCRN_PROF_COUNTERS is 0 or 1: "false" must not leave counters on.
TEST(ProfOptionsDeathTest, NonBinaryCountersValueAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* value : {"false", "off", "no", "2"}) {
    EXPECT_DEATH(
        {
          setenv("TGCRN_PROF_COUNTERS", value, 1);
          obs::ProfOptions::FromEnv();
        },
        "TGCRN_PROF_COUNTERS=.* is not 0 or 1")
        << value;
  }
  unsetenv("TGCRN_PROF_COUNTERS");
}

// ----------------------------------------------------- Tree structure --

void LeafScope() {
  TGCRN_TRACE_SCOPE("test.leaf");
  obs::RecordKernelCost("test.leaf", 100.0, 40.0);
}

void MiddleScope(int leaf_calls) {
  TGCRN_TRACE_SCOPE("test.middle");
  for (int i = 0; i < leaf_calls; ++i) LeafScope();
}

TEST(ProfTreeTest, NestedScopesBuildAttributionTree) {
  ScopedProfiler profiler;
  {
    TGCRN_TRACE_SCOPE("test.outer");
    MiddleScope(3);
    MiddleScope(2);
    LeafScope();  // same leaf under a different parent
  }
  const obs::ProfReport report = obs::CollectProfReport();

  ASSERT_FALSE(report.nodes.empty());
  EXPECT_EQ(report.nodes[0].name, "root");
  EXPECT_EQ(report.nodes[0].parent, -1);

  const obs::ProfNodeReport* outer = FindNode(report, "test.outer");
  const obs::ProfNodeReport* middle = FindNode(report, "test.middle");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(middle, nullptr);
  EXPECT_EQ(outer->parent, 0);
  EXPECT_EQ(outer->count, 1);
  EXPECT_EQ(middle->count, 2);
  EXPECT_EQ(report.nodes[static_cast<size_t>(middle->parent)].name,
            "test.outer");

  // "test.leaf" appears twice: under middle and directly under outer. The
  // path, not the name, is a node's identity.
  int leaf_nodes = 0;
  int64_t leaf_count_total = 0;
  for (const auto& node : report.nodes) {
    if (node.name != "test.leaf") continue;
    ++leaf_nodes;
    leaf_count_total += node.count;
    const auto& parent = report.nodes[static_cast<size_t>(node.parent)];
    EXPECT_TRUE(parent.name == "test.middle" || parent.name == "test.outer");
  }
  EXPECT_EQ(leaf_nodes, 2);
  EXPECT_EQ(leaf_count_total, 6);

  // Inclusive >= exclusive >= 0 everywhere; parents precede children
  // (preorder).
  for (size_t i = 0; i < report.nodes.size(); ++i) {
    const auto& node = report.nodes[i];
    EXPECT_GE(node.inclusive_seconds, node.exclusive_seconds) << node.name;
    EXPECT_GE(node.exclusive_seconds, 0.0) << node.name;
    if (node.parent >= 0) {
      EXPECT_LT(node.parent, static_cast<int64_t>(i));
    }
  }

  // The kernel summary aggregated both leaf paths.
  const obs::ProfKernelReport* leaf = FindKernel(report, "test.leaf");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->invocations, 6);
  EXPECT_DOUBLE_EQ(leaf->flops, 600.0);
  EXPECT_DOUBLE_EQ(leaf->bytes, 240.0);
}

TEST(ProfTreeTest, CurrentProfLeafNameTracksInnermostScope) {
  EXPECT_EQ(obs::CurrentProfLeafName(), nullptr);  // profiler off
  ScopedProfiler profiler;
  EXPECT_EQ(obs::CurrentProfLeafName(), nullptr);  // no scope open
  {
    TGCRN_TRACE_SCOPE("test.outer");
    EXPECT_STREQ(obs::CurrentProfLeafName(), "test.outer");
    {
      TGCRN_TRACE_SCOPE("test.inner");
      EXPECT_STREQ(obs::CurrentProfLeafName(), "test.inner");
    }
    EXPECT_STREQ(obs::CurrentProfLeafName(), "test.outer");
  }
}

TEST(ProfTreeTest, WorkerAttributionScopeBuildsWorkerFrame) {
  ScopedProfiler profiler;
  {
    obs::WorkerAttributionScope attribution("test.kernel");
    obs::RecordKernelCost("test.kernel", 10.0, 4.0);
  }
  { obs::WorkerAttributionScope no_op(nullptr); }
  const obs::ProfReport report = obs::CollectProfReport();

  const obs::ProfNodeReport* worker = FindNode(report, "worker");
  ASSERT_NE(worker, nullptr);
  EXPECT_EQ(worker->parent, 0);
  const obs::ProfNodeReport* kernel = FindNode(report, "test.kernel");
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(report.nodes[static_cast<size_t>(kernel->parent)].name, "worker");

  // Helper-side analytic costs count invocations but land as worker time,
  // not caller-exclusive time.
  const obs::ProfKernelReport* summary = FindKernel(report, "test.kernel");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->invocations, 1);
  EXPECT_GE(summary->worker_seconds, 0.0);
}

// Through the pool: a width-4 region opened inside a profiled kernel scope
// puts the helpers' chunk time on root -> worker -> kernel.
TEST(ProfTreeTest, PoolHelpersAttributeToWorkerFrame) {
  ScopedProfiler profiler;
  ScopedNumThreads threads(4);
  std::mutex mu;
  std::set<std::thread::id> ran_chunks;
  {
    TGCRN_TRACE_SCOPE("test.kernel");
    common::ParallelFor(0, 64, 1, [&](int64_t s, int64_t) {
      {
        std::lock_guard<std::mutex> lock(mu);
        ran_chunks.insert(std::this_thread::get_id());
      }
      if (s != 0) return;
      // The first chunk holds the region open until a second thread runs
      // a chunk, so a helper takes part however the threads are scheduled.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (std::chrono::steady_clock::now() < deadline) {
        {
          std::lock_guard<std::mutex> lock(mu);
          if (ran_chunks.size() >= 2) return;
        }
        std::this_thread::yield();
      }
    });
  }
  ASSERT_GE(ran_chunks.size(), 2u);
  const obs::ProfReport report = obs::CollectProfReport();
  bool found = false;
  for (const obs::ProfNodeReport& node : report.nodes) {
    if (node.name != "test.kernel" || node.parent <= 0) continue;
    const obs::ProfNodeReport& worker =
        report.nodes[static_cast<size_t>(node.parent)];
    found = found || (worker.name == "worker" && worker.parent == 0);
  }
  EXPECT_TRUE(found) << "no root -> worker -> test.kernel node";
}

TEST(ProfTreeTest, ResetProfileClearsAccumulatorsKeepsCollection) {
  ScopedProfiler profiler;
  LeafScope();
  obs::ResetProfile();
  const obs::ProfReport cleared = obs::CollectProfReport();
  const obs::ProfKernelReport* leaf = FindKernel(cleared, "test.leaf");
  if (leaf != nullptr) {
    EXPECT_EQ(leaf->invocations, 0);
  }

  LeafScope();  // collection is still armed
  const obs::ProfReport after = obs::CollectProfReport();
  leaf = FindKernel(after, "test.leaf");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->invocations, 1);
}

TEST(ProfTreeTest, RecordKernelCostOffIsANoOp) {
  ASSERT_FALSE(obs::ProfilingEnabled());
  obs::RecordKernelCost("test.never", 1e9, 1e9);
  ScopedProfiler profiler;
  EXPECT_EQ(FindKernel(obs::CollectProfReport(), "test.never"), nullptr);
}

// -------------------------------------------------------- Determinism --

// One fixed workload touching GEMM, vmath, softmax, and reduction kernels.
void RunWorkload() {
  Rng rng(1234);
  const Tensor a = Tensor::RandUniform({64, 96}, -1.0f, 1.0f, &rng);
  const Tensor b = Tensor::RandUniform({96, 48}, -1.0f, 1.0f, &rng);
  const Tensor c = a.Matmul(b);
  const Tensor s = c.Sigmoid().Tanh();
  const Tensor soft = s.Softmax(-1);
  (void)soft.SumAll();
}

// Kernel invocation counts and analytic flop/byte totals come from shapes
// only: bitwise identical at 1/2/4/8 threads and for scalar vs AVX2.
TEST(ProfDeterminismTest, KernelCountsInvariantAcrossThreadsAndIsa) {
  struct KernelCost {
    int64_t invocations;
    double flops;
    double bytes;
  };
  std::vector<SimdIsa> isas = {SimdIsa::kScalar};
  if (common::CpuSupportsAvx2() && common::Avx2CompiledIn()) {
    isas.push_back(SimdIsa::kAvx2);
  }

  std::map<std::string, KernelCost> reference;
  bool have_reference = false;
  for (const SimdIsa isa : isas) {
    ScopedSimdIsa isa_guard(isa);
    for (const int threads : {1, 2, 4, 8}) {
      ScopedNumThreads thread_guard(threads);
      ScopedProfiler profiler;
      RunWorkload();
      const obs::ProfReport report = obs::CollectProfReport();

      std::map<std::string, KernelCost> got;
      for (const auto& kernel : report.kernels) {
        got[kernel.name] = {kernel.invocations, kernel.flops, kernel.bytes};
      }
      ASSERT_FALSE(got.empty());
      EXPECT_EQ(got.count("tensor.Matmul"), 1u);
      EXPECT_EQ(got.count("tensor.Softmax"), 1u);
      if (!have_reference) {
        reference = got;
        have_reference = true;
        continue;
      }
      ASSERT_EQ(got.size(), reference.size())
          << "kernel set changed at " << threads << " threads, "
          << common::SimdIsaName(isa);
      for (const auto& [name, cost] : reference) {
        ASSERT_EQ(got.count(name), 1u) << name;
        EXPECT_EQ(got[name].invocations, cost.invocations) << name;
        EXPECT_EQ(got[name].flops, cost.flops) << name;  // bitwise
        EXPECT_EQ(got[name].bytes, cost.bytes) << name;
      }
    }
  }
}

TEST(ProfDeterminismTest, MatmulFlopModelMatchesShape) {
  ScopedProfiler profiler;
  Rng rng(7);
  const Tensor a = Tensor::RandUniform({32, 80}, -1.0f, 1.0f, &rng);
  const Tensor b = Tensor::RandUniform({80, 24}, -1.0f, 1.0f, &rng);
  (void)a.Matmul(b);
  const obs::ProfReport report = obs::CollectProfReport();
  const obs::ProfKernelReport* kernel = FindKernel(report, "tensor.Matmul");
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(kernel->invocations, 1);
  EXPECT_DOUBLE_EQ(kernel->flops, 2.0 * 32 * 24 * 80);
  EXPECT_DOUBLE_EQ(kernel->bytes,
                   4.0 * (32 * 80 + 80 * 24 + 32 * 24));
  EXPECT_GT(kernel->ArithmeticIntensity(), 0.0);
}

// The fused GCGRU step is its own cost row: gcgru.Step and
// gcgru.StepBackward are charged an analytic model of the step's own loops
// (the Tensor kernels it calls keep their rows), from the shapes alone —
// pinned here to the formula and to being the same at every thread count.
TEST(ProfDeterminismTest, GcgruStepCostModelMatchesShape) {
  const int64_t b = 4, n = 9, cin = 2, hid = 5;
  Rng rng(91);
  core::GCGRUCell cell(cin, hid, 4, 3, &rng);
  ag::Variable x(Tensor::RandUniform({b, n, cin}, -1, 1, &rng), true);
  ag::Variable h(Tensor::RandUniform({b, n, hid}, -1, 1, &rng), true);
  ag::Variable adj(Tensor::Full({b, n, n}, 1.0f / n), true);
  ag::Variable node_embed(Tensor::RandUniform({n, 4}, -1, 1, &rng), true);
  ag::Variable time_embed(Tensor::RandUniform({b, 3}, -1, 1, &rng), true);

  // Forward: per convolution (o = 2H gates, H candidate) the dense
  // aggregation, the node term and the three bias adds; then sigmoid,
  // tanh, r * h and the Eq 16 blend.
  const double rows = b * n;
  const double c = cin + hid;
  double fwd_flops = 10.0 * rows * 2 * hid + 12.0 * rows * hid + rows * hid +
                     5.0 * rows * hid;
  double fwd_bytes = 4.0 * rows * (cin + 4.0 * hid);
  double bwd_flops = 9.0 * rows * hid + 7.0 * rows * 2 * hid +
                     2.0 * rows * cin + 3.0 * rows * hid;
  double bwd_bytes = 4.0 * rows * (3.0 * cin + 12.0 * hid);
  for (const double o : {2.0 * hid, 1.0 * hid}) {
    fwd_flops += 2.0 * b * n * n * c + 2.0 * rows * 2 * c * o + 3.0 * rows * o;
    fwd_bytes += 4.0 * (b * n * n + 2.0 * rows * c) +
                 4.0 * (rows * 3 * c + n * 2 * c * o + 2.0 * rows * o);
    bwd_flops += 2.0 * rows * 2 * c * o + 2.0 * rows * o +
                 2.0 * rows * 2 * c + rows * c;
    bwd_bytes += 4.0 * (rows * o * 3 + rows * 2 * c * 4 + n * 2 * c * o);
  }

  for (const int threads : {1, 2, 4, 8}) {
    ScopedNumThreads thread_guard(threads);
    ScopedProfiler profiler;
    {
      ag::StepArenaScope arena;
      ag::SumAll(cell.Forward(x, h, adj, node_embed, time_embed)).Backward();
    }
    const obs::ProfReport report = obs::CollectProfReport();
    const obs::ProfKernelReport* step = FindKernel(report, "gcgru.Step");
    const obs::ProfKernelReport* back =
        FindKernel(report, "gcgru.StepBackward");
    ASSERT_NE(step, nullptr) << threads;
    ASSERT_NE(back, nullptr) << threads;
    EXPECT_EQ(step->invocations, 1);
    EXPECT_EQ(back->invocations, 1);
    EXPECT_EQ(step->flops, fwd_flops) << threads;
    EXPECT_EQ(step->bytes, fwd_bytes) << threads;
    EXPECT_EQ(back->flops, bwd_flops) << threads;
    EXPECT_EQ(back->bytes, bwd_bytes) << threads;
    EXPECT_NE(FindNode(report, "gcgru.Step"), nullptr);
    EXPECT_NE(FindNode(report, "gcgru.StepBackward"), nullptr);
  }
}

// The fused TagSL node is its own cost row too: tagsl.Graph and
// tagsl.GraphBackward charge a shape-only model of the node's loops (the
// x x^T GEMM and the reductions keep their tensor rows), dense and top-k,
// the same at every thread count.
TEST(ProfDeterminismTest, TagslGraphCostModelMatchesShape) {
  const int64_t b = 4, n = 9, c = 2, d_nu = 4, k = 3;
  Rng rng(92);
  core::DiscreteTimeEmbedding encoder(24, 3, &rng);
  core::TagSL::Options options;
  options.num_nodes = n;
  options.node_dim = d_nu;
  core::TagSL tagsl(options, &encoder, &rng);
  ag::Variable x(Tensor::RandUniform({b, n, c}, -1, 1, &rng), true);
  const std::vector<int64_t> slots = {1, 2, 3, 4}, prev = {0, 1, 2, 3};
  for (const bool sparse : {false, true}) {
    // Per entry: the PDF gate (26), the eta add, relu and softmax (14)
    // and, top-k, the two per-edge dots; the backward recomputes them and
    // adds the softmax / relu (5) and gate (12) gradients and, top-k, the
    // two scatters into E_nu and x.
    const double entries = sparse ? b * n * k : b * n * n;
    const double dots = sparse ? 2.0 * (d_nu + c) : 0.0;
    const double fwd_flops = entries * (26.0 + 14.0 + dots);
    const double fwd_bytes =
        sparse ? 4.0 * entries + 8.0 * entries + 4.0 * n * d_nu
               : 8.0 * entries + 4.0 * n * n;
    const double bwd_flops =
        fwd_flops + entries * 17.0 + (sparse ? 4.0 * entries * (d_nu + c) : 0.0);
    const double bwd_bytes =
        fwd_bytes + 12.0 * entries + (sparse ? 8.0 * entries : 0.0);
    for (const int threads : {1, 2, 4, 8}) {
      ScopedNumThreads thread_guard(threads);
      ScopedProfiler profiler;
      {
        ag::StepArenaScope arena;
        ag::Variable graph =
            sparse ? tagsl.BuildSparseGraph(x, slots, prev, k).values
                   : tagsl.BuildGraph(x, slots, prev);
        ag::SumAll(graph).Backward();
      }
      const obs::ProfReport report = obs::CollectProfReport();
      const obs::ProfKernelReport* fwd = FindKernel(report, "tagsl.Graph");
      const obs::ProfKernelReport* bwd =
          FindKernel(report, "tagsl.GraphBackward");
      ASSERT_NE(fwd, nullptr) << threads;
      ASSERT_NE(bwd, nullptr) << threads;
      EXPECT_EQ(fwd->invocations, 1);
      EXPECT_EQ(bwd->invocations, 1);
      EXPECT_EQ(fwd->flops, fwd_flops) << sparse << " " << threads;
      EXPECT_EQ(fwd->bytes, fwd_bytes) << sparse << " " << threads;
      EXPECT_EQ(bwd->flops, bwd_flops) << sparse << " " << threads;
      EXPECT_EQ(bwd->bytes, bwd_bytes) << sparse << " " << threads;
      EXPECT_NE(FindNode(report, "tagsl.Graph"), nullptr);
      EXPECT_NE(FindNode(report, "tagsl.GraphBackward"), nullptr);
    }
  }
}

// ------------------------------------------------- perf_event fallback --

TEST(ProfPerfTest, ForcedUnavailableFallsBackCleanly) {
  obs::SetPerfForceUnavailableForTesting(true);
  const obs::PerfCounterSample sample = obs::SampleThreadPerfCounters();
  EXPECT_FALSE(sample.available);
  EXPECT_EQ(sample.cycles, 0);
  EXPECT_EQ(sample.instructions, 0);
  EXPECT_FALSE(obs::PerfCountersAvailable());

  // Profiling still works end to end without counters.
  {
    ScopedProfiler profiler(/*counters=*/true);
    LeafScope();
    const obs::ProfReport report = obs::CollectProfReport();
    EXPECT_FALSE(report.counters_available);
    const obs::ProfKernelReport* leaf = FindKernel(report, "test.leaf");
    ASSERT_NE(leaf, nullptr);
    EXPECT_EQ(leaf->invocations, 1);
    EXPECT_EQ(leaf->instructions, 0);
    EXPECT_EQ(leaf->cycles, 0);
    EXPECT_EQ(leaf->Ipc(), 0.0);
  }
  obs::SetPerfForceUnavailableForTesting(false);
}

// -------------------------------------------------- Report arithmetic --

obs::ProfReport MakeReport(int64_t invocations, double flops,
                           double seconds) {
  obs::ProfReport report;
  report.isa = "scalar";
  report.threads = 1;
  obs::ProfNodeReport root;
  root.name = "root";
  root.parent = -1;
  root.inclusive_seconds = seconds;
  obs::ProfNodeReport kernel_node;
  kernel_node.name = "tensor.Matmul";
  kernel_node.parent = 0;
  kernel_node.count = invocations;
  kernel_node.inclusive_seconds = seconds;
  kernel_node.exclusive_seconds = seconds;
  kernel_node.flops = flops;
  report.nodes = {root, kernel_node};
  obs::ProfKernelReport kernel;
  kernel.name = "tensor.Matmul";
  kernel.invocations = invocations;
  kernel.exclusive_seconds = seconds;
  kernel.flops = flops;
  kernel.bytes = flops / 2.0;
  report.kernels = {kernel};
  return report;
}

TEST(ProfReportTest, DeltaFromSubtractsByPathAndName) {
  const obs::ProfReport prev = MakeReport(10, 1000.0, 1.0);
  const obs::ProfReport now = MakeReport(35, 3500.0, 4.5);
  const obs::ProfReport delta = now.DeltaFrom(prev);
  const obs::ProfKernelReport* kernel = FindKernel(delta, "tensor.Matmul");
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(kernel->invocations, 25);
  EXPECT_DOUBLE_EQ(kernel->flops, 2500.0);
  EXPECT_DOUBLE_EQ(kernel->exclusive_seconds, 3.5);
  const obs::ProfNodeReport* node = FindNode(delta, "tensor.Matmul");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->count, 25);
}

TEST(ProfReportTest, AccumulateIsDeltaInverse) {
  obs::ProfReport total = MakeReport(10, 1000.0, 1.0);
  total.Accumulate(MakeReport(25, 2500.0, 3.5));
  const obs::ProfKernelReport* kernel = FindKernel(total, "tensor.Matmul");
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(kernel->invocations, 35);
  EXPECT_DOUBLE_EQ(kernel->flops, 3500.0);
  EXPECT_DOUBLE_EQ(kernel->exclusive_seconds, 4.5);
  // Node tree merged by path too.
  const obs::ProfNodeReport* node = FindNode(total, "tensor.Matmul");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->count, 35);
  EXPECT_EQ(total.nodes.size(), 2u);  // no duplicate paths
}

TEST(ProfReportTest, JsonRoundTripPreservesEverything) {
  obs::ProfReport report = MakeReport(10, 1000.0, 1.0);
  report.counters_available = true;
  report.kernels[0].instructions = 4000;
  report.kernels[0].cycles = 2000;
  report.kernels[0].l1_misses = 7;
  const obs::ProfReport loaded =
      obs::ProfReport::FromJson(report.ToJson());
  EXPECT_TRUE(loaded.counters_available);
  EXPECT_EQ(loaded.isa, "scalar");
  EXPECT_EQ(loaded.threads, 1);
  ASSERT_EQ(loaded.nodes.size(), report.nodes.size());
  EXPECT_EQ(loaded.nodes[1].parent, 0);
  EXPECT_EQ(loaded.nodes[1].count, 10);
  ASSERT_EQ(loaded.kernels.size(), 1u);
  EXPECT_EQ(loaded.kernels[0].invocations, 10);
  EXPECT_DOUBLE_EQ(loaded.kernels[0].flops, 1000.0);
  EXPECT_EQ(loaded.kernels[0].instructions, 4000);
  EXPECT_EQ(loaded.kernels[0].cycles, 2000);
  EXPECT_EQ(loaded.kernels[0].l1_misses, 7);
  EXPECT_DOUBLE_EQ(loaded.kernels[0].Ipc(), 2.0);
}

TEST(ProfReportTest, CollapsedStacksUsePathsAndExclusiveNanos) {
  obs::ProfReport report = MakeReport(10, 1000.0, 1.0);
  const std::string collapsed = report.ToCollapsed();
  // "root;tensor.Matmul 1000000000" — semicolon-joined path, exclusive ns.
  EXPECT_NE(collapsed.find("root;tensor.Matmul 1000000000"),
            std::string::npos)
      << collapsed;
}

// ------------------------------------------------------- Diff gating --

// A two-epoch run whose epochs each carry `per_epoch` as their "prof"
// delta; DiffReports sums the epoch blocks back into one profile.
obs::RunReport RunWithProf(const obs::ProfReport& per_epoch) {
  obs::RunReport run;
  for (int i = 0; i < 2; ++i) {
    obs::EpochReport epoch;
    epoch.epoch = i;
    epoch.has_prof = true;
    epoch.prof = per_epoch;
    run.epochs.push_back(epoch);
  }
  return run;
}

// The profiler rows of a diff, keyed by metric name.
std::map<std::string, obs::DiffRow> ProfRows(
    const obs::ReportDiffResult& result) {
  std::map<std::string, obs::DiffRow> rows;
  for (const auto& row : result.rows) {
    if (row.metric.rfind("prof.", 0) == 0) rows[row.metric] = row;
  }
  return rows;
}

TEST(DiffTest, ProfSelfDiffPassesAtZeroThreshold) {
  const obs::RunReport run = RunWithProf(MakeReport(10, 1000.0, 1.0));
  obs::ReportDiffOptions options;
  options.max_regress_pct = 0.0;
  const obs::ReportDiffResult result = obs::DiffReports(run, run, options);
  EXPECT_TRUE(result.ok());
  EXPECT_FALSE(ProfRows(result).empty());
}

TEST(DiffTest, ProfInvocationIncreaseGatesAndCyclesAreInfo) {
  obs::ProfReport baseline = MakeReport(100, 1000.0, 1.0);
  obs::ProfReport candidate = MakeReport(120, 1200.0, 1.2);
  obs::ReportDiffOptions options;
  options.max_regress_pct = 10.0;

  // Without counters, only invocations are compared: +20% regresses.
  obs::ReportDiffResult result = obs::DiffReports(
      RunWithProf(baseline), RunWithProf(candidate), options);
  EXPECT_FALSE(result.ok());
  std::map<std::string, obs::DiffRow> rows = ProfRows(result);
  ASSERT_EQ(rows.size(), 1u);
  const obs::DiffRow& invocations = rows["prof.tensor.Matmul.invocations"];
  EXPECT_DOUBLE_EQ(invocations.baseline, 200.0);  // summed over 2 epochs
  EXPECT_TRUE(invocations.regressed);

  // With counters on both sides: instructions gate, cycles/ipc never do.
  baseline.counters_available = true;
  candidate.counters_available = true;
  baseline.kernels[0].instructions = 1000;
  baseline.kernels[0].cycles = 500;
  candidate.kernels[0].instructions = 5000;  // way past 10%
  candidate.kernels[0].cycles = 50000;       // huge, but info-only
  result = obs::DiffReports(RunWithProf(baseline), RunWithProf(candidate),
                            options);
  rows = ProfRows(result);
  ASSERT_EQ(rows.count("prof.instructions"), 1u);
  EXPECT_TRUE(rows["prof.instructions"].gated);
  EXPECT_TRUE(rows["prof.instructions"].regressed);
  for (const char* info : {"prof.cycles", "prof.ipc"}) {
    ASSERT_EQ(rows.count(info), 1u) << info;
    EXPECT_FALSE(rows[info].gated) << info;
    EXPECT_FALSE(rows[info].regressed) << info;
  }

  // Counters on one side only: the hardware rows disappear entirely.
  candidate.counters_available = false;
  result = obs::DiffReports(RunWithProf(baseline), RunWithProf(candidate),
                            options);
  rows = ProfRows(result);
  EXPECT_EQ(rows.count("prof.instructions"), 0u);
  EXPECT_EQ(rows.count("prof.cycles"), 0u);
}

// -------------------------------------------- Trainer integration ------

class ProfTrainFixture : public ::testing::Test {
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

data::ForecastDataset* ProfTrainFixture::dataset_ = nullptr;

TEST_F(ProfTrainFixture, EpochJsonlCarriesProfDeltas) {
  const auto path =
      (std::filesystem::temp_directory_path() / "tgcrn_prof_test_run.jsonl")
          .string();
  std::filesystem::remove(path);

  Rng rng(41);
  core::TGCRN model(SmallModelConfig(), &rng);
  core::TrainConfig config;
  config.epochs = 2;
  config.max_batches_per_epoch = 6;
  config.verbose = false;
  config.report_path = path;
  config.health.enabled = false;
  config.prof.enabled = true;
  config.prof.counters = false;
  const auto result = core::TrainAndEvaluate(&model, *dataset_, config);
  obs::StopProfiling();
  obs::ResetProfile();

  ASSERT_EQ(result.report.epochs.size(), 2u);
  for (const auto& epoch : result.report.epochs) {
    ASSERT_TRUE(epoch.has_prof);
    EXPECT_FALSE(epoch.prof.kernels.empty());
    EXPECT_FALSE(epoch.prof.nodes.empty());
    EXPECT_FALSE(epoch.prof.isa.empty());
    EXPECT_GT(epoch.prof.threads, 0);
    // The prof phase was timed like any other phase.
    EXPECT_GT(epoch.phase_seconds.count(obs::kPhaseProf), 0u);
    const obs::ProfKernelReport* matmul =
        FindKernel(epoch.prof, "tensor.Matmul");
    ASSERT_NE(matmul, nullptr);
    EXPECT_GT(matmul->invocations, 0);
    EXPECT_GT(matmul->flops, 0.0);
  }
  // Same batch count per epoch => identical per-epoch kernel invocations:
  // the deltas are exact, not smeared across epoch boundaries.
  const obs::ProfKernelReport* first =
      FindKernel(result.report.epochs[0].prof, "tensor.Matmul");
  const obs::ProfKernelReport* second =
      FindKernel(result.report.epochs[1].prof, "tensor.Matmul");
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(first->invocations, second->invocations);

  // JSONL round trip preserves the prof blocks.
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  obs::RunReport loaded;
  ASSERT_TRUE(obs::RunReport::FromJsonl(buffer.str(), &loaded));
  ASSERT_EQ(loaded.epochs.size(), 2u);
  for (size_t i = 0; i < loaded.epochs.size(); ++i) {
    ASSERT_TRUE(loaded.epochs[i].has_prof);
    const obs::ProfReport& got = loaded.epochs[i].prof;
    const obs::ProfReport& want = result.report.epochs[i].prof;
    ASSERT_EQ(got.kernels.size(), want.kernels.size());
    for (size_t k = 0; k < got.kernels.size(); ++k) {
      EXPECT_EQ(got.kernels[k].name, want.kernels[k].name);
      EXPECT_EQ(got.kernels[k].invocations, want.kernels[k].invocations);
      EXPECT_DOUBLE_EQ(got.kernels[k].flops, want.kernels[k].flops);
    }
    ASSERT_EQ(got.nodes.size(), want.nodes.size());
  }
  std::filesystem::remove(path);
}

TEST_F(ProfTrainFixture, ProfilerDoesNotPerturbTraining) {
  core::TrainConfig config;
  config.epochs = 2;
  config.max_batches_per_epoch = 6;
  config.verbose = false;
  config.health.enabled = false;
  config.prof.enabled = false;

  Rng rng_off(55);
  core::TGCRN model_off(SmallModelConfig(), &rng_off);
  const auto result_off =
      core::TrainAndEvaluate(&model_off, *dataset_, config);

  config.prof.enabled = true;
  config.prof.counters = false;
  Rng rng_on(55);
  core::TGCRN model_on(SmallModelConfig(), &rng_on);
  const auto result_on = core::TrainAndEvaluate(&model_on, *dataset_, config);
  obs::StopProfiling();
  obs::ResetProfile();

  // The profiler observes; it must never change what the model computes.
  ASSERT_EQ(result_on.train_loss_history.size(),
            result_off.train_loss_history.size());
  for (size_t i = 0; i < result_on.train_loss_history.size(); ++i) {
    EXPECT_EQ(result_on.train_loss_history[i],
              result_off.train_loss_history[i]);  // bitwise
  }
  EXPECT_EQ(result_on.average.mae, result_off.average.mae);
}

// With the profiler off, instrumented kernels keep the zero-alloc
// steady-state contract: one relaxed load per scope, no bookkeeping.
TEST(ProfZeroAllocTest, ProfilerOffSteadyStateAllocatesNothing) {
  ASSERT_FALSE(obs::ProfilingEnabled());
  obs::Counter* allocs =
      obs::Registry::Global().GetCounter("tensor.allocations");

  Rng rng(9);
  const Tensor a = Tensor::RandUniform({32, 64}, -1.0f, 1.0f, &rng);
  const Tensor b = Tensor::RandUniform({64, 32}, -1.0f, 1.0f, &rng);
  auto step = [&] { (void)a.Matmul(b).Sigmoid().Softmax(-1).SumAll(); };
  for (int i = 0; i < 3; ++i) step();  // warm the buffer pool

  const int64_t before = allocs->Value();
  for (int i = 0; i < 5; ++i) step();
  EXPECT_EQ(allocs->Value(), before)
      << "profiler-off steady-state step allocated tensor storage";
}

// ----------------------------------------------------------- Files -----

TEST(ProfFilesTest, WriteProfileFileEmitsJson) {
  const std::string json_path =
      (std::filesystem::temp_directory_path() / "tgcrn_prof_test_profile.json")
          .string();
  std::filesystem::remove(json_path);

  {
    ScopedProfiler profiler;
    {
      TGCRN_TRACE_SCOPE("test.outer");
      LeafScope();
    }
    ASSERT_TRUE(obs::WriteProfileFile(json_path));
  }

  std::ifstream json_in(json_path);
  ASSERT_TRUE(json_in.good());
  std::ostringstream json_buffer;
  json_buffer << json_in.rdbuf();
  obs::Json json;
  ASSERT_TRUE(obs::Json::Parse(json_buffer.str(), &json));
  ASSERT_TRUE(json.Has("kernels"));
  const obs::ProfReport loaded = obs::ProfReport::FromJson(json);
  EXPECT_NE(FindKernel(loaded, "test.leaf"), nullptr);
  // `tgcrn_prof stacks` renders flamegraph lines from this JSON.
  EXPECT_NE(loaded.ToCollapsed().find("root;test.outer;test.leaf"),
            std::string::npos);

  std::filesystem::remove(json_path);
}

}  // namespace
}  // namespace tgcrn
