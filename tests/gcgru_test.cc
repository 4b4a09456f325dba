// Copyright 2026 TGCRN Reproduction Authors
// The fused GCGRU step (core/gcgru.cc) against the op-by-op cell it
// replaced, kept here as the reference oracle: same parameters, same
// inputs, W_nu and b_nu hoisted as one ag::Matmul each per pass, and every
// forward value and gradient over a pass must match bit for bit — at each
// ISA, every thread count, dense and top-k adjacency, with and without the
// time-aware weights. Gradchecks pin the fused node's hand-written backward
// to finite differences.
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/sparse_ops.h"
#include "common/cpu_features.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/gcgru.h"
#include "graph/csr.h"
#include "obs/metrics.h"
#include "gradcheck.h"

namespace tgcrn {
namespace {

using ag::Variable;

// The op-by-op cell: Eq 13-16 as a chain of autograd ops (42 nodes per
// step with time), reading the fused cell's own parameters. A pass hoists
// the node halves W_nu = E_nu pool_w_node and b_nu = E_nu pool_b_node of
// both convolutions once, as one Matmul node each, which every step reads.
class ReferenceCell {
 public:
  struct Weights {
    Variable gates_w, gates_b, cand_w, cand_b;
  };

  explicit ReferenceCell(core::GCGRUCell* cell) {
    for (auto& [name, p] : cell->NamedParameters()) params_[name] = p;
    hidden_ = cell->hidden_dim();
  }

  Weights Hoist(const Variable& node_embed) const {
    return {ag::Matmul(node_embed, Param("gates", "_pool_w_node")),
            ag::Matmul(node_embed, Param("gates", "_pool_b_node")),
            ag::Matmul(node_embed, Param("cand", "_pool_w_node")),
            ag::Matmul(node_embed, Param("cand", "_pool_b_node"))};
  }

  Variable Forward(const Variable& x, const Variable& h,
                   const core::Adjacency& adj, const Weights& w,
                   const Variable& time_embed) const {
    Variable xh = ag::Concat({x, h}, -1);
    Variable zr = ag::Sigmoid(Conv(xh, adj, w.gates_w, w.gates_b, time_embed,
                                   "gates", 2 * hidden_));
    Variable z = ag::Slice(zr, -1, 0, hidden_);
    Variable r = ag::Slice(zr, -1, hidden_, 2 * hidden_);
    Variable xrh = ag::Concat({x, ag::Mul(r, h)}, -1);
    Variable cand = ag::Tanh(Conv(xrh, adj, w.cand_w, w.cand_b, time_embed,
                                  "cand", hidden_));
    Variable one_minus_z = ag::AddScalar(ag::Neg(z), 1.0f);
    return ag::Add(ag::Mul(one_minus_z, h), ag::Mul(z, cand));
  }

 private:
  Variable Param(const std::string& prefix, const char* suffix) const {
    return params_.at(prefix + suffix);
  }

  Variable Conv(const Variable& value, const core::Adjacency& adj,
                const Variable& w_hoisted, const Variable& b_hoisted,
                const Variable& time_embed, const std::string& prefix,
                int64_t out_dim) const {
    const int64_t batch = value.size(0);
    const int64_t n = value.size(1);
    const int64_t in_dim = 2 * value.size(2);
    Variable aggregated = adj.is_sparse() ? ag::SpmmCsr(adj.sparse, value)
                                          : ag::Matmul(adj.dense, value);
    Variable support = ag::Concat({value, aggregated}, -1);
    Variable w_node = ag::Reshape(w_hoisted, {n, in_dim, out_dim});
    Variable by_node = ag::Permute(support, {1, 0, 2});
    Variable out_node = ag::Permute(ag::Matmul(by_node, w_node), {1, 0, 2});
    Variable b_node = ag::Unsqueeze(b_hoisted, 0);
    Variable out = ag::Add(out_node, b_node);
    if (time_embed.defined()) {
      Variable w_time =
          ag::Reshape(ag::Matmul(time_embed, Param(prefix, "_pool_w_time")),
                      {batch, in_dim, out_dim});
      Variable out_time = ag::Matmul(support, w_time);
      Variable b_time = ag::Unsqueeze(
          ag::Matmul(time_embed, Param(prefix, "_pool_b_time")), 1);
      out = ag::Add(ag::Add(out, out_time), b_time);
    }
    return out;
  }

  std::map<std::string, Variable> params_;
  int64_t hidden_ = 0;
};

bool Avx2Available() {
  return common::Avx2CompiledIn() && common::CpuSupportsAvx2();
}

std::vector<common::SimdIsa> Isas() {
  std::vector<common::SimdIsa> isas = {common::SimdIsa::kScalar};
  if (Avx2Available()) isas.push_back(common::SimdIsa::kAvx2);
  return isas;
}

void ExpectBitwiseEqual(const Tensor& got, const Tensor& want,
                        const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  const size_t bytes = static_cast<size_t>(got.numel()) * sizeof(float);
  if (std::memcmp(got.data(), want.data(), bytes) == 0) return;
  int64_t first = 0;
  while (std::memcmp(got.data() + first, want.data() + first,
                     sizeof(float)) == 0) {
    ++first;
  }
  ADD_FAILURE() << what << " differs first at element " << first << ": "
                << got.flat(first) << " vs " << want.flat(first);
}

struct CellCase {
  int64_t batch;
  int64_t nodes;
  int64_t input;   // input width
  int64_t hidden;
  bool time;
  bool sparse;
};

std::string Describe(const CellCase& c) {
  return "B=" + std::to_string(c.batch) + " N=" + std::to_string(c.nodes) +
         " C=" + std::to_string(c.input) + " H=" + std::to_string(c.hidden) +
         (c.time ? " time" : " no-time") + (c.sparse ? " top-k" : " dense");
}

// Leaves of one pass of up to kMaxSteps steps: x_t, h_0 -> h_1 -> ...,
// with x_t = h_t for t >= 1 when the input is hidden-wide (a deeper
// layer's input), so the node that receives both h's and x's partials is
// covered.
constexpr int kMaxSteps = 3;

struct CellInputs {
  Variable xs[kMaxSteps];
  Variable h0, node_embed, time_embed, dense, values, head;
  std::shared_ptr<graph::CsrIndex> index;
};

CellInputs MakeInputs(const CellCase& c, uint64_t seed) {
  Rng rng(seed);
  CellInputs in;
  for (Variable& x : in.xs) {
    x = Variable(Tensor::RandUniform({c.batch, c.nodes, c.input}, -1, 1, &rng),
                 true);
  }
  in.h0 = Variable(
      Tensor::RandUniform({c.batch, c.nodes, c.hidden}, -1, 1, &rng), true);
  in.node_embed =
      Variable(Tensor::RandUniform({c.nodes, 4}, -1, 1, &rng), true);
  if (c.time) {
    in.time_embed =
        Variable(Tensor::RandUniform({c.batch, 3}, -1, 1, &rng), true);
  }
  Tensor dense = Tensor::RandUniform({c.batch, c.nodes, c.nodes}, 0, 1, &rng)
                     .Softmax(-1);
  if (c.sparse) {
    graph::CsrBatch csr = graph::SparsifyTopK(dense, 3);
    in.index = csr.index;
    in.values = Variable(csr.values, true);
  } else {
    in.dense = Variable(dense, true);
  }
  in.head = Variable(
      Tensor::RandUniform({c.batch, c.nodes, c.hidden}, -1, 1, &rng));
  return in;
}

core::Adjacency AdjacencyOf(const CellInputs& in) {
  if (in.index != nullptr) {
    return core::Adjacency(ag::SparseGraph{in.index, in.values});
  }
  return core::Adjacency(in.dense);
}

struct CellRun {
  std::vector<Tensor> hs;  // h_1 .. h_T
  std::map<std::string, Tensor> grads;
};

// One pass of `steps` steps and one backward from h_T. make_step() runs
// once, inside the pass's arena scope, and returns the step function
// (x, h, adj) -> h' that every step of the pass calls.
template <typename MakeStep>
CellRun RunPass(core::GCGRUCell* cell, const CellCase& c,
                const CellInputs& in, int steps, MakeStep make_step) {
  for (auto& p : cell->Parameters()) p.ZeroGrad();
  for (Variable v : in.xs) v.ZeroGrad();
  for (Variable v : {in.h0, in.node_embed, in.time_embed, in.dense,
                     in.values}) {
    if (v.defined()) v.ZeroGrad();
  }
  const core::Adjacency adj = AdjacencyOf(in);
  CellRun run;
  {
    ag::StepArenaScope arena;
    auto step = make_step();
    Variable h = in.h0;
    for (int t = 0; t < steps; ++t) {
      const Variable x = t > 0 && c.input == c.hidden ? h : in.xs[t];
      h = step(x, h, adj);
      run.hs.push_back(h.value().Clone());
    }
    ag::SumAll(ag::Mul(h, in.head)).Backward();
  }
  auto keep = [&](const std::string& name, const Variable& v) {
    if (v.defined() && v.has_grad()) run.grads[name] = v.grad().Clone();
  };
  for (int t = 0; t < kMaxSteps; ++t) {
    std::string name = "x";
    name += std::to_string(t);
    keep(name, in.xs[t]);
  }
  keep("h0", in.h0);
  keep("node_embed", in.node_embed);
  keep("time_embed", in.time_embed);
  keep("adj", in.dense);
  keep("adj_values", in.values);
  for (auto& [name, p] : cell->NamedParameters()) keep(name, p);
  return run;
}

void ExpectRunsEqual(const CellRun& fused, const CellRun& reference,
                     const std::string& what) {
  ASSERT_EQ(fused.hs.size(), reference.hs.size()) << what;
  for (size_t t = 0; t < reference.hs.size(); ++t) {
    ExpectBitwiseEqual(fused.hs[t], reference.hs[t],
                       what + " h" + std::to_string(t + 1));
  }
  ASSERT_EQ(fused.grads.size(), reference.grads.size()) << what;
  for (const auto& [name, grad] : reference.grads) {
    ASSERT_EQ(fused.grads.count(name), 1u) << what << " " << name;
    ExpectBitwiseEqual(fused.grads.at(name), grad, what + " grad " + name);
  }
}

// A pass of T = 1 or 3 steps on one hoisted weight set against the op
// chain hoisted the same way. One step goes through the 5-argument
// Forward, which hoists for itself; three share one HoistWeights.
TEST(GCGRUTest, FusedStepMatchesReferenceBitwise) {
  std::vector<CellCase> cases;
  for (const bool sparse : {false, true}) {
    for (const bool time : {true, false}) {
      for (const bool deep : {false, true}) {
        // Batch 3 takes the small-row GEMM paths, batch 9 the packed ones
        // (and the backward's hoisted W_nu^T panels); N = 7 keeps the
        // aggregation below the packing cutover.
        cases.push_back({3, 10, deep ? 5 : 2, 5, time, sparse});
        cases.push_back({9, 7, deep ? 6 : 2, 6, time, sparse});
      }
    }
  }
  uint64_t seed = 700;
  for (const CellCase& c : cases) {
    Rng rng(seed++);
    core::GCGRUCell cell(c.input, c.hidden, 4, c.time ? 3 : 0, &rng);
    // Non-zero biases so every pool's contribution is live.
    for (auto& [name, p] : cell.NamedParameters()) {
      if (name.find("_b_") != std::string::npos) {
        p.SetValue(Tensor::RandUniform(p.value().shape(), -0.5, 0.5, &rng));
      }
    }
    const ReferenceCell reference(&cell);
    const CellInputs in = MakeInputs(c, seed++);
    for (const common::SimdIsa isa : Isas()) {
      common::ScopedSimdIsa pin(isa);
      Tensor want_h1;
      for (const int steps : {1, kMaxSteps}) {
        const std::string what = Describe(c) + " T=" +
                                 std::to_string(steps) + " " +
                                 common::SimdIsaName(isa);
        const CellRun want = RunPass(&cell, c, in, steps, [&] {
          const ReferenceCell::Weights w = reference.Hoist(in.node_embed);
          return [&, w](const Variable& x, const Variable& h,
                        const core::Adjacency& a) {
            return reference.Forward(x, h, a, w, in.time_embed);
          };
        });
        // Every x read (only x_0 when later inputs are the hidden
        // states), h0, E_nu, E_tau, the adjacency and every pool received
        // a gradient.
        const size_t inputs = (c.input == c.hidden ? 1u : steps) + 3u +
                              (c.time ? 1u : 0u);
        ASSERT_EQ(want.grads.size(), inputs + (c.time ? 8u : 4u)) << what;
        want_h1 = want.hs[0];
        for (const int threads : {1, 2, 4, 8}) {
          common::ScopedNumThreads pool(threads);
          const CellRun got = RunPass(&cell, c, in, steps, [&] {
            const core::GCGRUWeights w =
                steps == 1 ? core::GCGRUWeights()
                           : cell.HoistWeights(in.node_embed, c.batch);
            return [&, w](const Variable& x, const Variable& h,
                          const core::Adjacency& a) {
              return w.defined() ? cell.Forward(x, h, a, in.node_embed,
                                                in.time_embed, w)
                                 : cell.Forward(x, h, a, in.node_embed,
                                                in.time_embed);
            };
          });
          ExpectRunsEqual(got, want, what + " " + std::to_string(threads) +
                                         "t");
        }
      }
      // Eval / serving: the tape-free step gives the same values.
      {
        ag::NoGradGuard no_grad;
        Variable h1 = cell.Forward(in.xs[0], in.h0, AdjacencyOf(in),
                                   in.node_embed, in.time_embed);
        EXPECT_FALSE(h1.needs_grad());
        ExpectBitwiseEqual(h1.value(), want_h1, Describe(c) + " no-grad h1");
      }
    }
  }
}

// Weights hoisted once serve every later step bitwise as per-call hoisting
// does, whether they were packed for a wide batch or left unpacked for a
// narrow one.
TEST(GCGRUTest, HoistedWeightsMatchPerStepHoisting) {
  Rng rng(710);
  core::GCGRUCell cell(2, 6, 4, 3, &rng);
  for (const int64_t batch : {2, 9}) {
    const CellCase c{batch, 9, 2, 6, true, false};
    const CellInputs in = MakeInputs(c, 711);
    const core::Adjacency adj = AdjacencyOf(in);
    ag::NoGradGuard no_grad;
    const Tensor each =
        cell.Forward(in.xs[0], in.h0, adj, in.node_embed, in.time_embed)
            .value();
    for (const int64_t hoist_batch : {1, 16}) {
      const core::GCGRUWeights weights =
          cell.HoistWeights(in.node_embed, hoist_batch);
      EXPECT_EQ(weights.gates_packed.numel() > 0, hoist_batch >= 8);
      const Tensor once = cell.Forward(in.xs[0], in.h0, adj, in.node_embed,
                                       in.time_embed, weights)
                              .value();
      ExpectBitwiseEqual(once, each,
                         "B=" + std::to_string(batch) + " hoisted for " +
                             std::to_string(hoist_batch));
    }
  }
}

TEST(GCGRUDeathTest, WeightsFromAnotherCellAbort) {
  Rng rng(715);
  core::GCGRUCell cell(2, 6, 4, 3, &rng);
  core::GCGRUCell wider(2, 7, 4, 3, &rng);
  const CellInputs in = MakeInputs({2, 9, 2, 6, true, false}, 716);
  const core::GCGRUWeights weights = wider.HoistWeights(in.node_embed, 2);
  EXPECT_DEATH(cell.Forward(in.xs[0], in.h0, AdjacencyOf(in), in.node_embed,
                            in.time_embed, weights),
               "hoisted for another cell");
}

// A recorded pass is four nodes per cell (W_nu and b_nu of both
// convolutions) plus one per step, and its backward fires each of the four
// once; a NoGradGuard hoist records nothing and packs no backward panels.
TEST(GCGRUTest, FusedStepIsOneAutogradNode) {
  Rng rng(720);
  core::GCGRUCell cell(2, 6, 4, 3, &rng);
  const CellInputs in = MakeInputs({9, 9, 2, 6, true, false}, 721);
  const core::Adjacency adj = AdjacencyOf(in);
  auto live_nodes = [] {
    return ag::internal::ThreadGraphArenaStats().live_nodes;
  };
  obs::Counter* fired =
      obs::Registry::Global().GetCounter("autograd.backward_ops");
  {
    ag::StepArenaScope arena;
    int64_t before = live_nodes();
    const core::GCGRUWeights w = cell.HoistWeights(in.node_embed, 9);
    EXPECT_EQ(live_nodes() - before, 4);
    EXPECT_TRUE(w.gates_w.needs_grad());
    EXPECT_GT(w.gates_packed_t.numel(), 0);
    EXPECT_GT(w.cand_packed_t.numel(), 0);
    before = live_nodes();
    Variable h = in.h0;
    for (const Variable& x : in.xs) {
      h = cell.Forward(x, h, adj, in.node_embed, in.time_embed, w);
    }
    EXPECT_EQ(live_nodes() - before, kMaxSteps);
    EXPECT_TRUE(h.needs_grad());
    const int64_t fired_before = fired->Value();
    h.Backward(Tensor::Ones(h.shape()));
    EXPECT_EQ(fired->Value() - fired_before, kMaxSteps + 4);
    // The 5-argument overload hoists for itself.
    before = live_nodes();
    cell.Forward(in.xs[0], in.h0, adj, in.node_embed, in.time_embed);
    EXPECT_EQ(live_nodes() - before, 5);
  }
  {
    ag::StepArenaScope arena;
    ag::NoGradGuard no_grad;
    const int64_t before = live_nodes();
    const core::GCGRUWeights w = cell.HoistWeights(in.node_embed, 9);
    EXPECT_EQ(live_nodes() - before, 0);
    EXPECT_FALSE(w.gates_w.needs_grad());
    EXPECT_GT(w.gates_packed.numel(), 0);
    EXPECT_EQ(w.gates_packed_t.numel(), 0);
    EXPECT_EQ(w.cand_packed_t.numel(), 0);
  }
}

// Finite differences through the fused node's hand-written backward:
// every input and every pool, small dense and top-k shapes.
void GradcheckCell(bool sparse, bool time) {
  Rng rng(sparse ? 731 : 730);
  core::GCGRUCell cell(2, 3, 4, time ? 3 : 0, &rng);
  for (auto& [name, p] : cell.NamedParameters()) {
    if (name.find("_b_") != std::string::npos) {
      p.SetValue(Tensor::RandUniform(p.value().shape(), -0.5, 0.5, &rng));
    }
  }
  const CellCase c{2, 4, 2, 3, time, sparse};
  const CellInputs in = MakeInputs(c, sparse ? 733 : 732);
  std::vector<Variable> inputs = {in.xs[0], in.h0, in.node_embed,
                                  sparse ? in.values : in.dense};
  if (time) inputs.push_back(in.time_embed);
  for (const Variable& p : cell.Parameters()) inputs.push_back(p);
  testing::ExpectGradientsClose(
      [&](const std::vector<Variable>& v) {
        const core::Adjacency adj =
            sparse ? core::Adjacency(ag::SparseGraph{in.index, v[3]})
                   : core::Adjacency(v[3]);
        Variable out = cell.Forward(v[0], v[1], adj, v[2],
                                    time ? v[4] : Variable());
        return ag::SumAll(ag::Mul(out, in.head));
      },
      inputs, 1e-2f, 2e-2f, 2e-3f);
}

TEST(GCGRUTest, FusedStepGradcheckDense) {
  GradcheckCell(/*sparse=*/false, /*time=*/true);
  GradcheckCell(/*sparse=*/false, /*time=*/false);
}

TEST(GCGRUTest, FusedStepGradcheckSparse) {
  GradcheckCell(/*sparse=*/true, /*time=*/true);
  GradcheckCell(/*sparse=*/true, /*time=*/false);
}

}  // namespace
}  // namespace tgcrn
