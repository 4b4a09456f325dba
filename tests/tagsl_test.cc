// Copyright 2026 TGCRN Reproduction Authors
// The fused TagSL graph node (core/tagsl.cc) against the op chains it
// replaced, kept here as reference oracles: the dense Eq 6-11 chain and
// the top-k builder's kept-edge chain (gathers, dots, gate, relu,
// softmax). Same parameters and inputs; every forward value and every
// gradient (x, E_nu, and the time encoder through eta) must match bit for
// bit — dense and top-k, with and without the time term and the periodic
// discriminant, at each ISA and every thread count. Gradchecks pin the
// node's hand-written backward to finite differences.
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/sparse_ops.h"
#include "common/cpu_features.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/tagsl.h"
#include "core/time_encoders.h"
#include "gradcheck.h"

namespace tgcrn {
namespace {

using ag::Variable;

// Eq 7 as the op chain built it: [B, 1].
Variable ReferenceEta(const core::TimeEncoder& encoder,
                      const std::vector<int64_t>& slots,
                      const std::vector<int64_t>& prev) {
  return ag::MulScalar(
      ag::Sum(ag::Mul(encoder.Encode(slots), encoder.Encode(prev)), 1,
              /*keepdim=*/true),
      1.0f / static_cast<float>(encoder.dim()));
}

// The dense op chain: Eq 6-9 then relu and the row softmax (20 nodes per
// call with time and PDF).
Variable ReferenceDenseGraph(const core::TagSL& tagsl,
                             const core::TimeEncoder* encoder,
                             const Variable& x,
                             const std::vector<int64_t>& slots,
                             const std::vector<int64_t>& prev) {
  const core::TagSL::Options& o = tagsl.options();
  const Variable& embed = tagsl.node_embedding();
  const int64_t batch = x.size(0);
  Variable base =
      ag::Unsqueeze(ag::Matmul(embed, ag::Transpose(embed, 0, 1)), 0);
  if (o.use_time) {
    base = ag::Add(base,
                   ag::Unsqueeze(ReferenceEta(*encoder, slots, prev), 2));
  }
  if (o.use_pdf) {
    const float scale = 1.0f / std::sqrt(static_cast<float>(x.size(2)));
    Variable a_rho = ag::Tanh(
        ag::MulScalar(ag::Matmul(x, ag::Transpose(x, -2, -1)), scale));
    Variable gate =
        ag::AddScalar(ag::MulScalar(ag::Sigmoid(a_rho), o.alpha), 1.0f);
    base = ag::Mul(gate, base);
  } else if (base.size(0) == 1 && batch > 1) {
    base = ag::BroadcastTo(base, {batch, o.num_nodes, o.num_nodes});
  }
  return ag::Softmax(ag::Relu(base), -1);
}

// The top-k builder's stage-2 chain on a given kept set.
Variable ReferenceSparseValues(const core::TagSL& tagsl,
                               const core::TimeEncoder* encoder,
                               const Variable& x,
                               const std::vector<int64_t>& slots,
                               const std::vector<int64_t>& prev,
                               const graph::CsrIndex& index) {
  const core::TagSL::Options& o = tagsl.options();
  const int64_t batch = index.batch;
  const int64_t n = index.rows;
  const int64_t nnz = index.nnz();
  const int64_t kept = nnz / n;
  std::vector<int64_t> row_ids, col_ids, flat_row, flat_col;
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t s = 0; s < nnz; ++s) {
      row_ids.push_back(s / kept);
      col_ids.push_back(index.col_ids[b * nnz + s]);
      flat_row.push_back(b * n + s / kept);
      flat_col.push_back(b * n + index.col_ids[b * nnz + s]);
    }
  }
  const Variable& embed = tagsl.node_embedding();
  Variable logit = ag::Reshape(
      ag::Sum(ag::Mul(ag::EmbeddingLookup(embed, row_ids),
                      ag::EmbeddingLookup(embed, col_ids)),
              1),
      {batch, nnz});
  if (o.use_time) logit = ag::Add(logit, ReferenceEta(*encoder, slots, prev));
  if (o.use_pdf) {
    const float scale = 1.0f / std::sqrt(static_cast<float>(x.size(2)));
    Variable x_flat = ag::Reshape(x, {batch * n, x.size(2)});
    Variable dot = ag::Sum(ag::Mul(ag::EmbeddingLookup(x_flat, flat_row),
                                   ag::EmbeddingLookup(x_flat, flat_col)),
                           1);
    Variable gate = ag::AddScalar(
        ag::MulScalar(ag::Sigmoid(ag::Tanh(ag::MulScalar(dot, scale))),
                      o.alpha),
        1.0f);
    logit = ag::Mul(ag::Reshape(gate, {batch, nnz}), logit);
  }
  return ag::Reshape(
      ag::Softmax(ag::Reshape(ag::Relu(logit), {batch * n, kept}), -1),
      {batch, nnz});
}

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

struct GraphCase {
  int64_t batch;
  int64_t nodes;
  int64_t channels;  // 2: a layer input; 6: a deeper layer's hidden state
  int64_t topk;      // 0: dense
  bool use_time;
  bool use_pdf;
};

std::string Describe(const GraphCase& c) {
  return "B=" + std::to_string(c.batch) + " N=" + std::to_string(c.nodes) +
         " C=" + std::to_string(c.channels) +
         (c.topk > 0 ? " top-" + std::to_string(c.topk) : " dense") +
         (c.use_time ? " time" : " no-time") +
         (c.use_pdf ? " pdf" : " no-pdf");
}

struct GraphRun {
  Tensor graph;
  std::map<std::string, Tensor> grads;
};

// One graph build plus a loss that also reads x and E_nu directly. The
// backward walk fires those direct reads first (as the GCGRU cell fires
// before TagSL in the model), so TagSL's partials land on non-zero
// gradients and their order shows in the bits.
template <typename BuildFn>
GraphRun RunGraph(const core::TagSL& tagsl, core::TimeEncoder* encoder,
             const Variable& x, const Variable& head, const Variable& x_head,
             const Variable& e_head, BuildFn build) {
  Variable embed = tagsl.node_embedding();
  Variable(x).ZeroGrad();
  embed.ZeroGrad();
  for (Variable& p : encoder->Parameters()) p.ZeroGrad();
  GraphRun run;
  {
    ag::StepArenaScope arena;
    Variable graph = build();
    run.graph = graph.value().Clone();
    Variable loss = ag::Add(
        ag::Add(ag::SumAll(ag::Mul(graph, head)),
                ag::SumAll(ag::Mul(x, x_head))),
        ag::SumAll(ag::Mul(embed, e_head)));
    loss.Backward();
  }
  run.grads["x"] = x.grad().Clone();
  run.grads["node_embedding"] = embed.grad().Clone();
  for (auto& [name, p] : encoder->NamedParameters()) {
    if (p.has_grad()) run.grads["time." + name] = p.grad().Clone();
  }
  return run;
}

void ExpectRunsEqual(const GraphRun& got, const GraphRun& want,
                     const std::string& what) {
  ExpectBitwiseEqual(got.graph, want.graph, what + " graph");
  ASSERT_EQ(got.grads.size(), want.grads.size()) << what;
  for (const auto& [name, grad] : want.grads) {
    ASSERT_EQ(got.grads.count(name), 1u) << what << " " << name;
    ExpectBitwiseEqual(got.grads.at(name), grad, what + " grad " + name);
  }
}

TEST(TagSLTest, FusedGraphMatchesReferenceBitwise) {
  std::vector<GraphCase> cases;
  for (const int64_t topk : {0, 4}) {
    for (const bool use_time : {true, false}) {
      for (const bool use_pdf : {true, false}) {
        for (const int64_t channels : {2, 6}) {
          cases.push_back({3, 11, channels, topk, use_time, use_pdf});
        }
      }
    }
  }
  // One item: the dense base is [1, N, N] and sums over no batch.
  cases.push_back({1, 9, 2, 0, true, true});
  cases.push_back({1, 9, 2, 0, false, false});
  uint64_t seed = 900;
  for (const GraphCase& c : cases) {
    Rng rng(seed++);
    core::DiscreteTimeEmbedding encoder(24, 4, &rng);
    core::TagSL::Options options;
    options.num_nodes = c.nodes;
    options.node_dim = 5;
    options.alpha = 0.7f;
    options.use_time = c.use_time;
    options.use_pdf = c.use_pdf;
    core::TagSL tagsl(options, c.use_time ? &encoder : nullptr, &rng);
    std::vector<int64_t> slots, prev;
    for (int64_t b = 0; b < c.batch; ++b) {
      slots.push_back(3 + 5 * b);
      prev.push_back(2 + 5 * b);
    }
    const Variable x(
        Tensor::RandUniform({c.batch, c.nodes, c.channels}, -1.5, 1.5, &rng),
        true);
    const int64_t width = c.topk > 0 ? c.nodes * c.topk : c.nodes * c.nodes;
    const Shape graph_shape = c.topk > 0
                                  ? Shape{c.batch, width}
                                  : Shape{c.batch, c.nodes, c.nodes};
    const Variable head(Tensor::RandUniform(graph_shape, -1, 1, &rng));
    const Variable x_head(Tensor::RandUniform(x.shape(), -1, 1, &rng));
    const Variable e_head(
        Tensor::RandUniform(tagsl.node_embedding().shape(), -1, 1, &rng));
    for (const common::SimdIsa isa : Isas()) {
      common::ScopedSimdIsa pin(isa);
      std::shared_ptr<graph::CsrIndex> index;
      if (c.topk > 0) {
        ag::NoGradGuard no_grad;
        index = tagsl.BuildSparseGraph(x, slots, prev, c.topk).index;
      }
      const GraphRun want = RunGraph(tagsl, &encoder, x, head, x_head, e_head, [&] {
        return c.topk > 0 ? ReferenceSparseValues(tagsl, &encoder, x, slots,
                                                  prev, *index)
                          : ReferenceDenseGraph(tagsl, &encoder, x, slots,
                                                prev);
      });
      ASSERT_EQ(want.grads.size(), c.use_time ? 3u : 2u) << Describe(c);
      for (const int threads : {1, 2, 4, 8}) {
        common::ScopedNumThreads pool(threads);
        const GraphRun got =
            RunGraph(tagsl, &encoder, x, head, x_head, e_head, [&] {
              if (c.topk == 0) return tagsl.BuildGraph(x, slots, prev);
              ag::SparseGraph g = tagsl.BuildSparseGraph(x, slots, prev,
                                                         c.topk);
              EXPECT_EQ(g.index->col_ids, index->col_ids) << Describe(c);
              return g.values;
            });
        ExpectRunsEqual(got, want,
                        Describe(c) + " " + common::SimdIsaName(isa) + " " +
                            std::to_string(threads) + "t");
      }
      // Eval / serving: the tape-free node gives the same values.
      ag::NoGradGuard no_grad;
      const Variable graph =
          c.topk > 0 ? tagsl.BuildSparseGraph(x, slots, prev, c.topk).values
                     : tagsl.BuildGraph(x, slots, prev);
      EXPECT_FALSE(graph.needs_grad());
      ExpectBitwiseEqual(graph.value(), want.graph,
                         Describe(c) + " no-grad");
    }
  }
}

TEST(TagSLTest, RawGraphMatchesReferenceBitwise) {
  for (const bool use_time : {true, false}) {
    for (const bool use_pdf : {true, false}) {
      Rng rng(950);
      core::DiscreteTimeEmbedding encoder(24, 4, &rng);
      core::TagSL::Options options;
      options.num_nodes = 7;
      options.node_dim = 4;
      options.use_time = use_time;
      options.use_pdf = use_pdf;
      core::TagSL tagsl(options, &encoder, &rng);
      const Variable x(Tensor::RandUniform({2, 7, 3}, -1, 1, &rng));
      const std::vector<int64_t> slots = {4, 9};
      const std::vector<int64_t> prev = {3, 8};
      // The chain without its relu and softmax.
      Variable base = ag::Unsqueeze(
          ag::Matmul(tagsl.node_embedding(),
                     ag::Transpose(tagsl.node_embedding(), 0, 1)),
          0);
      if (use_time) {
        base = ag::Add(base,
                       ag::Unsqueeze(ReferenceEta(encoder, slots, prev), 2));
      }
      if (use_pdf) {
        Variable a_rho = ag::Tanh(ag::MulScalar(
            ag::Matmul(x, ag::Transpose(x, -2, -1)), 1.0f / std::sqrt(3.0f)));
        base = ag::Mul(
            ag::AddScalar(ag::MulScalar(ag::Sigmoid(a_rho), 0.3f), 1.0f),
            base);
      } else {
        base = ag::BroadcastTo(base, {2, 7, 7});
      }
      const Variable raw = tagsl.BuildRawGraph(x, slots, prev);
      EXPECT_FALSE(raw.needs_grad());
      ExpectBitwiseEqual(raw.value(), base.value(),
                         std::string("raw") + (use_time ? " time" : "") +
                             (use_pdf ? " pdf" : ""));
    }
  }
}

TEST(TagSLTest, FusedGraphIsOneAutogradNode) {
  Rng rng(960);
  core::DiscreteTimeEmbedding encoder(24, 4, &rng);
  core::TagSL::Options options;
  options.num_nodes = 9;
  options.node_dim = 4;
  core::TagSL tagsl(options, &encoder, &rng);
  const Variable x(Tensor::RandUniform({2, 9, 2}, -1, 1, &rng), true);
  ag::StepArenaScope arena;
  // The dense graph is A_nu (Matmul, Transpose), eta (two lookups, Mul,
  // Sum, MulScalar) and the fused node; top-k has no A_nu.
  int64_t before = ag::internal::ThreadGraphArenaStats().live_nodes;
  Variable dense = tagsl.BuildGraph(x, {1, 2}, {0, 1});
  EXPECT_EQ(ag::internal::ThreadGraphArenaStats().live_nodes - before, 8);
  before = ag::internal::ThreadGraphArenaStats().live_nodes;
  ag::SparseGraph sparse = tagsl.BuildSparseGraph(x, {1, 2}, {0, 1}, 3);
  EXPECT_EQ(ag::internal::ThreadGraphArenaStats().live_nodes - before, 6);
  EXPECT_TRUE(dense.needs_grad());
  EXPECT_TRUE(sparse.values.needs_grad());
}

// Finite differences through the node's backward. E_nu is kept positive
// so A_nu + eta stays clear of the relu kink, and top-k keeps every
// column so a perturbation cannot change the kept set.
void GradcheckGraph(bool sparse, bool use_pdf) {
  Rng rng(sparse ? 971 : 970);
  core::DiscreteTimeEmbedding encoder(24, 3, &rng);
  core::TagSL::Options options;
  options.num_nodes = 4;
  options.node_dim = 3;
  options.alpha = 0.8f;
  options.use_pdf = use_pdf;
  core::TagSL tagsl(options, &encoder, &rng);
  Variable embed = tagsl.node_embedding();
  embed.SetValue(Tensor::RandUniform(embed.shape(), 0.5, 1.0, &rng));
  // Without PDF the graph does not read x's values.
  const Variable x(Tensor::RandUniform({2, 4, 3}, -1, 1, &rng), use_pdf);
  const Shape shape = sparse ? Shape{2, 16} : Shape{2, 4, 4};
  const Variable head(Tensor::RandUniform(shape, -1, 1, &rng));
  std::vector<Variable> inputs = {x, embed};
  for (const Variable& p : encoder.Parameters()) inputs.push_back(p);
  testing::ExpectGradientsClose(
      [&](const std::vector<Variable>& v) {
        Variable graph = sparse
                             ? tagsl.BuildSparseGraph(v[0], {1, 5}, {0, 4}, 4)
                                   .values
                             : tagsl.BuildGraph(v[0], {1, 5}, {0, 4});
        return ag::SumAll(ag::Mul(graph, head));
      },
      inputs, 1e-2f, 2e-2f, 2e-3f);
}

TEST(TagSLTest, FusedGraphGradcheckDense) {
  GradcheckGraph(/*sparse=*/false, /*use_pdf=*/true);
  GradcheckGraph(/*sparse=*/false, /*use_pdf=*/false);
}

TEST(TagSLTest, FusedGraphGradcheckSparse) {
  GradcheckGraph(/*sparse=*/true, /*use_pdf=*/true);
  GradcheckGraph(/*sparse=*/true, /*use_pdf=*/false);
}

}  // namespace
}  // namespace tgcrn
