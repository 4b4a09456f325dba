// Copyright 2026 TGCRN Reproduction Authors
// The sparse learned-graph execution path end to end: CSR round-trips and
// top-k tie-break determinism (graph/csr.h), SpMM-vs-masked-dense
// differential fuzz and gradchecks (tensor/kernels/spmm.h,
// autograd/sparse_ops.h), TagSL's sparse builder against the dense
// reference, and dense-vs-sparse training parity at small N with a
// generous k (the TGCRN_GRAPH_TOPK acceptance bar).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/sparse_ops.h"
#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "core/tagsl.h"
#include "core/tgcrn.h"
#include "core/trainer.h"
#include "core/time_encoders.h"
#include "datagen/metro_sim.h"
#include "graph/csr.h"
#include "gradcheck.h"
#include "obs/prof.h"
#include "tensor/kernels/spmm.h"

namespace tgcrn {
namespace {

using ag::Variable;
using common::ScopedNumThreads;
using testing::ExpectGradientsClose;

std::vector<common::SimdIsa> AvailableIsas() {
  std::vector<common::SimdIsa> isas = {common::SimdIsa::kScalar};
  if (common::Avx2CompiledIn() && common::CpuSupportsAvx2()) {
    isas.push_back(common::SimdIsa::kAvx2);
  }
  return isas;
}

// Random batch of row-stochastic matrices (softmax of uniform logits).
Tensor RandomAdjacency(int64_t batch, int64_t n, uint64_t seed) {
  Rng rng(seed);
  Variable logits(Tensor::RandUniform({batch, n, n}, -2.0f, 2.0f, &rng));
  return ag::Softmax(logits, -1).value();
}

// --- Selection oracles -----------------------------------------------------

// The sort-based selector the streaming TopKRow replaced: nth_element over
// all n ids under (value desc, index asc), then the kept ids ascending.
std::vector<int64_t> ReferenceTopKRow(const float* row, int64_t n,
                                      int64_t k) {
  k = std::min(k, n);
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), int64_t{0});
  const auto better = [row](int64_t a, int64_t b) {
    if (row[a] != row[b]) return row[a] > row[b];
    return a < b;
  };
  if (k < n) std::nth_element(order.begin(), order.begin() + k - 1,
                              order.end(), better);
  order.resize(static_cast<size_t>(k));
  std::sort(order.begin(), order.end());
  return order;
}

std::vector<int64_t> TopKRowIds(const std::vector<float>& row, int64_t k) {
  const int64_t n = static_cast<int64_t>(row.size());
  std::vector<int64_t> out(static_cast<size_t>(std::min(k, n)));
  graph::TopKRow(row.data(), n, k, out.data());
  return out;
}

// The full-scan selection oracle: per 256-row block and batch item,
// whole-tensor ops build the raw scores of every pair (Eq 6-9), relu
// them, and select each row with the reference selector, once per k in
// `ks`. Returns the kept column ids in CsrIndex::col_ids layout, one
// vector per k.
std::vector<std::vector<int64_t>> ReferenceSelectTopK(
    const core::TagSL& tagsl, const core::TimeEncoder* encoder,
    const Variable& x_t, const std::vector<int64_t>& slots,
    const std::vector<int64_t>& prev, const std::vector<int64_t>& ks) {
  constexpr int64_t kBlockRows = 256;
  const core::TagSL::Options& options = tagsl.options();
  const int64_t batch = x_t.size(0);
  const int64_t n = options.num_nodes;
  const float pdf_scale =
      1.0f / std::sqrt(static_cast<float>(x_t.size(2)));
  ag::NoGradGuard no_grad;
  Tensor eta;
  if (options.use_time) {
    eta = ag::MulScalar(ag::Sum(ag::Mul(encoder->Encode(slots),
                                        encoder->Encode(prev)),
                                1, /*keepdim=*/true),
                        1.0f / static_cast<float>(encoder->dim()))
              .value();
  }
  const Tensor node_embed = tagsl.node_embedding().value();
  const Tensor x = x_t.value();
  std::vector<std::vector<int64_t>> col_ids;
  for (const int64_t k : ks) {
    const int64_t kept = std::min<int64_t>(std::max<int64_t>(k, 1), n);
    col_ids.emplace_back(static_cast<size_t>(batch * n * kept));
  }
  for (int64_t r0 = 0; r0 < n; r0 += kBlockRows) {
    const int64_t r1 = std::min<int64_t>(n, r0 + kBlockRows);
    const Tensor a_nu_blk =
        node_embed.Slice(0, r0, r1).MatmulTransposeB(node_embed);
    for (int64_t b = 0; b < batch; ++b) {
      Tensor score = a_nu_blk;
      if (options.use_time) score = score.AddScalar(eta.flat(b));
      if (options.use_pdf) {
        const Tensor xb = x.Slice(0, b, b + 1).Squeeze(0);
        const Tensor gate = xb.Slice(0, r0, r1)
                                .MatmulTransposeB(xb)
                                .MulScalar(pdf_scale)
                                .Tanh()
                                .Sigmoid()
                                .MulScalar(options.alpha)
                                .AddScalar(1.0f);
        score = gate.Mul(score);
      }
      const Tensor clipped = score.Relu();
      for (size_t i = 0; i < ks.size(); ++i) {
        const int64_t kept = std::min<int64_t>(std::max<int64_t>(ks[i], 1), n);
        for (int64_t r = r0; r < r1; ++r) {
          const std::vector<int64_t> ids =
              ReferenceTopKRow(clipped.data() + (r - r0) * n, n, kept);
          std::copy(ids.begin(), ids.end(),
                    col_ids[i].begin() + (b * n + r) * kept);
        }
      }
    }
  }
  return col_ids;
}

// Selects with `tagsl` for every k in `ks` under every ISA at 1/2/4/8
// pool threads and asserts the kept ids equal the oracle's bitwise.
void ExpectSelectionMatchesOracle(const core::TagSL& tagsl,
                                  const core::TimeEncoder* encoder,
                                  const Variable& x,
                                  const std::vector<int64_t>& slots,
                                  const std::vector<int64_t>& prev,
                                  const std::vector<int64_t>& ks,
                                  const std::string& label) {
  for (const auto isa : AvailableIsas()) {
    common::ScopedSimdIsa pin(isa);
    const std::vector<std::vector<int64_t>> expected =
        ReferenceSelectTopK(tagsl, encoder, x, slots, prev, ks);
    for (size_t i = 0; i < ks.size(); ++i) {
      for (const int threads : {1, 2, 4, 8}) {
        ScopedNumThreads guard(threads);
        const ag::SparseGraph sparse =
            tagsl.BuildSparseGraph(x, slots, prev, ks[i]);
        ASSERT_EQ(sparse.index->col_ids, expected[i])
            << label << " k=" << ks[i] << " isa="
            << common::SimdIsaName(isa) << " threads=" << threads;
      }
    }
  }
}

// --- CSR structure ----------------------------------------------------------

TEST(TopKRowTest, TieBreaksOnLowerIndex) {
  const std::vector<float> row = {1.0f, 3.0f, 3.0f, 0.0f, 3.0f};
  EXPECT_EQ(TopKRowIds(row, 2), (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(TopKRowIds(row, 4), (std::vector<int64_t>{0, 1, 2, 4}));
  const std::vector<float> flat(6, 0.5f);  // fully tied row
  EXPECT_EQ(TopKRowIds(flat, 3), (std::vector<int64_t>{0, 1, 2}));
}

TEST(TopKRowTest, MatchesSortOracleOnAdversarialRows) {
  Rng rng(71);
  // Row generators: random, heavily tied, all zero, signed-zero mixes
  // (-0.0 == +0.0, so they tie and break on the index), ascending (every
  // column displaces the heap root), descending, and relu-clipped.
  const std::vector<std::function<float(int64_t, int64_t)>> rows = {
      [&](int64_t, int64_t) { return rng.Uniform(-1.0f, 1.0f); },
      [&](int64_t, int64_t) {
        return static_cast<float>(rng.NextUint64() % 3);
      },
      [](int64_t, int64_t) { return 0.0f; },
      [&](int64_t, int64_t) {
        const uint64_t r = rng.NextUint64() % 3;
        return r == 0 ? -0.0f : r == 1 ? 0.0f : 1.0f;
      },
      [](int64_t j, int64_t) { return static_cast<float>(j); },
      [](int64_t j, int64_t n) { return static_cast<float>(n - j); },
      [&](int64_t, int64_t) {
        return std::max(0.0f, rng.Uniform(-1.0f, 0.2f));
      },
  };
  for (const int64_t n : {1, 2, 7, 16, 33, 257}) {
    for (const int64_t k : {int64_t{1}, int64_t{2}, int64_t{5}, n - 1, n,
                            n + 3}) {
      if (k < 1) continue;
      for (size_t g = 0; g < rows.size(); ++g) {
        for (int trial = 0; trial < 4; ++trial) {
          std::vector<float> row(static_cast<size_t>(n));
          for (int64_t j = 0; j < n; ++j) row[j] = rows[g](j, n);
          ASSERT_EQ(TopKRowIds(row, k), ReferenceTopKRow(row.data(), n, k))
              << "n=" << n << " k=" << k << " generator " << g;
        }
      }
    }
  }
}

TEST(SparsifyTopKTest, RoundTripKeepsRenormalizedTopK) {
  const int64_t batch = 3, n = 7, k = 3;
  const Tensor dense = RandomAdjacency(batch, n, 11);
  graph::CsrBatch csr = graph::SparsifyTopK(dense, k);
  csr.index->Validate();
  EXPECT_EQ(csr.index->nnz(), n * k);
  EXPECT_EQ(csr.values.shape(), (Shape{batch, n * k}));

  const Tensor back = graph::CsrToDense(csr);
  const float* src = dense.data();
  const float* got = back.data();
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t r = 0; r < n; ++r) {
      // Reference: renormalize the k largest entries of the row.
      std::vector<int64_t> ids(k);
      const float* row = src + (b * n + r) * n;
      graph::TopKRow(row, n, k, ids.data());
      float sum = 0.0f;
      for (int64_t s = 0; s < k; ++s) sum += row[ids[s]];
      float row_sum = 0.0f;
      for (int64_t j = 0; j < n; ++j) {
        const float v = got[(b * n + r) * n + j];
        const bool kept =
            std::find(ids.begin(), ids.end(), j) != ids.end();
        if (!kept) {
          EXPECT_EQ(v, 0.0f);
          continue;
        }
        EXPECT_NEAR(v, row[j] / sum, 1e-6f);
        row_sum += v;
      }
      EXPECT_NEAR(row_sum, 1.0f, 1e-5f);  // rows stay stochastic
    }
  }
}

TEST(SparsifyTopKTest, TransposeListsAreConsistent) {
  const Tensor dense = RandomAdjacency(2, 9, 5);
  graph::CsrBatch csr = graph::SparsifyTopK(dense, 4);
  graph::CsrIndex& index = *csr.index;
  index.BuildTranspose();
  ASSERT_TRUE(index.has_transpose());
  const int64_t nnz = index.nnz();
  for (int64_t b = 0; b < index.batch; ++b) {
    const int64_t* offs = index.t_offsets.data() + b * (index.cols + 1);
    const int64_t* slots = index.t_slots.data() + b * nnz;
    EXPECT_EQ(offs[index.cols], nnz);  // every slot appears exactly once
    for (int64_t c = 0; c < index.cols; ++c) {
      for (int64_t i = offs[c]; i < offs[c + 1]; ++i) {
        const int64_t s = slots[i];
        EXPECT_EQ(index.col_ids[b * nnz + s], c);
        if (i > offs[c]) {
          EXPECT_LT(slots[i - 1], s);  // slot-ascending
        }
      }
    }
  }
}

TEST(SparsifyTopKTest, BitwiseIdenticalAcrossThreads) {
  auto make = [] {
    graph::CsrBatch csr = graph::SparsifyTopK(RandomAdjacency(4, 33, 17), 5);
    return graph::CsrToDense(csr);
  };
  ScopedNumThreads guard1(1);
  const Tensor reference = make();
  for (const int threads : {2, 4, 8}) {
    ScopedNumThreads guard(threads);
    const Tensor got = make();
    ASSERT_EQ(std::memcmp(got.data(), reference.data(),
                          static_cast<size_t>(got.numel()) * sizeof(float)),
              0)
        << "SparsifyTopK differs at " << threads << " threads";
  }
}

// --- SpMM vs masked dense ---------------------------------------------------

TEST(SpmmCsrTest, MatchesMaskedDenseReference) {
  for (const auto isa : AvailableIsas()) {
    common::ScopedSimdIsa pin(isa);
    uint64_t seed = 100;
    for (const auto& dims : std::vector<std::vector<int64_t>>{
             {1, 5, 3, 2}, {2, 16, 8, 4}, {3, 33, 17, 9}, {2, 64, 7, 32}}) {
      const int64_t batch = dims[0], n = dims[1], c = dims[2], k = dims[3];
      graph::CsrBatch csr =
          graph::SparsifyTopK(RandomAdjacency(batch, n, seed), k);
      Rng rng(seed + 1);
      Variable x(Tensor::RandUniform({batch, n, c}, -1.0f, 1.0f, &rng));
      ag::SparseGraph sg;
      sg.index = csr.index;
      sg.values = Variable(csr.values.Clone());
      const Tensor sparse_out = ag::SpmmCsr(sg, x).value();
      // Masked-dense reference: the densified CSR through batched matmul.
      const Tensor dense_out =
          ag::Matmul(Variable(graph::CsrToDense(csr)), x).value();
      // Ulp-scaled bound: each output element accumulates k products of
      // row-stochastic weights against |x| <= 1, so the reference scale
      // is O(1); FMA contraction and accumulation-order differences stay
      // within a few ulps of that scale per term.
      const float tol =
          16.0f * static_cast<float>(k) *
          std::numeric_limits<float>::epsilon();
      ASSERT_EQ(sparse_out.shape(), dense_out.shape());
      for (int64_t i = 0; i < sparse_out.numel(); ++i) {
        ASSERT_NEAR(sparse_out.flat(i), dense_out.flat(i), tol)
            << "isa=" << common::SimdIsaName(isa) << " dims b=" << batch
            << " n=" << n << " c=" << c << " k=" << k << " elem " << i;
      }
      seed += 7;
    }
  }
}

TEST(SpmmCsrTest, GradcheckValuesAndFeatures) {
  const int64_t batch = 2, n = 5, c = 3, k = 2;
  graph::CsrBatch csr = graph::SparsifyTopK(RandomAdjacency(batch, n, 3), k);
  auto index = csr.index;
  Rng rng(4);
  const Tensor weight =
      Tensor::RandUniform({batch, n, c}, -1.0f, 1.0f, &rng);
  auto fn = [&](const std::vector<Variable>& in) {
    ag::SparseGraph sg;
    sg.index = index;
    sg.values = in[0];
    return ag::SumAll(ag::Mul(ag::SpmmCsr(sg, in[1]), Variable(weight)));
  };
  Variable values(csr.values.Clone(), /*requires_grad=*/true);
  Rng rng2(5);
  Variable x(Tensor::RandUniform({batch, n, c}, -1.0f, 1.0f, &rng2),
             /*requires_grad=*/true);
  ExpectGradientsClose(fn, {values, x});
}

// --- AVX2 SpMM kernels vs the per-slot FMA loop -----------------------------

// A batch-1 CSR structure with ragged rows: row r keeps a random subset of
// the columns (ascending), row 3 keeps all of them, rows 0 and 5 keep
// none, and column 2 is never kept, so the kernels meet rows with no
// slots, columns with no incoming slot, and eight-slot groups inside one
// row as well as across rows.
graph::CsrIndex RaggedIndex(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  graph::CsrIndex index;
  index.batch = 1;
  index.rows = rows;
  index.cols = cols;
  index.row_offsets.push_back(0);
  for (int64_t r = 0; r < rows; ++r) {
    if (r != 0 && r != 5) {
      for (int64_t col = 0; col < cols; ++col) {
        if (col != 2 && (r == 3 || rng.NextDouble() < 0.4)) {
          index.col_ids.push_back(col);
          index.slot_rows.push_back(r);
        }
      }
    }
    index.row_offsets.push_back(static_cast<int64_t>(index.col_ids.size()));
  }
  index.Validate();
  index.BuildTranspose();
  return index;
}

std::vector<float> RandomFloats(int64_t n, Rng* rng) {
  std::vector<float> out(static_cast<size_t>(n));
  for (float& v : out) v = rng->Uniform(-1.0f, 1.0f);
  return out;
}

// The per-slot AVX2 loop, one lane at a time: out[j] starts at +0 and
// takes one fused multiply-add per slot in ascending slot order.
void ReferenceFmaRow(const std::vector<std::pair<float, const float*>>& terms,
                     int64_t c, float* out) {
  for (int64_t j = 0; j < c; ++j) {
    float acc = 0.0f;
    for (const auto& [v, src] : terms) acc = std::fma(v, src[j], acc);
    out[j] = acc;
  }
}

// The per-slot value-gradient loop: lane l of an 8-lane accumulator
// collects elements l, l + 8, ... as one FMA chain from +0 (a masked tail
// lane fuses 0 * 0), then the fixed HSum tree
// ((a0 + a4) + (a2 + a6)) + ((a1 + a5) + (a3 + a7)).
float ReferenceSlotDot(const float* g, const float* x, int64_t c) {
  float lane[8] = {};
  for (int64_t j0 = 0; j0 < c; j0 += 8) {
    for (int64_t l = 0; l < 8; ++l) {
      const bool in = j0 + l < c;
      lane[l] = std::fma(in ? g[j0 + l] : 0.0f, in ? x[j0 + l] : 0.0f,
                         lane[l]);
    }
  }
  return ((lane[0] + lane[4]) + (lane[2] + lane[6])) +
         ((lane[1] + lane[5]) + (lane[3] + lane[7]));
}

::testing::AssertionResult BitwiseEqual(const float* got, const float* want,
                                        int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    if (std::memcmp(got + i, want + i, sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << ": got " << got[i] << ", want " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// Every AVX2 SpMM kernel equals its per-slot reference bitwise at every
// width c = 1..40 (full blocks, masked tails, one and two column passes),
// with the forward output at ldo = c and 2c, called over whole and split
// row / column / slot ranges.
TEST(SpmmKernelTest, Avx2MatchesPerSlotFmaLoopBitwise) {
  if (!(common::Avx2CompiledIn() && common::CpuSupportsAvx2())) {
    GTEST_SKIP() << "AVX2 not available in this build/CPU";
  }
  const spmm::Kernels& kern = spmm::GetKernels(common::SimdIsa::kAvx2);
  const int64_t rows = 13, cols = 19;
  const graph::CsrIndex index = RaggedIndex(rows, cols, 91);
  const int64_t nnz = index.nnz();
  ASSERT_GT(nnz, 16);
  Rng rng(92);
  const std::vector<float> values = RandomFloats(nnz, &rng);
  const float sentinel = -7.25f;
  for (int64_t c = 1; c <= 40; ++c) {
    const std::vector<float> x = RandomFloats(cols * c, &rng);
    const std::vector<float> g = RandomFloats(rows * c, &rng);

    for (const int64_t ldo : {c, 2 * c}) {
      std::vector<float> want(static_cast<size_t>(rows * ldo), sentinel);
      for (int64_t r = 0; r < rows; ++r) {
        std::vector<std::pair<float, const float*>> terms;
        for (int64_t s = index.row_offsets[r]; s < index.row_offsets[r + 1];
             ++s) {
          terms.emplace_back(values[s], x.data() + index.col_ids[s] * c);
        }
        ReferenceFmaRow(terms, c, want.data() + r * ldo);
      }
      for (const int64_t split : {rows, int64_t{6}}) {
        std::vector<float> got(static_cast<size_t>(rows * ldo), sentinel);
        kern.spmm_rows(index.row_offsets.data(), index.col_ids.data(),
                       values.data(), x.data(), 0, split, c, got.data(), ldo);
        kern.spmm_rows(index.row_offsets.data(), index.col_ids.data(),
                       values.data(), x.data(), split, rows, c, got.data(),
                       ldo);
        ASSERT_TRUE(BitwiseEqual(got.data(), want.data(), rows * ldo))
            << "spmm_rows c=" << c << " ldo=" << ldo << " split=" << split;
      }
    }

    std::vector<float> want_gx(static_cast<size_t>(cols * c));
    for (int64_t col = 0; col < cols; ++col) {
      std::vector<std::pair<float, const float*>> terms;
      for (int64_t i = index.t_offsets[col]; i < index.t_offsets[col + 1];
           ++i) {
        const int64_t s = index.t_slots[i];
        terms.emplace_back(values[s], g.data() + index.slot_rows[s] * c);
      }
      ReferenceFmaRow(terms, c, want_gx.data() + col * c);
    }
    for (const int64_t split : {cols, int64_t{3}}) {
      std::vector<float> got(static_cast<size_t>(cols * c), sentinel);
      kern.spmm_t_cols(index.t_offsets.data(), index.t_slots.data(),
                       index.slot_rows.data(), values.data(), g.data(), 0,
                       split, c, got.data());
      kern.spmm_t_cols(index.t_offsets.data(), index.t_slots.data(),
                       index.slot_rows.data(), values.data(), g.data(), split,
                       cols, c, got.data());
      ASSERT_TRUE(BitwiseEqual(got.data(), want_gx.data(), cols * c))
          << "spmm_t_cols c=" << c << " split=" << split;
    }

    std::vector<float> want_gv(static_cast<size_t>(nnz));
    for (int64_t s = 0; s < nnz; ++s) {
      want_gv[s] = ReferenceSlotDot(g.data() + index.slot_rows[s] * c,
                                    x.data() + index.col_ids[s] * c, c);
    }
    for (const int64_t split : {nnz, int64_t{3}}) {
      std::vector<float> got(static_cast<size_t>(nnz), sentinel);
      kern.spmm_grad_values(index.slot_rows.data(), index.col_ids.data(),
                            g.data(), x.data(), 0, split, c, got.data());
      kern.spmm_grad_values(index.slot_rows.data(), index.col_ids.data(),
                            g.data(), x.data(), split, nnz, c, got.data());
      ASSERT_TRUE(BitwiseEqual(got.data(), want_gv.data(), nnz))
          << "spmm_grad_values c=" << c << " split=" << split;
    }
  }
}

// --- SparsifyTopK as an autograd op ----------------------------------------

TEST(SparsifyTopKOpTest, GradcheckOnKeptEntries) {
  // Well-separated entries so finite-difference probes never flip the
  // selection.
  const Tensor dense = Tensor::FromVector(
      {1, 3, 3}, {0.9f, 0.2f, 0.5f, 0.1f, 0.7f, 0.4f, 0.6f, 0.3f, 0.8f});
  Rng rng(6);
  const Tensor weight = Tensor::RandUniform({1, 6}, -1.0f, 1.0f, &rng);
  auto fn = [&](const std::vector<Variable>& in) {
    return ag::SumAll(
        ag::Mul(ag::SparsifyTopK(in[0], 2).values, Variable(weight)));
  };
  Variable leaf(dense.Clone(), /*requires_grad=*/true);
  ExpectGradientsClose(fn, {leaf}, /*eps=*/1e-3f, /*rtol=*/5e-2f,
                       /*atol=*/5e-2f);
}

TEST(SparsifyTopKOpTest, DroppedEntriesGetExactlyZeroGradient) {
  const int64_t batch = 2, n = 6, k = 2;
  Variable dense(RandomAdjacency(batch, n, 21), /*requires_grad=*/true);
  ag::SparseGraph sg = ag::SparsifyTopK(dense, k);
  ag::SumAll(ag::Mul(sg.values, sg.values)).Backward();
  ASSERT_TRUE(dense.has_grad());
  const Tensor grad = dense.grad();
  const int64_t nnz = sg.index->nnz();
  int64_t nonzero = 0;
  for (int64_t b = 0; b < batch; ++b) {
    std::vector<bool> kept(n * n, false);
    for (int64_t s = 0; s < nnz; ++s) {
      kept[sg.index->slot_rows[s] * n + sg.index->col_ids[b * nnz + s]] =
          true;
    }
    for (int64_t i = 0; i < n * n; ++i) {
      const float g = grad.flat(b * n * n + i);
      if (!kept[i]) {
        // The sparse-training contract: bitwise zero, not merely small.
        ASSERT_EQ(g, 0.0f) << "dropped entry " << i << " got gradient";
      } else if (g != 0.0f) {
        ++nonzero;
      }
    }
  }
  EXPECT_GT(nonzero, 0);  // kept entries do train
}

// --- TagSL sparse builder vs dense reference --------------------------------

TEST(TagSLSparseTest, MatchesDenseTopKSelectionAndValues) {
  // Scalar ISA: the blocked selection scan and the dense batched path
  // compute bit-identical scores, so the kept sets must match exactly.
  common::ScopedSimdIsa pin(common::SimdIsa::kScalar);
  const int64_t batch = 3, n = 10, c = 4, k = 4, spd = 24, d_tau = 6;
  Rng rng(31);
  core::DiscreteTimeEmbedding encoder(spd, d_tau, &rng);
  core::TagSL::Options options;
  options.num_nodes = n;
  options.node_dim = 5;
  core::TagSL tagsl(options, &encoder, &rng);

  Rng data_rng(32);
  Variable x(Tensor::RandUniform({batch, n, c}, -1.0f, 1.0f, &data_rng));
  const std::vector<int64_t> slots = {3, 11, 19};
  const std::vector<int64_t> prev = {2, 10, 18};

  const Tensor dense = tagsl.BuildGraph(x, slots, prev).value();
  graph::CsrBatch reference = graph::SparsifyTopK(dense, k);
  ag::SparseGraph sparse = tagsl.BuildSparseGraph(x, slots, prev, k);

  ASSERT_EQ(sparse.index->col_ids, reference.index->col_ids);
  const Tensor got = sparse.values.value();
  for (int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_NEAR(got.flat(i), reference.values.flat(i), 1e-5f)
        << "kept-edge value " << i;
  }
}

TEST(TagSLSparseTest, FusedSelectionMatchesBlockOracleBitwise) {
  // The bound-pruned walk against the full-scan oracle: N not a multiple
  // of the prefix tile, k from 1 to N, the time and PDF terms on and off,
  // every ISA and pool width. k = N keeps every column without scoring
  // any; it runs at N <= 300 only, because past that the B*N^2 kept-edge
  // logits of stage 2 dominate the test's time. N = 4096 keeps two of
  // the four term settings to bound the oracle's time.
  struct Case {
    int64_t n;
    bool use_time;
    bool use_pdf;
  };
  std::vector<Case> cases;
  for (const int64_t n : {37, 300, 1024}) {
    for (const bool use_time : {true, false}) {
      for (const bool use_pdf : {true, false}) {
        cases.push_back({n, use_time, use_pdf});
      }
    }
  }
  cases.push_back({4096, true, true});
  cases.push_back({4096, false, false});
  for (const Case& tc : cases) {
    const int64_t batch = 2, c = 2, spd = 24, d_tau = 4;
    Rng rng(81 + tc.n);
    core::DiscreteTimeEmbedding encoder(spd, d_tau, &rng);
    core::TagSL::Options options;
    options.num_nodes = tc.n;
    options.node_dim = 8;
    options.use_time = tc.use_time;
    options.use_pdf = tc.use_pdf;
    core::TagSL tagsl(options, tc.use_time ? &encoder : nullptr, &rng);
    Rng data_rng(82 + tc.n);
    Variable x(
        Tensor::RandUniform({batch, tc.n, c}, -1.5f, 1.5f, &data_rng));
    std::vector<int64_t> ks = {1, 16};
    if (tc.n <= 300) ks.push_back(tc.n);
    ExpectSelectionMatchesOracle(
        tagsl, &encoder, x, {5, 17}, {4, 16}, ks,
        "N=" + std::to_string(tc.n) + " time=" +
            std::to_string(tc.use_time) + " pdf=" +
            std::to_string(tc.use_pdf));
  }
}

TEST(TagSLSparseTest, WalkMatchesOracleOnAdversarialRows) {
  const int64_t batch = 3, c = 2, spd = 10, d_tau = 4;
  // Slot s's time embedding is all v[s], so eta = v[slot] * v[slot - 1]:
  // slots 1, 3, 5 give -100 (every score 0), -1.5 and -0.5 (a few
  // positive scores per row, the rest 0); slot 7 gives 1e6 (a_nu + eta
  // rounds distinct A_nu values to one score, so equal scores arrive out
  // of index order and only a strict stop is exact); slot 9 gives 0.5.
  const float v[spd] = {1.0f, -100.0f, 1.0f,    -1.5f, 1.0f,
                        -0.5f, 1000.0f, 1000.0f, 1.0f, 0.5f};
  for (const int64_t n : {37, 300}) {
    Rng rng(90 + n);
    core::DiscreteTimeEmbedding encoder(spd, d_tau, &rng);
    Tensor table = encoder.weight().value();
    for (int64_t s = 0; s < spd; ++s) {
      for (int64_t d = 0; d < d_tau; ++d) {
        table.mutable_data()[s * d_tau + d] = v[s];
      }
    }
    Rng data_rng(91 + n);
    Variable x(Tensor::RandUniform({batch, n, c}, -1.5f, 1.5f, &data_rng));
    for (const bool use_pdf : {true, false}) {
      core::TagSL::Options options;
      options.num_nodes = n;
      options.node_dim = 8;
      options.use_pdf = use_pdf;
      const std::string label = "N=" + std::to_string(n) +
                                " pdf=" + std::to_string(use_pdf);
      {
        core::TagSL tagsl(options, &encoder, &rng);
        ExpectSelectionMatchesOracle(tagsl, &encoder, x, {1, 3, 5},
                                     {0, 2, 4}, {1, 16}, "eta<<0 " + label);
        ExpectSelectionMatchesOracle(tagsl, &encoder, x, {7, 7, 9},
                                     {6, 6, 8}, {1, 16}, "eta>>0 " + label);
      }
      // Ties: every E_nu row repeats one of 7, so each A_nu row holds 7
      // distinct values and the candidate order rests on the index.
      {
        core::TagSL tagsl(options, &encoder, &rng);
        Tensor embed = tagsl.node_embedding().value();
        for (int64_t j = 7; j < n; ++j) {
          for (int64_t d = 0; d < 8; ++d) {
            embed.mutable_data()[j * 8 + d] = embed.data()[(j % 7) * 8 + d];
          }
        }
        ExpectSelectionMatchesOracle(tagsl, &encoder, x, {9, 9, 5},
                                     {8, 8, 4}, {1, 16}, "ties " + label);
      }
      // Constant A_nu (every E_nu row equal): the ceiling never drops
      // below a kept score, so rows fall back to the full scan and the
      // candidate depth grows between calls.
      {
        core::TagSL tagsl(options, &encoder, &rng);
        Tensor embed = tagsl.node_embedding().value();
        for (int64_t j = 0; j < n * 8; ++j) embed.mutable_data()[j] = 0.25f;
        ExpectSelectionMatchesOracle(tagsl, &encoder, x, {9, 9, 9},
                                     {8, 8, 8}, {1, 16},
                                     "constant " + label);
      }
    }
  }
}

TEST(TagSLSparseTest, SelectionFollowsEmbeddingEditedInPlace) {
  // The walk's candidate order is cached per E_nu; editing one element
  // in place must invalidate it.
  const int64_t batch = 2, n = 300, c = 2, k = 16;
  Rng rng(95);
  core::DiscreteTimeEmbedding encoder(24, 4, &rng);
  core::TagSL::Options options;
  options.num_nodes = n;
  options.node_dim = 8;
  core::TagSL tagsl(options, &encoder, &rng);
  Rng data_rng(96);
  Variable x(Tensor::RandUniform({batch, n, c}, -1.5f, 1.5f, &data_rng));
  const std::vector<int64_t> slots = {5, 17}, prev = {4, 16};
  for (const auto isa : AvailableIsas()) {
    common::ScopedSimdIsa pin(isa);
    Tensor embed = tagsl.node_embedding().value();
    const std::vector<int64_t> before =
        tagsl.BuildSparseGraph(x, slots, prev, k).index->col_ids;
    // Node 123 points along node 0's embedding: column 123 now beats the
    // rest in the rows that like node 0.
    const float saved = embed.data()[123 * 8];
    embed.mutable_data()[123 * 8] = 40.0f * embed.data()[0];
    const std::vector<int64_t> after =
        tagsl.BuildSparseGraph(x, slots, prev, k).index->col_ids;
    EXPECT_NE(after, before) << common::SimdIsaName(isa);
    EXPECT_EQ(after,
              ReferenceSelectTopK(tagsl, &encoder, x, slots, prev, {k})[0])
        << common::SimdIsaName(isa);
    embed.mutable_data()[123 * 8] = saved;
    EXPECT_EQ(tagsl.BuildSparseGraph(x, slots, prev, k).index->col_ids,
              before)
        << common::SimdIsaName(isa);
  }
}

TEST(TagSLSparseTest, SelectCostChargesBuildAndVisitedCandidates) {
  // tagsl.SelectTopK's analytic cost is the prefix build (when a call
  // makes one) plus the candidates the walk scores, not B*N^2 pair
  // scores. The counts are pure functions of the inputs, so the charge
  // is identical at every pool width.
  const int64_t batch = 2, n = 1024, c = 2, k = 16, d_nu = 8;
  Rng data_rng(97);
  Variable x(Tensor::RandUniform({batch, n, c}, -1.5f, 1.5f, &data_rng));
  const std::vector<int64_t> slots = {5, 17}, prev = {4, 16};
  const auto select_flops = [&](const core::TagSL& tagsl) {
    obs::ResetProfile();
    (void)tagsl.BuildSparseGraph(x, slots, prev, k);
    for (const auto& kernel : obs::CollectProfReport().kernels) {
      if (kernel.name == "tagsl.SelectTopK") return kernel.flops;
    }
    return -1.0;
  };
  obs::ProfOptions prof;
  prof.enabled = true;
  prof.counters = false;
  obs::StartProfiling(prof);
  std::vector<double> build_calls, walk_calls;
  for (const int threads : {1, 2, 4, 8}) {
    ScopedNumThreads guard(threads);
    Rng rng(98);
    core::DiscreteTimeEmbedding encoder(24, 4, &rng);
    core::TagSL::Options options;
    options.num_nodes = n;
    options.node_dim = d_nu;
    core::TagSL tagsl(options, &encoder, &rng);
    build_calls.push_back(select_flops(tagsl));  // builds the prefix
    walk_calls.push_back(select_flops(tagsl));   // reuses it
  }
  obs::StopProfiling();
  obs::ResetProfile();
  const double dn = static_cast<double>(n);
  const double full_scan =
      static_cast<double>(batch) * dn * dn * (2.0 * d_nu + 2.0 * c + 4.0);
  EXPECT_GT(walk_calls[0], 0.0);
  EXPECT_LT(walk_calls[0], full_scan / 20.0);
  EXPECT_EQ(build_calls[0] - walk_calls[0], dn * dn * (2.0 * d_nu + 1.0));
  for (size_t i = 1; i < walk_calls.size(); ++i) {
    EXPECT_EQ(build_calls[i], build_calls[0]) << "pool width index " << i;
    EXPECT_EQ(walk_calls[i], walk_calls[0]) << "pool width index " << i;
  }
}

TEST(TagSLSparseTest, GradientsReachEmbeddingsAndEncoder) {
  const int64_t batch = 2, n = 6, c = 3, k = 3, spd = 12, d_tau = 4;
  Rng rng(41);
  core::DiscreteTimeEmbedding encoder(spd, d_tau, &rng);
  core::TagSL::Options options;
  options.num_nodes = n;
  options.node_dim = 4;
  core::TagSL tagsl(options, &encoder, &rng);
  Rng data_rng(42);
  Variable x(Tensor::RandUniform({batch, n, c}, -1.0f, 1.0f, &data_rng));
  ag::SparseGraph sg =
      tagsl.BuildSparseGraph(x, {1, 5}, {0, 4}, k);
  ag::SumAll(ag::Mul(sg.values, sg.values)).Backward();
  EXPECT_TRUE(tagsl.node_embedding().has_grad());
  EXPECT_TRUE(encoder.weight().has_grad());
}

// --- Model-level parity -----------------------------------------------------

TEST(SparseModelTest, DenseVsSparseMaeParityAtGenerousK) {
  common::ScopedSimdIsa pin(common::SimdIsa::kScalar);
  datagen::MetroSimConfig sim_config;
  sim_config.num_stations = 16;
  sim_config.num_days = 8;
  sim_config.seed = 91;
  sim_config.target_mean_inflow = 50.0;
  sim_config.keep_od_ground_truth = false;
  auto sim = datagen::SimulateMetro(sim_config);
  data::ForecastDataset::Options data_options;
  data_options.input_steps = 4;
  data_options.output_steps = 2;
  data::ForecastDataset dataset(std::move(sim.data), data_options);

  core::TGCRNConfig config;
  config.num_nodes = 16;
  config.horizon = 2;
  config.hidden_dim = 8;
  config.num_layers = 1;
  config.node_embed_dim = 6;
  config.time_embed_dim = 4;
  config.steps_per_day = 72;

  auto run = [&](int64_t topk) {
    Rng rng(7);
    core::TGCRN model(config, &rng);
    core::TrainConfig train;
    train.epochs = 2;
    train.batch_size = 8;
    train.max_batches_per_epoch = 10;
    train.seed = 7;
    train.num_threads = 1;
    train.verbose = false;
    train.graph_topk = topk;
    return core::TrainAndEvaluate(&model, dataset, train);
  };
  const auto dense = run(0);
  // k == N keeps every edge: the sparse path is the same model routed
  // through CSR SpMM and the gather-recompute softmax.
  const auto sparse = run(16);
  const double rel = std::abs(sparse.average.mae - dense.average.mae) /
                     std::max(dense.average.mae, 1e-9);
  EXPECT_LT(rel, 0.01) << "dense mae=" << dense.average.mae
                       << " sparse mae=" << sparse.average.mae;
}

}  // namespace
}  // namespace tgcrn
