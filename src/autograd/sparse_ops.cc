// Copyright 2026 TGCRN Reproduction Authors
#include "autograd/sparse_ops.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "tensor/kernels/spmm.h"

namespace tgcrn {
namespace ag {
namespace {

// Flop budget per ParallelFor chunk, mirroring the batched-matmul driver
// (tensor/tensor.cc). Grain only moves chunk boundaries between disjoint
// row/column/slot ranges, so it never affects results.
constexpr int64_t kSpmmGrainFlops = 4096;

int64_t RowGrain(int64_t per_row_flops) {
  return std::max<int64_t>(1,
                           kSpmmGrainFlops / std::max<int64_t>(1, per_row_flops));
}

// Runs `fn(b, lo, hi)` over disjoint per-item ranges covering
// batch x [0, per_item): chunks from ParallelFor are split at item
// boundaries so each kernel call addresses one batch item.
template <typename Fn>
void ParallelForItems(int64_t batch, int64_t per_item, int64_t grain, Fn fn) {
  common::ParallelFor(0, batch * per_item, grain, [&](int64_t g0, int64_t g1) {
    int64_t g = g0;
    while (g < g1) {
      const int64_t b = g / per_item;
      const int64_t lo = g % per_item;
      const int64_t hi = std::min<int64_t>(per_item, lo + (g1 - g));
      fn(b, lo, hi);
      g += hi - lo;
    }
  });
}

}  // namespace

SparseGraph SparsifyTopK(const Variable& dense, int64_t k) {
  graph::CsrBatch csr = graph::SparsifyTopK(dense.value(), k);
  std::shared_ptr<graph::CsrIndex> index = csr.index;
  auto dn = dense.node();
  SparseGraph out;
  out.index = index;
  out.values = MakeOpNode(
      std::move(csr.values), {dense}, [dn, index](const Tensor& g) {
        if (!dn->needs_grad) return;
        TGCRN_TRACE_SCOPE("graph.SparsifyTopKBackward");
        const Tensor& a = dn->value;
        const int64_t nnz = index->nnz();
        const int64_t rows = index->rows;
        const int64_t cols = index->cols;
        const int64_t batch = index->batch;
        const int64_t kept = nnz / std::max<int64_t>(1, rows);
        obs::RecordKernelCost(
            "graph.SparsifyTopKBackward",
            5.0 * static_cast<double>(batch) * static_cast<double>(nnz),
            4.0 * (static_cast<double>(a.numel()) +
                   2.0 * static_cast<double>(batch) *
                       static_cast<double>(nnz)) +
                8.0 * static_cast<double>(batch) * static_cast<double>(nnz));
        Tensor ga = Tensor::Zeros(a.shape());
        const float* av = a.data();
        const float* gv = g.data();
        float* out_g = ga.mutable_data();
        ParallelForItems(
            batch, rows, RowGrain(4 * kept), [&](int64_t b, int64_t r0,
                                                 int64_t r1) {
              const int64_t* ids = index->col_ids.data() + b * nnz;
              for (int64_t r = r0; r < r1; ++r) {
                const float* arow = av + (b * rows + r) * cols;
                float* grow = out_g + (b * rows + r) * cols;
                const int64_t s0 = index->row_offsets[r];
                const int64_t s1 = index->row_offsets[r + 1];
                float sum = 0.0f;
                for (int64_t s = s0; s < s1; ++s) sum += arow[ids[s]];
                if (sum <= 0.0f) continue;  // uniform fallback row: constant
                const float inv = 1.0f / sum;
                float dot = 0.0f;  // sum_s g_s * v_s, v_s = a_s / sum
                for (int64_t s = s0; s < s1; ++s) {
                  dot += gv[b * nnz + s] * arow[ids[s]] * inv;
                }
                for (int64_t s = s0; s < s1; ++s) {
                  grow[ids[s]] = (gv[b * nnz + s] - dot) * inv;
                }
              }
            });
        dn->AccumulateGrad(ga);
      });
  return out;
}

void SpmmCsrRows(const graph::CsrIndex& index, const Tensor& values,
                 const Tensor& x, float* out, int64_t ldo) {
  TGCRN_TRACE_SCOPE("spmm.SpmmCsr");
  const int64_t batch = index.batch;
  const int64_t rows = index.rows;
  const int64_t cols = index.cols;
  const int64_t nnz = index.nnz();
  const int64_t c = x.size(2);
  const int64_t kept = nnz / std::max<int64_t>(1, rows);
  obs::RecordKernelCost(
      "spmm.SpmmCsr",
      2.0 * static_cast<double>(batch) * static_cast<double>(nnz) *
          static_cast<double>(c),
      4.0 * (static_cast<double>(batch) * static_cast<double>(nnz) *
                 static_cast<double>(c) +
             static_cast<double>(batch) * static_cast<double>(rows) *
                 static_cast<double>(c) +
             static_cast<double>(batch) * static_cast<double>(nnz)) +
          8.0 * static_cast<double>(batch) * static_cast<double>(nnz));
  const spmm::Kernels& kern = spmm::GetKernels(common::ActiveSimdIsa());
  const float* vals = values.data();
  const float* xp = x.data();
  ParallelForItems(batch, rows, RowGrain(2 * kept * c),
                   [&](int64_t b, int64_t r0, int64_t r1) {
                     kern.spmm_rows(index.row_offsets.data(),
                                    index.col_ids.data() + b * nnz,
                                    vals + b * nnz, xp + b * cols * c, r0, r1,
                                    c, out + b * rows * ldo, ldo);
                   });
}

Tensor SpmmCsrGradValues(const graph::CsrIndex& index, const Tensor& g,
                         const Tensor& x) {
  TGCRN_TRACE_SCOPE("spmm.SpmmCsrGradValues");
  const int64_t batch = index.batch;
  const int64_t rows = index.rows;
  const int64_t cols = index.cols;
  const int64_t nnz = index.nnz();
  const int64_t c = g.size(2);
  obs::RecordKernelCost(
      "spmm.SpmmCsrGradValues",
      2.0 * static_cast<double>(batch) * static_cast<double>(nnz) *
          static_cast<double>(c),
      4.0 * (2.0 * static_cast<double>(batch) * static_cast<double>(nnz) *
                 static_cast<double>(c) +
             static_cast<double>(batch) * static_cast<double>(nnz)) +
          8.0 * 2.0 * static_cast<double>(batch) * static_cast<double>(nnz));
  const spmm::Kernels& kern = spmm::GetKernels(common::ActiveSimdIsa());
  Tensor gv = Tensor::ForOverwrite({batch, nnz});
  const float* gp = g.data();
  const float* xp = x.data();
  float* gvp = gv.mutable_data();
  ParallelForItems(batch, nnz, RowGrain(2 * c),
                   [&](int64_t b, int64_t s0, int64_t s1) {
                     kern.spmm_grad_values(index.slot_rows.data(),
                                           index.col_ids.data() + b * nnz,
                                           gp + b * rows * c,
                                           xp + b * cols * c, s0, s1, c,
                                           gvp + b * nnz);
                   });
  return gv;
}

Tensor SpmmCsrGradX(graph::CsrIndex* index, const Tensor& values,
                    const Tensor& g) {
  TGCRN_TRACE_SCOPE("spmm.SpmmCsrGradX");
  const int64_t batch = index->batch;
  const int64_t rows = index->rows;
  const int64_t cols = index->cols;
  const int64_t nnz = index->nnz();
  const int64_t c = g.size(2);
  obs::RecordKernelCost(
      "spmm.SpmmCsrGradX",
      2.0 * static_cast<double>(batch) * static_cast<double>(nnz) *
          static_cast<double>(c),
      4.0 * (static_cast<double>(batch) * static_cast<double>(nnz) *
                 static_cast<double>(c) +
             static_cast<double>(batch) * static_cast<double>(cols) *
                 static_cast<double>(c) +
             static_cast<double>(batch) * static_cast<double>(nnz)) +
          8.0 * 2.0 * static_cast<double>(batch) * static_cast<double>(nnz));
  index->BuildTranspose();  // no-op once built
  const spmm::Kernels& kern = spmm::GetKernels(common::ActiveSimdIsa());
  Tensor gx = Tensor::ForOverwrite({batch, cols, c});
  const float* gp = g.data();
  const float* vals = values.data();
  float* gxp = gx.mutable_data();
  const int64_t avg_in = std::max<int64_t>(1, nnz / cols);
  ParallelForItems(batch, cols, RowGrain(2 * avg_in * c),
                   [&](int64_t b, int64_t c0, int64_t c1) {
                     kern.spmm_t_cols(index->t_offsets.data() + b * (cols + 1),
                                      index->t_slots.data() + b * nnz,
                                      index->slot_rows.data(), vals + b * nnz,
                                      gp + b * rows * c, c0, c1, c,
                                      gxp + b * cols * c);
                   });
  return gx;
}

Variable SpmmCsr(const SparseGraph& graph, const Variable& x) {
  TGCRN_CHECK(graph.defined());
  std::shared_ptr<graph::CsrIndex> index = graph.index;
  const Tensor& xv = x.value();
  TGCRN_CHECK_EQ(xv.dim(), 3);
  TGCRN_CHECK_EQ(xv.size(0), index->batch);
  TGCRN_CHECK_EQ(xv.size(1), index->cols);
  const int64_t c = xv.size(2);
  Tensor out = Tensor::ForOverwrite({index->batch, index->rows, c});
  SpmmCsrRows(*index, graph.values.value(), xv, out.mutable_data(), c);

  auto vn = graph.values.node();
  auto xn = x.node();
  // The transpose (CSC) lists are only needed for grad-x; build them now so
  // the backward pass (which may run under a step arena) does no index work.
  if (xn->needs_grad) index->BuildTranspose();
  return MakeOpNode(
      std::move(out), {graph.values, x}, [vn, xn, index](const Tensor& g) {
        if (vn->needs_grad) {
          vn->AccumulateGrad(SpmmCsrGradValues(*index, g, xn->value));
        }
        if (xn->needs_grad) {
          xn->AccumulateGrad(SpmmCsrGradX(index.get(), vn->value, g));
        }
      });
}

}  // namespace ag
}  // namespace tgcrn
