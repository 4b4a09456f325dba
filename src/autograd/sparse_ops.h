// Copyright 2026 TGCRN Reproduction Authors
// Autograd layer over the sparse learned-graph path (graph/csr.h,
// tensor/kernels/spmm.h). A SparseGraph pairs an immutable CSR index with a
// dense [batch, nnz] value Variable, so the adjacency weights flow through
// the tape like any other activation while the structure stays fixed for
// the whole forward/backward pass.
//
// Sparse-training contract: gradients reach the dense features AND the kept
// adjacency values; entries dropped by top-k receive EXACTLY zero gradient.
// For SparsifyTopK this is analytic, not an approximation — renormalizing a
// row distribution over its kept entries makes the result independent of
// the dropped mass, so d(output)/d(dropped entry) == 0 identically.
#ifndef TGCRN_AUTOGRAD_SPARSE_OPS_H_
#define TGCRN_AUTOGRAD_SPARSE_OPS_H_

#include <cstdint>
#include <memory>

#include "autograd/variable.h"
#include "graph/csr.h"

namespace tgcrn {
namespace ag {

// A batch of CSR adjacencies with differentiable values. `index` is shared
// (never mutated after construction except for the idempotent transpose
// build); `values` is slot-major [batch, nnz] matching graph::CsrBatch.
struct SparseGraph {
  std::shared_ptr<graph::CsrIndex> index;
  Variable values;  // [batch, nnz]

  bool defined() const { return index != nullptr; }
};

// Differentiable dense -> top-k -> CSR sparsify (graph::SparsifyTopK for
// the forward selection). Backward: with S the row's kept sum and v the
// renormalized outputs, grad wrt a kept input a_u is
// (g_u - sum_s g_s v_s) / S; dropped entries get exactly zero. Rows that
// hit the all-zero uniform fallback are constant, so their grad is zero.
SparseGraph SparsifyTopK(const Variable& dense, int64_t k);

// Batched SpMM: out[b] = A_b @ x[b] with A_b the b-th CSR item and x a
// dense [batch, cols, c] feature block; out is [batch, rows, c]. Scalar /
// AVX2 kernels behind the TGCRN_ISA dispatch (tensor/kernels/spmm.h),
// parallelized over fixed row (forward), column (grad-x) and slot
// (grad-values) chunks — bitwise deterministic at a fixed ISA for any
// thread count. Gradients flow to x and to graph.values.
Variable SpmmCsr(const SparseGraph& graph, const Variable& x);

// The tensor-level kernels under SpmmCsr, shared with the fused GCGRU step
// (core/gcgru.cc). Each opens its own trace scope and records its cost.
// values is [batch, nnz], x [batch, cols, c], g [batch, rows, c].
// out[b, r, 0:c] = A_b x[b], with item b at out + b * rows * ldo and row r
// of it at + r * ldo (ldo >= c).
void SpmmCsrRows(const graph::CsrIndex& index, const Tensor& values,
                 const Tensor& x, float* out, int64_t ldo);
// Grad wrt the kept values: gv[b, s] = <g[b, row(s)], x[b, col(s)]>.
Tensor SpmmCsrGradValues(const graph::CsrIndex& index, const Tensor& g,
                         const Tensor& x);
// Grad wrt the dense operand: A_b^T g[b], [batch, cols, c]. Builds the
// index's transpose lists if they are missing.
Tensor SpmmCsrGradX(graph::CsrIndex* index, const Tensor& values,
                    const Tensor& g);

}  // namespace ag
}  // namespace tgcrn

#endif  // TGCRN_AUTOGRAD_SPARSE_OPS_H_
