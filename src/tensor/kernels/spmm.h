// Copyright 2026 TGCRN Reproduction Authors
// Sparse (CSR) x dense kernels for the sparse learned-graph execution path
// (graph/csr.h, autograd/sparse_ops.h). The shape is the GCGRU aggregation:
// one batch item multiplies a [rows, cols] CSR adjacency by a dense
// [cols, c] feature block into a dense [rows, c] output, and the backward
// pass needs the transpose product A^T g (via the CSC lists) plus the
// per-slot value gradients <g[row], x[col]>.
//
// Dispatch mirrors tensor/kernels/gemm.h: one kernel table per ISA level,
// scalar as the bit-exact anchor (separate multiply and add, never compiled
// with FMA flags), AVX2 vectorizing over the feature dimension with FMA
// (may differ from scalar in the last bits, the repository-wide ISA
// contract). Determinism at a fixed ISA: every output element accumulates
// its slots in ascending slot order — a pure function of the CSR structure,
// never of thread count or chunk boundaries (drivers parallelize over
// disjoint row/column/slot ranges).
#ifndef TGCRN_TENSOR_KERNELS_SPMM_H_
#define TGCRN_TENSOR_KERNELS_SPMM_H_

#include <cstdint>

#include "common/cpu_features.h"

namespace tgcrn {
namespace spmm {

// Kernel table for one ISA level. All pointers address ONE batch item:
// `values`/`col_ids` are that item's nnz-long slot arrays, `x` its dense
// [cols, c] operand, `out`/`g` its dense [rows, c] output/gradient.
struct Kernels {
  // Forward rows [r0, r1), output row r at out + r * ldo (ldo >= c):
  //   out[r, :] = sum_{s in row r, ascending} values[s] * x[col_ids[s], :]
  void (*spmm_rows)(const int64_t* row_offsets, const int64_t* col_ids,
                    const float* values, const float* x, int64_t r0,
                    int64_t r1, int64_t c, float* out, int64_t ldo);
  // Transpose-backward columns [c0, c1) (grad wrt the dense operand):
  //   gx[col, :] = sum_{s in CSC list of col, ascending} values[s]
  //                * g[slot_rows[s], :]
  // t_offsets/t_slots are the item's CSC lists (graph/csr.h).
  void (*spmm_t_cols)(const int64_t* t_offsets, const int64_t* t_slots,
                      const int64_t* slot_rows, const float* values,
                      const float* g, int64_t c0, int64_t c1, int64_t c,
                      float* gx);
  // Value gradients for slots [s0, s1):
  //   gv[s] = <g[slot_rows[s], :], x[col_ids[s], :]>
  void (*spmm_grad_values)(const int64_t* slot_rows, const int64_t* col_ids,
                           const float* g, const float* x, int64_t s0,
                           int64_t s1, int64_t c, float* gv);
};

// Table for `isa`; degrades to scalar when AVX2 is compiled out.
const Kernels& GetKernels(common::SimdIsa isa);

namespace internal {
// Defined in spmm_avx2.cc: the AVX2 table, or nullptr when compiled out.
const Kernels* Avx2KernelsOrNull();
}  // namespace internal

}  // namespace spmm
}  // namespace tgcrn

#endif  // TGCRN_TENSOR_KERNELS_SPMM_H_
