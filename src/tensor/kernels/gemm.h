// Copyright 2026 TGCRN Reproduction Authors
// The GEMM microkernel core under BatchedMatmulImpl (tensor/tensor.cc).
// One kernel table per ISA level (common/cpu_features.h); the batched
// driver stays ISA-agnostic: it picks a table once per call, packs the
// B operand into panels, and parallelizes over output rows exactly as
// before, so the thread-pool chunking, the transposed-operand modes and
// the fused gradient layers all sit on top unchanged.
//
// Layouts and blocking:
//  * Packed B: the logical (k x n) right operand is repacked into
//    ceil(n / kNr) panels of kNr columns; panel p stores elements in
//    [kk][j] order (packed[p * k * kNr + kk * kNr + j]), zero-padded to
//    kNr in the ragged last panel. Pads are never read back into valid
//    outputs. Packing reads B row-major (transpose_b=false) or
//    column-major from a (n x k) buffer (transpose_b=true), so the
//    transposed modes never materialize a transpose copy.
//  * gemm_rows: computes output rows [i0, i1) of one matrix against a
//    packed B. Internally blocks rows by kMr and the reduce dim by kKc
//    (packing an A sliver on the stack); the AVX2 version keeps a
//    kMr x kNr accumulator tile in registers.
//  * gemm_rows_direct / dot_rows: no-packing paths for tall-skinny
//    outputs (m < kSmallMCutover), where packing traffic would rival
//    the whole multiply: direct reads B (k x n) row-major in place;
//    dot computes c[i][j] = <a_row_i, b_row_j> from two row-major
//    operands (the transposed-B backward of a few-row product).
//  * gather_dots: single elements of one output row against gathered
//    columns, rounded exactly as gemm_rows rounds them (the sparse
//    TagSL selection walk scores only the candidates it visits).
//
// Determinism: per output element, every kernel accumulates over the
// reduce dim in ascending k order with a structure that depends only on
// the shapes — never on thread count, chunk boundaries or row-block
// phase — so results are bitwise identical across thread counts at a
// fixed ISA. The scalar kernels use separate multiply and add (no FMA)
// and reproduce the legacy serial loops bit for bit; the AVX2 kernels
// contract to FMA and may differ from scalar in the last bits.
#ifndef TGCRN_TENSOR_KERNELS_GEMM_H_
#define TGCRN_TENSOR_KERNELS_GEMM_H_

#include <cstdint>

#include "common/cpu_features.h"

namespace tgcrn {
namespace gemm {

// Packed-panel width (columns per panel). Also the AVX2 register-tile
// width: two 8-lane ymm accumulators per row.
inline constexpr int64_t kNr = 16;
// Register-tile height: rows computed together in the microkernel.
inline constexpr int64_t kMr = 6;
// Reduce-dim cache block: the A sliver packed on the stack is
// kMr * kKc floats (~6 KiB), and a kKc x kNr B panel slice is 16 KiB.
inline constexpr int64_t kKc = 256;
// Outputs with fewer rows than this skip packing entirely (the packing
// traffic would be comparable to the whole multiply).
inline constexpr int64_t kSmallMCutover = 8;

// Elements needed for a packed copy of a logical (k x n) B operand.
inline int64_t PackedBCount(int64_t k, int64_t n) {
  const int64_t panels = (n + kNr - 1) / kNr;
  return panels * k * kNr;
}

// Kernel table for one ISA level. A is addressed as the *logical*
// (m x k) left operand: element (i, kk) lives at
// a[i * a_row_stride + kk * a_col_stride] — (k, 1) for a row-major A,
// (1, m) for the transpose-A mode reading a (k x m) buffer in place.
struct Kernels {
  // Packs logical (k x n) B into panels as described above.
  // transpose_b: the source buffer is (n x k) row-major.
  void (*pack_b)(const float* b, int64_t k, int64_t n, bool transpose_b,
                 float* out);
  // C rows [i0, i1): c[i * ldc + j] = sum_kk A(i, kk) * B_packed(kk, j)
  // for j < n (ldc >= n; the fused GCGRU step writes straight into a
  // column block of a wider buffer).
  void (*gemm_rows)(const float* a, int64_t a_row_stride,
                    int64_t a_col_stride, const float* packed_b, int64_t i0,
                    int64_t i1, int64_t k, int64_t n, float* c, int64_t ldc);
  // Same contract, but B is read in place as a (k x n) row-major buffer.
  void (*gemm_rows_direct)(const float* a, int64_t a_row_stride,
                           int64_t a_col_stride, const float* b, int64_t i0,
                           int64_t i1, int64_t k, int64_t n, float* c);
  // C rows [i0, i1) of A (m x k, row-major) times B^T (B is n x k,
  // row-major): c[i * n + j] = <a_row_i, b_row_j>.
  void (*dot_rows)(const float* a, const float* b, int64_t i0, int64_t i1,
                   int64_t k, int64_t n, float* c);
  // Batched m=1 path (a batch of row vectors times a batch of (k x n)
  // matrices, e.g. a one-row E_tau times a pool). Computes output matrices
  // [mat0, mat1), one n-wide row each:
  //   c[mi * n + j] = sum_kk a[a_mats[mi] * a_elems + kk]
  //                        * b[b_mats[mi] * b_elems + kk * n + j]
  // A null a_mats/b_mats means the identity map (matrix mi reads operand
  // matrix mi — the no-broadcast case). The matrix loop lives inside the
  // kernel so the driver pays one indirect call per chunk instead of one
  // per output row. Arithmetic per element is identical to
  // gemm_rows_direct.
  void (*m1_batch)(const float* a, const int64_t* a_mats, int64_t a_elems,
                   const float* b, const int64_t* b_mats, int64_t b_elems,
                   int64_t mat0, int64_t mat1, int64_t k, int64_t n, float* c);
  // c[u] = sum_kk a[kk] * b[cols[u] * k + kk] for u in [0, count): the
  // elements (i, cols[u]) of A * B^T for one row a of A and a row-major
  // (n x k) B with n * k < 2^31. Each element is bitwise equal to the one
  // gemm_rows computes against pack_b(B, transpose_b=true), because it
  // runs the same ascending-k chain from zero (FMA under AVX2).
  void (*gather_dots)(const float* a, const float* b, const int32_t* cols,
                      int64_t count, int64_t k, float* c);
};

// Table for `isa`; silently degrades to the scalar table when the AVX2
// kernels are compiled out (ActiveSimdIsa() never asks for more than
// the build supports, so this is belt and braces).
const Kernels& GetKernels(common::SimdIsa isa);

namespace internal {
// Panel packing is a pure copy, shared by both tables (gemm_scalar.cc).
void PackBPortable(const float* b, int64_t k, int64_t n, bool transpose_b,
                   float* out);
// Defined in gemm_avx2.cc: the AVX2 table, or nullptr when compiled out.
const Kernels* Avx2KernelsOrNull();
}  // namespace internal

}  // namespace gemm
}  // namespace tgcrn

#endif  // TGCRN_TENSOR_KERNELS_GEMM_H_
