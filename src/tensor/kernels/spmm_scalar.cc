// Copyright 2026 TGCRN Reproduction Authors
// Portable scalar SpMM kernels and the ISA dispatch table. Like
// gemm_scalar.cc these are the determinism anchor: ascending-slot
// accumulation with separate multiply and add, never compiled with FMA
// contraction flags, so TGCRN_ISA=scalar yields the exact reference
// arithmetic at any thread count.
#include "tensor/kernels/spmm.h"

#include <algorithm>

namespace tgcrn {
namespace spmm {
namespace {

void SpmmRowsScalar(const int64_t* row_offsets, const int64_t* col_ids,
                    const float* values, const float* x, int64_t r0,
                    int64_t r1, int64_t c, float* out, int64_t ldo) {
  for (int64_t r = r0; r < r1; ++r) {
    float* orow = out + r * ldo;
    std::fill(orow, orow + c, 0.0f);
    for (int64_t s = row_offsets[r]; s < row_offsets[r + 1]; ++s) {
      const float v = values[s];
      const float* xrow = x + col_ids[s] * c;
      for (int64_t j = 0; j < c; ++j) orow[j] += v * xrow[j];
    }
  }
}

void SpmmTColsScalar(const int64_t* t_offsets, const int64_t* t_slots,
                     const int64_t* slot_rows, const float* values,
                     const float* g, int64_t c0, int64_t c1, int64_t c,
                     float* gx) {
  for (int64_t col = c0; col < c1; ++col) {
    float* orow = gx + col * c;
    std::fill(orow, orow + c, 0.0f);
    for (int64_t i = t_offsets[col]; i < t_offsets[col + 1]; ++i) {
      const int64_t s = t_slots[i];
      const float v = values[s];
      const float* grow = g + slot_rows[s] * c;
      for (int64_t j = 0; j < c; ++j) orow[j] += v * grow[j];
    }
  }
}

void SpmmGradValuesScalar(const int64_t* slot_rows, const int64_t* col_ids,
                          const float* g, const float* x, int64_t s0,
                          int64_t s1, int64_t c, float* gv) {
  for (int64_t s = s0; s < s1; ++s) {
    const float* grow = g + slot_rows[s] * c;
    const float* xrow = x + col_ids[s] * c;
    float sum = 0.0f;
    for (int64_t j = 0; j < c; ++j) sum += grow[j] * xrow[j];
    gv[s] = sum;
  }
}

constexpr Kernels kScalarKernels = {
    SpmmRowsScalar,
    SpmmTColsScalar,
    SpmmGradValuesScalar,
};

}  // namespace

const Kernels& GetKernels(common::SimdIsa isa) {
  if (isa == common::SimdIsa::kAvx2) {
    const Kernels* avx2 = internal::Avx2KernelsOrNull();
    if (avx2 != nullptr) return *avx2;
  }
  return kScalarKernels;
}

}  // namespace spmm
}  // namespace tgcrn
