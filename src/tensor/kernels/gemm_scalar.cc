// Copyright 2026 TGCRN Reproduction Authors
// Portable scalar GEMM kernels and the ISA dispatch table. The scalar
// kernels are the determinism anchor: per output element they accumulate
// over k in ascending order with separate multiply and add (this file is
// never compiled with FMA contraction flags), reproducing the legacy
// serial loops of BatchedMatmulImpl bit for bit. TGCRN_ISA=scalar
// therefore yields the exact pre-microkernel numerics.
#include "tensor/kernels/gemm.h"

#include <algorithm>

namespace tgcrn {
namespace gemm {
namespace {

void PackBScalar(const float* b, int64_t k, int64_t n, bool transpose_b,
                 float* out) {
  const int64_t panels = (n + kNr - 1) / kNr;
  for (int64_t p = 0; p < panels; ++p) {
    const int64_t j0 = p * kNr;
    const int64_t w = std::min(kNr, n - j0);
    float* panel = out + p * k * kNr;
    for (int64_t kk = 0; kk < k; ++kk) {
      float* dst = panel + kk * kNr;
      if (transpose_b) {
        // Source is (n x k) row-major: column kk of the logical B.
        for (int64_t j = 0; j < w; ++j) dst[j] = b[(j0 + j) * k + kk];
      } else {
        const float* src = b + kk * n + j0;
        for (int64_t j = 0; j < w; ++j) dst[j] = src[j];
      }
      for (int64_t j = w; j < kNr; ++j) dst[j] = 0.0f;
    }
  }
}

void GemmRowsScalar(const float* a, int64_t a_row_stride, int64_t a_col_stride,
                    const float* packed_b, int64_t i0, int64_t i1, int64_t k,
                    int64_t n, float* c, int64_t ldc) {
  const int64_t panels = (n + kNr - 1) / kNr;
  for (int64_t i = i0; i < i1; ++i) {
    float* crow = c + i * ldc;
    std::fill(crow, crow + n, 0.0f);
    // k blocked by kKc for cache residency; per element the accumulation
    // order is still plain ascending k.
    for (int64_t k0 = 0; k0 < k; k0 += kKc) {
      const int64_t kc = std::min(kKc, k - k0);
      for (int64_t p = 0; p < panels; ++p) {
        const int64_t j0 = p * kNr;
        const int64_t w = std::min(kNr, n - j0);
        const float* bp = packed_b + p * k * kNr + k0 * kNr;
        float* cj = crow + j0;
        for (int64_t kk = 0; kk < kc; ++kk) {
          const float av = a[i * a_row_stride + (k0 + kk) * a_col_stride];
          const float* brow = bp + kk * kNr;
          for (int64_t j = 0; j < w; ++j) cj[j] += av * brow[j];
        }
      }
    }
  }
}

void GemmRowsDirectScalar(const float* a, int64_t a_row_stride,
                          int64_t a_col_stride, const float* b, int64_t i0,
                          int64_t i1, int64_t k, int64_t n, float* c) {
  for (int64_t i = i0; i < i1; ++i) {
    float* crow = c + i * n;
    std::fill(crow, crow + n, 0.0f);
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = a[i * a_row_stride + kk * a_col_stride];
      const float* brow = b + kk * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void DotRowsScalar(const float* a, const float* b, int64_t i0, int64_t i1,
                   int64_t k, int64_t n, float* c) {
  for (int64_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float sum = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) sum += arow[kk] * brow[kk];
      crow[j] = sum;
    }
  }
}

void M1BatchScalar(const float* a, const int64_t* a_mats, int64_t a_elems,
                   const float* b, const int64_t* b_mats, int64_t b_elems,
                   int64_t mat0, int64_t mat1, int64_t k, int64_t n, float* c) {
  for (int64_t mi = mat0; mi < mat1; ++mi) {
    const float* av = a + (a_mats ? a_mats[mi] : mi) * a_elems;
    const float* bm = b + (b_mats ? b_mats[mi] : mi) * b_elems;
    float* crow = c + mi * n;
    std::fill(crow, crow + n, 0.0f);
    for (int64_t kk = 0; kk < k; ++kk) {
      const float x = av[kk];
      const float* brow = bm + kk * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += x * brow[j];
    }
  }
}

void GatherDotsScalar(const float* a, const float* b, const int32_t* cols,
                      int64_t count, int64_t k, float* c) {
  for (int64_t u = 0; u < count; ++u) {
    const float* brow = b + static_cast<int64_t>(cols[u]) * k;
    float sum = 0.0f;
    for (int64_t kk = 0; kk < k; ++kk) sum += a[kk] * brow[kk];
    c[u] = sum;
  }
}

constexpr Kernels kScalarKernels = {
    PackBScalar,
    GemmRowsScalar,
    GemmRowsDirectScalar,
    DotRowsScalar,
    M1BatchScalar,
    GatherDotsScalar,
};

}  // namespace

namespace internal {

void PackBPortable(const float* b, int64_t k, int64_t n, bool transpose_b,
                   float* out) {
  PackBScalar(b, k, n, transpose_b, out);
}

}  // namespace internal

const Kernels& GetKernels(common::SimdIsa isa) {
  if (isa == common::SimdIsa::kAvx2) {
    const Kernels* avx2 = internal::Avx2KernelsOrNull();
    if (avx2 != nullptr) return *avx2;
  }
  return kScalarKernels;
}

}  // namespace gemm
}  // namespace tgcrn
