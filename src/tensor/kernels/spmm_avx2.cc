// Copyright 2026 TGCRN Reproduction Authors
// AVX2/FMA SpMM kernels. Compiled with -mavx2 -mfma only when the build
// enables them (src/CMakeLists.txt); otherwise this translation unit
// degrades to a stub table so the dispatch symbol always links.
//
// Each kernel vectorizes over the feature dimension c with 8-lane FMA
// chains; slots are consumed in ascending order exactly like the scalar
// anchor, so at a fixed ISA the results are bitwise identical across
// thread counts (the lanes never interact until the horizontal sum in
// the value-gradient kernel, which reduces a fixed-width register in a
// fixed order). FMA contraction may change the last bits relative to
// TGCRN_ISA=scalar — the repository-wide ISA contract.
#include "tensor/kernels/spmm.h"

#if !defined(TGCRN_DISABLE_AVX2) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace tgcrn {
namespace spmm {
namespace {

// Masks for a <8-lane tail: kMaskTable + 8 - w gives w leading -1 lanes.
alignas(32) constexpr int32_t kMaskTable[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                               0,  0,  0,  0,  0,  0,  0,  0};

inline __m256i TailMask(int64_t w) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMaskTable + 8 - w));
}

// out[j] += v * in[j] over one feature row, 8 lanes at a time.
inline void AxpyRow(float v, const float* in, int64_t c, float* out) {
  const __m256 vv = _mm256_set1_ps(v);
  int64_t j = 0;
  for (; j + 8 <= c; j += 8) {
    const __m256 acc = _mm256_loadu_ps(out + j);
    _mm256_storeu_ps(out + j,
                     _mm256_fmadd_ps(vv, _mm256_loadu_ps(in + j), acc));
  }
  if (j < c) {
    const __m256i mask = TailMask(c - j);
    const __m256 acc = _mm256_maskload_ps(out + j, mask);
    _mm256_maskstore_ps(
        out + j, mask,
        _mm256_fmadd_ps(vv, _mm256_maskload_ps(in + j, mask), acc));
  }
}

inline void ZeroRow(float* out, int64_t c) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t j = 0;
  for (; j + 8 <= c; j += 8) _mm256_storeu_ps(out + j, zero);
  for (; j < c; ++j) out[j] = 0.0f;
}

void SpmmRowsAvx2(const int64_t* row_offsets, const int64_t* col_ids,
                  const float* values, const float* x, int64_t r0, int64_t r1,
                  int64_t c, float* out, int64_t ldo) {
  for (int64_t r = r0; r < r1; ++r) {
    float* orow = out + r * ldo;
    ZeroRow(orow, c);
    for (int64_t s = row_offsets[r]; s < row_offsets[r + 1]; ++s) {
      AxpyRow(values[s], x + col_ids[s] * c, c, orow);
    }
  }
}

void SpmmTColsAvx2(const int64_t* t_offsets, const int64_t* t_slots,
                   const int64_t* slot_rows, const float* values,
                   const float* g, int64_t c0, int64_t c1, int64_t c,
                   float* gx) {
  for (int64_t col = c0; col < c1; ++col) {
    float* orow = gx + col * c;
    ZeroRow(orow, c);
    for (int64_t i = t_offsets[col]; i < t_offsets[col + 1]; ++i) {
      const int64_t s = t_slots[i];
      AxpyRow(values[s], g + slot_rows[s] * c, c, orow);
    }
  }
}

// Horizontal sum of one ymm in a fixed lane order.
inline float HSum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

void SpmmGradValuesAvx2(const int64_t* slot_rows, const int64_t* col_ids,
                        const float* g, const float* x, int64_t s0, int64_t s1,
                        int64_t c, float* gv) {
  for (int64_t s = s0; s < s1; ++s) {
    const float* grow = g + slot_rows[s] * c;
    const float* xrow = x + col_ids[s] * c;
    __m256 acc = _mm256_setzero_ps();
    int64_t j = 0;
    for (; j + 8 <= c; j += 8) {
      acc = _mm256_fmadd_ps(_mm256_loadu_ps(grow + j),
                            _mm256_loadu_ps(xrow + j), acc);
    }
    if (j < c) {
      const __m256i mask = TailMask(c - j);
      acc = _mm256_fmadd_ps(_mm256_maskload_ps(grow + j, mask),
                            _mm256_maskload_ps(xrow + j, mask), acc);
    }
    gv[s] = HSum(acc);
  }
}

constexpr Kernels kAvx2Kernels = {
    SpmmRowsAvx2,
    SpmmTColsAvx2,
    SpmmGradValuesAvx2,
};

}  // namespace

namespace internal {
const Kernels* Avx2KernelsOrNull() { return &kAvx2Kernels; }
}  // namespace internal

}  // namespace spmm
}  // namespace tgcrn

#else  // AVX2 compiled out

namespace tgcrn {
namespace spmm {
namespace internal {
const Kernels* Avx2KernelsOrNull() { return nullptr; }
}  // namespace internal
}  // namespace spmm
}  // namespace tgcrn

#endif
