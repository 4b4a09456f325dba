// Copyright 2026 TGCRN Reproduction Authors
// AVX2/FMA GEMM microkernels. Compiled with -mavx2 -mfma only when the
// build enables them (src/CMakeLists.txt); otherwise this translation
// unit degrades to a stub table so the dispatch symbol always links.
//
// The packed path keeps a kMr x kNr accumulator tile in registers
// (6 rows x two 8-lane ymms = 12 accumulators) and streams one packed B
// panel against a stack-packed A sliver. Per output element the FMA
// chain runs over k in ascending order and every lane's arithmetic is
// independent of its neighbours, so results are bitwise identical across
// thread counts, row-block phase and ragged-panel handling — the
// fixed-ISA determinism contract (common/cpu_features.h).
#include "tensor/kernels/gemm.h"

#if !defined(TGCRN_DISABLE_AVX2) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace tgcrn {
namespace gemm {
namespace {

// Masks for a <8-lane tail: kMaskTable + 8 - w gives w leading -1 lanes.
alignas(32) constexpr int32_t kMaskTable[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                               0,  0,  0,  0,  0,  0,  0,  0};

inline __m256i TailMask(int64_t w) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMaskTable + 8 - w));
}

// One kMr x kNr register tile against one packed panel slice of kc
// steps. `apack` is the stack-packed A sliver in [kk][MR] order. When
// `first` the accumulators start at zero; later k-chunks reload the
// partial sums from C (store/load of a float is exact, so chunking does
// not change bits).
template <int MR>
inline void MicroPanel(const float* apack, const float* bp, int64_t kc,
                       float* c, int64_t ldc, bool first) {
  __m256 acc0[MR];
  __m256 acc1[MR];
  if (first) {
    for (int r = 0; r < MR; ++r) {
      acc0[r] = _mm256_setzero_ps();
      acc1[r] = _mm256_setzero_ps();
    }
  } else {
    for (int r = 0; r < MR; ++r) {
      acc0[r] = _mm256_loadu_ps(c + r * ldc);
      acc1[r] = _mm256_loadu_ps(c + r * ldc + 8);
    }
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(bp + kk * kNr);
    const __m256 b1 = _mm256_loadu_ps(bp + kk * kNr + 8);
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_broadcast_ss(apack + kk * MR + r);
      acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
      acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    _mm256_storeu_ps(c + r * ldc, acc0[r]);
    _mm256_storeu_ps(c + r * ldc + 8, acc1[r]);
  }
}

// MR rows starting at row i: pack the A sliver per k-chunk, run full
// panels straight into C and the ragged last panel into a local
// kNr-wide tile that is copied out once all k-chunks accumulated.
template <int MR>
void RowBlock(const float* a, int64_t a_row_stride, int64_t a_col_stride,
              const float* packed_b, int64_t i, int64_t k, int64_t n,
              float* c, int64_t ldc) {
  const int64_t full_panels = n / kNr;
  const int64_t rem = n - full_panels * kNr;
  alignas(32) float tail_tile[kMr * kNr];
  alignas(32) float apack[kMr * kKc];
  for (int64_t k0 = 0; k0 < k; k0 += kKc) {
    const int64_t kc = std::min(kKc, k - k0);
    for (int64_t kk = 0; kk < kc; ++kk) {
      for (int r = 0; r < MR; ++r) {
        apack[kk * MR + r] =
            a[(i + r) * a_row_stride + (k0 + kk) * a_col_stride];
      }
    }
    const bool first = k0 == 0;
    for (int64_t p = 0; p < full_panels; ++p) {
      const float* bp = packed_b + p * k * kNr + k0 * kNr;
      MicroPanel<MR>(apack, bp, kc, c + i * ldc + p * kNr, ldc, first);
    }
    if (rem > 0) {
      const float* bp = packed_b + full_panels * k * kNr + k0 * kNr;
      MicroPanel<MR>(apack, bp, kc, tail_tile, kNr, first);
    }
  }
  if (rem > 0) {
    for (int r = 0; r < MR; ++r) {
      std::copy(tail_tile + r * kNr, tail_tile + r * kNr + rem,
                c + (i + r) * ldc + full_panels * kNr);
    }
  }
}

void GemmRowsAvx2(const float* a, int64_t a_row_stride, int64_t a_col_stride,
                  const float* packed_b, int64_t i0, int64_t i1, int64_t k,
                  int64_t n, float* c, int64_t ldc) {
  if (n == 0) return;
  if (k == 0) {
    for (int64_t i = i0; i < i1; ++i) {
      std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
    }
    return;
  }
  int64_t i = i0;
  for (; i + kMr <= i1; i += kMr) {
    RowBlock<6>(a, a_row_stride, a_col_stride, packed_b, i, k, n, c, ldc);
  }
  switch (i1 - i) {
    case 1: RowBlock<1>(a, a_row_stride, a_col_stride, packed_b, i, k, n, c, ldc); break;
    case 2: RowBlock<2>(a, a_row_stride, a_col_stride, packed_b, i, k, n, c, ldc); break;
    case 3: RowBlock<3>(a, a_row_stride, a_col_stride, packed_b, i, k, n, c, ldc); break;
    case 4: RowBlock<4>(a, a_row_stride, a_col_stride, packed_b, i, k, n, c, ldc); break;
    case 5: RowBlock<5>(a, a_row_stride, a_col_stride, packed_b, i, k, n, c, ldc); break;
    default: break;
  }
}

void GemmRowsDirectAvx2(const float* a, int64_t a_row_stride,
                        int64_t a_col_stride, const float* b, int64_t i0,
                        int64_t i1, int64_t k, int64_t n, float* c) {
  for (int64_t i = i0; i < i1; ++i) {
    float* crow = c + i * n;
    if (k == 0 || n == 0) {
      std::fill(crow, crow + n, 0.0f);
      continue;
    }
    const float* arow = a + i * a_row_stride;
    int64_t j0 = 0;
    for (; j0 + 16 <= n; j0 += 16) {
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      for (int64_t kk = 0; kk < k; ++kk) {
        const __m256 av = _mm256_broadcast_ss(arow + kk * a_col_stride);
        acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b + kk * n + j0), acc0);
        acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b + kk * n + j0 + 8), acc1);
      }
      _mm256_storeu_ps(crow + j0, acc0);
      _mm256_storeu_ps(crow + j0 + 8, acc1);
    }
    if (j0 + 8 <= n) {
      __m256 acc = _mm256_setzero_ps();
      for (int64_t kk = 0; kk < k; ++kk) {
        const __m256 av = _mm256_broadcast_ss(arow + kk * a_col_stride);
        acc = _mm256_fmadd_ps(av, _mm256_loadu_ps(b + kk * n + j0), acc);
      }
      _mm256_storeu_ps(crow + j0, acc);
      j0 += 8;
    }
    if (j0 < n) {
      const __m256i mask = TailMask(n - j0);
      __m256 acc = _mm256_setzero_ps();
      for (int64_t kk = 0; kk < k; ++kk) {
        const __m256 av = _mm256_broadcast_ss(arow + kk * a_col_stride);
        const __m256 bv = _mm256_maskload_ps(b + kk * n + j0, mask);
        acc = _mm256_fmadd_ps(av, bv, acc);
      }
      _mm256_maskstore_ps(crow + j0, mask, acc);
    }
  }
}

// Lane-split dot product: lanes accumulate k = lane (mod 8/16) slices,
// combined by a fixed-shape horizontal sum, scalar tail last. The split
// depends only on k, so bits are thread-count independent.
inline float HSum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

void DotRowsAvx2(const float* a, const float* b, int64_t i0, int64_t i1,
                 int64_t k, int64_t n, float* c) {
  for (int64_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      int64_t kk = 0;
      for (; kk + 16 <= k; kk += 16) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + kk),
                               _mm256_loadu_ps(brow + kk), acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + kk + 8),
                               _mm256_loadu_ps(brow + kk + 8), acc1);
      }
      if (kk + 8 <= k) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(arow + kk),
                               _mm256_loadu_ps(brow + kk), acc0);
        kk += 8;
      }
      float sum = HSum(_mm256_add_ps(acc0, acc1));
      for (; kk < k; ++kk) sum += arow[kk] * brow[kk];
      crow[j] = sum;
    }
  }
}

void M1BatchAvx2(const float* a, const int64_t* a_mats, int64_t a_elems,
                 const float* b, const int64_t* b_mats, int64_t b_elems,
                 int64_t mat0, int64_t mat1, int64_t k, int64_t n, float* c) {
  for (int64_t mi = mat0; mi < mat1; ++mi) {
    const float* av = a + (a_mats ? a_mats[mi] : mi) * a_elems;
    const float* bm = b + (b_mats ? b_mats[mi] : mi) * b_elems;
    float* crow = c + mi * n;
    if (k == 0 || n == 0) {
      std::fill(crow, crow + n, 0.0f);
      continue;
    }
    if (n == 16) {
      // The dominant GCGRU shape (n = hidden size 16): one register pair,
      // no column-tiling branches. Same per-element arithmetic as the
      // general loop below.
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      for (int64_t kk = 0; kk < k; ++kk) {
        const __m256 x = _mm256_broadcast_ss(av + kk);
        acc0 = _mm256_fmadd_ps(x, _mm256_loadu_ps(bm + kk * 16), acc0);
        acc1 = _mm256_fmadd_ps(x, _mm256_loadu_ps(bm + kk * 16 + 8), acc1);
      }
      _mm256_storeu_ps(crow, acc0);
      _mm256_storeu_ps(crow + 8, acc1);
      continue;
    }
    int64_t j0 = 0;
    for (; j0 + 16 <= n; j0 += 16) {
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      for (int64_t kk = 0; kk < k; ++kk) {
        const __m256 x = _mm256_broadcast_ss(av + kk);
        acc0 = _mm256_fmadd_ps(x, _mm256_loadu_ps(bm + kk * n + j0), acc0);
        acc1 = _mm256_fmadd_ps(x, _mm256_loadu_ps(bm + kk * n + j0 + 8), acc1);
      }
      _mm256_storeu_ps(crow + j0, acc0);
      _mm256_storeu_ps(crow + j0 + 8, acc1);
    }
    if (j0 + 8 <= n) {
      __m256 acc = _mm256_setzero_ps();
      for (int64_t kk = 0; kk < k; ++kk) {
        const __m256 x = _mm256_broadcast_ss(av + kk);
        acc = _mm256_fmadd_ps(x, _mm256_loadu_ps(bm + kk * n + j0), acc);
      }
      _mm256_storeu_ps(crow + j0, acc);
      j0 += 8;
    }
    if (j0 < n) {
      const __m256i mask = TailMask(n - j0);
      __m256 acc = _mm256_setzero_ps();
      for (int64_t kk = 0; kk < k; ++kk) {
        const __m256 x = _mm256_broadcast_ss(av + kk);
        acc = _mm256_fmadd_ps(x, _mm256_maskload_ps(bm + kk * n + j0, mask),
                              acc);
      }
      _mm256_maskstore_ps(crow + j0, mask, acc);
    }
  }
}

// Eight gathered columns per ymm, one FMA chain per lane from zero over
// ascending k: per element the arithmetic of MicroPanel. The ragged tail
// runs the same chain with scalar FMAs.
void GatherDotsAvx2(const float* a, const float* b, const int32_t* cols,
                    int64_t count, int64_t k, float* c) {
  const __m256i stride = _mm256_set1_epi32(static_cast<int32_t>(k));
  int64_t u = 0;
  for (; u + 8 <= count; u += 8) {
    const __m256i rows = _mm256_mullo_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cols + u)),
        stride);
    __m256 acc = _mm256_setzero_ps();
    for (int64_t kk = 0; kk < k; ++kk) {
      acc = _mm256_fmadd_ps(_mm256_broadcast_ss(a + kk),
                            _mm256_i32gather_ps(b + kk, rows, 4), acc);
    }
    _mm256_storeu_ps(c + u, acc);
  }
  for (; u < count; ++u) {
    const float* brow = b + static_cast<int64_t>(cols[u]) * k;
    float sum = 0.0f;
    for (int64_t kk = 0; kk < k; ++kk) sum = std::fma(a[kk], brow[kk], sum);
    c[u] = sum;
  }
}

constexpr Kernels kAvx2Kernels = {
    internal::PackBPortable,
    GemmRowsAvx2,
    GemmRowsDirectAvx2,
    DotRowsAvx2,
    M1BatchAvx2,
    GatherDotsAvx2,
};

}  // namespace

namespace internal {
const Kernels* Avx2KernelsOrNull() { return &kAvx2Kernels; }
}  // namespace internal

}  // namespace gemm
}  // namespace tgcrn

#else  // AVX2 compiled out

namespace tgcrn {
namespace gemm {
namespace internal {
const Kernels* Avx2KernelsOrNull() { return nullptr; }
}  // namespace internal
}  // namespace gemm
}  // namespace tgcrn

#endif
