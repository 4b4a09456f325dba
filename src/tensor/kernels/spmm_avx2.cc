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
//
// Register-resident rows. The forward and transpose kernels keep one
// output row (at most kPassCols columns of it) in ymm accumulators across
// all of the row's slots and store it once. Accumulating in memory costs
// a load and a store per slot, and at widths with a masked tail (c = 10,
// 18) the masked store does not forward to the next slot's masked load of
// the same address, so every slot stalls on the store. The block count
// and the presence of a masked tail are template parameters: a runtime
// block loop keeps the accumulators in memory. Every output element is
// still one FMA chain from +0 over its slots in ascending order, so the
// result is bitwise the one of the per-slot loop.
#include "tensor/kernels/spmm.h"

#if !defined(TGCRN_DISABLE_AVX2) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>

namespace tgcrn {
namespace spmm {
namespace {

// Columns one register-resident pass accumulates: four full 8-lane blocks,
// or fewer blocks plus one masked tail.
constexpr int64_t kPassCols = 32;

// Masks for a <8-lane tail: kMaskTable + 8 - w gives w leading -1 lanes.
alignas(32) constexpr int32_t kMaskTable[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                               0,  0,  0,  0,  0,  0,  0,  0};

inline __m256i TailMask(int64_t w) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMaskTable + 8 - w));
}

// One output row segment of kBlocks full blocks plus an optional masked
// tail, held in registers: Accumulate adds v * src[0, width) per slot,
// Store writes the segment once.
template <int kBlocks, bool kTail>
struct RowAccumulator {
  static constexpr int kRegs = kBlocks + (kTail ? 1 : 0);
  __m256 acc[kRegs];

  RowAccumulator() {
    for (int i = 0; i < kRegs; ++i) acc[i] = _mm256_setzero_ps();
  }

  void Accumulate(float v, const float* src, __m256i mask) {
    const __m256 vv = _mm256_set1_ps(v);
    for (int i = 0; i < kBlocks; ++i) {
      acc[i] = _mm256_fmadd_ps(vv, _mm256_loadu_ps(src + 8 * i), acc[i]);
    }
    if constexpr (kTail) {
      acc[kBlocks] = _mm256_fmadd_ps(
          vv, _mm256_maskload_ps(src + 8 * kBlocks, mask), acc[kBlocks]);
    }
  }

  void Store(float* dst, __m256i mask) const {
    for (int i = 0; i < kBlocks; ++i) _mm256_storeu_ps(dst + 8 * i, acc[i]);
    if constexpr (kTail) {
      _mm256_maskstore_ps(dst + 8 * kBlocks, mask, acc[kBlocks]);
    }
  }
};

// Forward rows [r0, r1) over one column segment: x and out point at the
// segment's first column; x rows are c apart, out rows ldo apart; `tail`
// is the width of the masked tail block.
template <int kBlocks, bool kTail>
void RowsPass(const int64_t* row_offsets, const int64_t* col_ids,
              const float* values, const float* x, int64_t r0, int64_t r1,
              int64_t c, float* out, int64_t ldo, int64_t tail) {
  const __m256i mask = TailMask(tail);
  for (int64_t r = r0; r < r1; ++r) {
    RowAccumulator<kBlocks, kTail> row;
    for (int64_t s = row_offsets[r]; s < row_offsets[r + 1]; ++s) {
      row.Accumulate(values[s], x + col_ids[s] * c, mask);
    }
    row.Store(out + r * ldo, mask);
  }
}

// Transpose columns [c0, c1) over one column segment of g and gx.
template <int kBlocks, bool kTail>
void TColsPass(const int64_t* t_offsets, const int64_t* t_slots,
               const int64_t* slot_rows, const float* values, const float* g,
               int64_t c0, int64_t c1, int64_t c, float* gx, int64_t tail) {
  const __m256i mask = TailMask(tail);
  for (int64_t col = c0; col < c1; ++col) {
    RowAccumulator<kBlocks, kTail> row;
    for (int64_t i = t_offsets[col]; i < t_offsets[col + 1]; ++i) {
      const int64_t s = t_slots[i];
      row.Accumulate(values[s], g + slot_rows[s] * c, mask);
    }
    row.Store(gx + col * c, mask);
  }
}

using RowsPassFn = void (*)(const int64_t*, const int64_t*, const float*,
                            const float*, int64_t, int64_t, int64_t, float*,
                            int64_t, int64_t);
using TColsPassFn = void (*)(const int64_t*, const int64_t*, const int64_t*,
                             const float*, const float*, int64_t, int64_t,
                             int64_t, float*, int64_t);

// Pass instantiations indexed by [full blocks][masked tail]. A pass is at
// most kPassCols wide, so [0][0] and [4][1] never occur.
constexpr RowsPassFn kRowsPasses[5][2] = {
    {nullptr, RowsPass<0, true>},
    {RowsPass<1, false>, RowsPass<1, true>},
    {RowsPass<2, false>, RowsPass<2, true>},
    {RowsPass<3, false>, RowsPass<3, true>},
    {RowsPass<4, false>, nullptr},
};
constexpr TColsPassFn kTColsPasses[5][2] = {
    {nullptr, TColsPass<0, true>},
    {TColsPass<1, false>, TColsPass<1, true>},
    {TColsPass<2, false>, TColsPass<2, true>},
    {TColsPass<3, false>, TColsPass<3, true>},
    {TColsPass<4, false>, nullptr},
};

// Calls pass(j0, blocks, tail) for each column segment of [0, c),
// kPassCols wide except the last: `blocks` full 8-lane blocks from j0,
// then a masked block of `tail` < 8 lanes.
template <typename Pass>
inline void ForEachPass(int64_t c, Pass&& pass) {
  for (int64_t j0 = 0; j0 < c; j0 += kPassCols) {
    const int64_t w = std::min(kPassCols, c - j0);
    pass(j0, w / 8, w % 8);
  }
}

void SpmmRowsAvx2(const int64_t* row_offsets, const int64_t* col_ids,
                  const float* values, const float* x, int64_t r0, int64_t r1,
                  int64_t c, float* out, int64_t ldo) {
  ForEachPass(c, [&](int64_t j0, int64_t blocks, int64_t tail) {
    kRowsPasses[blocks][tail != 0](row_offsets, col_ids, values, x + j0, r0,
                                   r1, c, out + j0, ldo, tail);
  });
}

void SpmmTColsAvx2(const int64_t* t_offsets, const int64_t* t_slots,
                   const int64_t* slot_rows, const float* values,
                   const float* g, int64_t c0, int64_t c1, int64_t c,
                   float* gx) {
  ForEachPass(c, [&](int64_t j0, int64_t blocks, int64_t tail) {
    kTColsPasses[blocks][tail != 0](t_offsets, t_slots, slot_rows, values,
                                    g + j0, c0, c1, c, gx + j0, tail);
  });
}

// Horizontal sum of one ymm in a fixed lane order:
// ((a0 + a4) + (a2 + a6)) + ((a1 + a5) + (a3 + a7)).
inline float HSum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

// <g[row], x[col]> of one slot: one 8-lane FMA chain, then HSum.
inline float SlotDot(const float* grow, const float* xrow, int64_t c,
                     __m256i mask) {
  __m256 acc = _mm256_setzero_ps();
  int64_t j = 0;
  for (; j + 8 <= c; j += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(grow + j), _mm256_loadu_ps(xrow + j),
                          acc);
  }
  if (j < c) {
    acc = _mm256_fmadd_ps(_mm256_maskload_ps(grow + j, mask),
                          _mm256_maskload_ps(xrow + j, mask), acc);
  }
  return HSum(acc);
}

// Slots s .. s + 7 at once: eight independent FMA chains, each the chain
// of SlotDot, then the eight HSum trees as one transposed reduction —
// the same additions with the same operand order, so every gv is bitwise
// SlotDot's. kOneRow: the eight slots share one row of g (every row of
// eight or more slots has such groups), so each g block is loaded once.
template <bool kOneRow>
inline void SlotDot8(const int64_t* slot_rows, const int64_t* col_ids,
                     const float* g, const float* x, int64_t s, int64_t c,
                     __m256i mask, float* gv) {
  // Row addresses come straight from the index arrays (an array of
  // sixteen row pointers gets SLP-vectorized and spilled); the unroll
  // pragmas keep acc[] in registers.
  const float* g0 = g + slot_rows[s] * c;
  __m256 acc[8];
#pragma GCC unroll 8
  for (int k = 0; k < 8; ++k) acc[k] = _mm256_setzero_ps();
  int64_t j = 0;
  for (; j + 8 <= c; j += 8) {
    const __m256 gb = _mm256_loadu_ps(g0 + j);
#pragma GCC unroll 8
    for (int k = 0; k < 8; ++k) {
      acc[k] = _mm256_fmadd_ps(
          kOneRow ? gb : _mm256_loadu_ps(g + slot_rows[s + k] * c + j),
          _mm256_loadu_ps(x + col_ids[s + k] * c + j), acc[k]);
    }
  }
  if (j < c) {
    const __m256 gb = _mm256_maskload_ps(g0 + j, mask);
#pragma GCC unroll 8
    for (int k = 0; k < 8; ++k) {
      acc[k] = _mm256_fmadd_ps(
          kOneRow ? gb : _mm256_maskload_ps(g + slot_rows[s + k] * c + j, mask),
          _mm256_maskload_ps(x + col_ids[s + k] * c + j, mask), acc[k]);
    }
  }
  // lo + hi: h[k] holds slot k's four partial sums p0..p3 in its low
  // half and slot k + 4's in its high half.
  __m256 h[4];
#pragma GCC unroll 4
  for (int k = 0; k < 4; ++k) {
    h[k] = _mm256_add_ps(_mm256_permute2f128_ps(acc[k], acc[k + 4], 0x20),
                         _mm256_permute2f128_ps(acc[k], acc[k + 4], 0x31));
  }
  // (p0 + p2, p1 + p3) of two slots per half.
  const __m256 t01 =
      _mm256_add_ps(_mm256_shuffle_ps(h[0], h[1], _MM_SHUFFLE(1, 0, 1, 0)),
                    _mm256_shuffle_ps(h[0], h[1], _MM_SHUFFLE(3, 2, 3, 2)));
  const __m256 t23 =
      _mm256_add_ps(_mm256_shuffle_ps(h[2], h[3], _MM_SHUFFLE(1, 0, 1, 0)),
                    _mm256_shuffle_ps(h[2], h[3], _MM_SHUFFLE(3, 2, 3, 2)));
  // (p0 + p2) + (p1 + p3): slots 0..3 in the low half, 4..7 in the high.
  const __m256 sums =
      _mm256_add_ps(_mm256_shuffle_ps(t01, t23, _MM_SHUFFLE(2, 0, 2, 0)),
                    _mm256_shuffle_ps(t01, t23, _MM_SHUFFLE(3, 1, 3, 1)));
  _mm256_storeu_ps(gv + s, sums);
}

void SpmmGradValuesAvx2(const int64_t* slot_rows, const int64_t* col_ids,
                        const float* g, const float* x, int64_t s0, int64_t s1,
                        int64_t c, float* gv) {
  const __m256i mask = TailMask(c % 8);
  int64_t s = s0;
  for (; s + 8 <= s1; s += 8) {
    // slot_rows ascends, so equal ends mean one row for all eight.
    if (slot_rows[s] == slot_rows[s + 7]) {
      SlotDot8<true>(slot_rows, col_ids, g, x, s, c, mask, gv);
    } else {
      SlotDot8<false>(slot_rows, col_ids, g, x, s, c, mask, gv);
    }
  }
  for (; s < s1; ++s) {
    gv[s] = SlotDot(g + slot_rows[s] * c, x + col_ids[s] * c, c, mask);
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
