// Copyright 2026 TGCRN Reproduction Authors
// Tensor kernel fuzzing: every shape-manipulation and broadcast kernel is
// checked against a straightforward reference implementation on random
// shapes, plus fast-path vs generic-path consistency checks, and the
// scalar-vs-AVX2 differential harness for the SIMD GEMM/vmath kernels.
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu_features.h"
#include "tensor/kernels/gemm.h"
#include "tensor/tensor.h"

namespace tgcrn {
namespace {

Shape RandomShape(Rng* rng, int64_t max_rank = 4, int64_t max_dim = 5) {
  const int64_t rank = rng->UniformInt(1, max_rank);
  Shape shape(rank);
  for (auto& d : shape) d = rng->UniformInt(1, max_dim);
  return shape;
}

// Reference elementwise-with-broadcast by explicit materialization.
Tensor ReferenceAdd(const Tensor& a, const Tensor& b) {
  const Shape out = BroadcastShapes(a.shape(), b.shape());
  return a.BroadcastTo(out).Add(b.BroadcastTo(out));
}

class BroadcastFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(BroadcastFuzzTest, BinaryOpsMatchMaterialized) {
  Rng rng(7000 + GetParam());
  // Build two broadcast-compatible shapes by degrading a base shape.
  Shape base = RandomShape(&rng);
  Shape sa = base, sb = base;
  for (size_t d = 0; d < base.size(); ++d) {
    if (rng.NextDouble() < 0.4) sa[d] = 1;
    if (rng.NextDouble() < 0.4) sb[d] = 1;
  }
  // Randomly strip leading dims from one side.
  if (rng.NextDouble() < 0.5 && sa.size() > 1) {
    sa.erase(sa.begin(), sa.begin() + rng.UniformInt(0, 1));
  }
  Tensor a = Tensor::RandUniform(sa, -2, 2, &rng);
  Tensor b = Tensor::RandUniform(sb, -2, 2, &rng);
  EXPECT_TRUE(a.Add(b).AllClose(ReferenceAdd(a, b), 1e-6f))
      << ShapeToString(sa) << " + " << ShapeToString(sb);
  // Sub/Mul through the same machinery (sanity on one op suffices for the
  // iterator; Mul exercises a different combiner).
  const Shape out = BroadcastShapes(a.shape(), b.shape());
  EXPECT_TRUE(a.Mul(b).AllClose(
      a.BroadcastTo(out).Mul(b.BroadcastTo(out)), 1e-6f));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BroadcastFuzzTest, ::testing::Range(0, 16));

class PermuteFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(PermuteFuzzTest, PermuteThenInverseIsIdentity) {
  Rng rng(8000 + GetParam());
  const Shape shape = RandomShape(&rng, 4, 5);
  Tensor x = Tensor::RandUniform(shape, -1, 1, &rng);
  std::vector<int64_t> perm(shape.size());
  std::iota(perm.begin(), perm.end(), 0);
  rng.Shuffle(&perm);
  Tensor permuted = x.Permute(perm);
  // Element-level spot checks against index arithmetic.
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<int64_t> idx(shape.size());
    for (size_t d = 0; d < shape.size(); ++d) {
      idx[d] = rng.UniformInt(0, shape[d] - 1);
    }
    std::vector<int64_t> pidx(shape.size());
    for (size_t d = 0; d < shape.size(); ++d) pidx[d] = idx[perm[d]];
    EXPECT_EQ(permuted.at(pidx), x.at(idx));
  }
  std::vector<int64_t> inverse(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) inverse[perm[i]] = i;
  EXPECT_TRUE(permuted.Permute(inverse).AllClose(x, 0.0f));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PermuteFuzzTest, ::testing::Range(0, 12));

class SliceFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SliceFuzzTest, SliceMatchesElementIndexing) {
  Rng rng(9000 + GetParam());
  const Shape shape = RandomShape(&rng, 3, 6);
  Tensor x = Tensor::RandUniform(shape, -1, 1, &rng);
  const int64_t axis = rng.UniformInt(0, x.dim() - 1);
  const int64_t start = rng.UniformInt(0, shape[axis] - 1);
  const int64_t end = rng.UniformInt(start + 1, shape[axis]);
  Tensor sliced = x.Slice(axis, start, end);
  EXPECT_EQ(sliced.size(axis), end - start);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<int64_t> idx(shape.size());
    for (int64_t d = 0; d < x.dim(); ++d) {
      idx[d] = rng.UniformInt(0, sliced.size(d) - 1);
    }
    std::vector<int64_t> src = idx;
    src[axis] += start;
    EXPECT_EQ(sliced.at(idx), x.at(src));
  }
  // Concat of complementary slices restores the original.
  if (start > 0 || end < shape[axis]) {
    std::vector<Tensor> parts;
    if (start > 0) parts.push_back(x.Slice(axis, 0, start));
    parts.push_back(sliced);
    if (end < shape[axis]) parts.push_back(x.Slice(axis, end, shape[axis]));
    EXPECT_TRUE(Tensor::Concat(parts, axis).AllClose(x, 0.0f));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SliceFuzzTest, ::testing::Range(0, 12));

TEST(SoftmaxPathTest, FastLastAxisMatchesGenericPath) {
  Rng rng(9500);
  // [B, N, N] softmax over the last axis (fast path) vs an equivalent
  // computation routed through the generic axis path via transpose.
  Tensor x = Tensor::RandUniform({3, 5, 5}, -8, 8, &rng);
  Tensor fast = x.Softmax(-1);
  Tensor generic = x.Transpose(1, 2).Softmax(1).Transpose(1, 2);
  EXPECT_TRUE(fast.AllClose(generic, 1e-5f));
}

TEST(ReduceFuzzTest, SumOverEveryAxisMatchesManual) {
  Rng rng(9600);
  Tensor x = Tensor::RandUniform({3, 4, 2}, -2, 2, &rng);
  for (int64_t axis = 0; axis < 3; ++axis) {
    Tensor reduced = x.Sum(axis);
    // Manual: iterate all elements, accumulate.
    Shape out_shape = x.shape();
    out_shape.erase(out_shape.begin() + axis);
    Tensor manual = Tensor::Zeros(out_shape);
    for (int64_t i = 0; i < x.size(0); ++i) {
      for (int64_t j = 0; j < x.size(1); ++j) {
        for (int64_t k = 0; k < x.size(2); ++k) {
          std::vector<int64_t> idx = {i, j, k};
          std::vector<int64_t> out_idx;
          for (int64_t d = 0; d < 3; ++d) {
            if (d != axis) out_idx.push_back(idx[d]);
          }
          manual.set(out_idx, manual.at(out_idx) + x.at(idx));
        }
      }
    }
    EXPECT_TRUE(reduced.AllClose(manual, 1e-5f)) << "axis " << axis;
  }
}

// ---- SIMD differential fuzzing ---------------------------------------------
// The scalar and AVX2 kernel tables must agree within FMA-contraction
// rounding. Tolerance is ulp-scaled per element: the |A|·|B| product
// bounds every partial sum, and each of the ~k+8 flops can contribute
// half an ulp of that bound. At a fixed ISA, results must be bitwise
// repeatable — and the scalar table bit-exactly matches libm/serial
// arithmetic, which the repeatability memcmp pins.

bool Avx2Available() {
  return common::Avx2CompiledIn() && common::CpuSupportsAvx2();
}

Tensor RunMatmul(const Tensor& a, const Tensor& b, int kind) {
  if (kind == 0) return a.Matmul(b);
  if (kind == 1) return a.MatmulTransposeA(b);
  return a.MatmulTransposeB(b);
}

bool BitwiseEqual(const Tensor& x, const Tensor& y) {
  return x.shape() == y.shape() &&
         std::memcmp(x.data(), y.data(),
                     static_cast<size_t>(x.numel()) * sizeof(float)) == 0;
}

void ExpectWithinScaledUlps(const Tensor& s, const Tensor& v,
                            const Tensor& bound, int64_t k,
                            const std::string& label) {
  ASSERT_EQ(s.shape(), v.shape()) << label;
  ASSERT_EQ(s.shape(), bound.shape()) << label;
  constexpr float kEps = 1.19209290e-7f;  // 2^-23
  const float scale = kEps * static_cast<float>(k + 8);
  const float* ps = s.data();
  const float* pv = v.data();
  const float* pb = bound.data();
  for (int64_t i = 0; i < s.numel(); ++i) {
    ASSERT_LE(std::fabs(ps[i] - pv[i]), scale * pb[i] + 1e-30f)
        << label << " at flat index " << i << ": scalar " << ps[i]
        << " vs avx2 " << pv[i];
  }
}

class SimdMatmulDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(SimdMatmulDifferentialTest, ScalarAndAvx2AgreeWithinUlps) {
  if (!Avx2Available()) GTEST_SKIP() << "AVX2 not available on this build";
  Rng rng(11000 + GetParam());
  // Boundary-rich dims: ragged panel tails (< kNr = 16), partial register
  // tiles (< kMr = 6), the packing cutover at m = 8, and exact tiles.
  const std::vector<int64_t> dims = {1, 2, 3, 5, 6, 7, 8, 9, 15, 16, 17, 33};
  auto pick = [&] { return dims[rng.UniformInt(0, 11)]; };
  for (int kind = 0; kind < 3; ++kind) {
    const int64_t m = pick(), k = pick(), n = pick();
    Shape sa = kind == 1 ? Shape{k, m} : Shape{m, k};
    Shape sb = kind == 2 ? Shape{n, k} : Shape{k, n};
    // Mix in batched and broadcast-batched variants.
    const int batching = rng.UniformInt(0, 2);
    if (batching == 1) {
      sa.insert(sa.begin(), rng.UniformInt(2, 4));
    } else if (batching == 2) {
      sa.insert(sa.begin(), {2, 1});
      sb.insert(sb.begin(), 3);
    }
    Tensor a = Tensor::RandUniform(sa, -2, 2, &rng);
    Tensor b = Tensor::RandUniform(sb, -2, 2, &rng);
    const std::string label = "kind " + std::to_string(kind) + ": " +
                              ShapeToString(sa) + " x " + ShapeToString(sb);

    Tensor s, v, bound;
    {
      common::ScopedSimdIsa pin(common::SimdIsa::kScalar);
      s = RunMatmul(a, b, kind);
      // Fixed-ISA exactness: a second run must be bit-identical.
      EXPECT_TRUE(BitwiseEqual(s, RunMatmul(a, b, kind))) << label;
      bound = RunMatmul(a.Abs(), b.Abs(), kind);
    }
    {
      common::ScopedSimdIsa pin(common::SimdIsa::kAvx2);
      v = RunMatmul(a, b, kind);
      EXPECT_TRUE(BitwiseEqual(v, RunMatmul(a, b, kind))) << label;
    }
    ExpectWithinScaledUlps(s, v, bound, k, label);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdMatmulDifferentialTest,
                         ::testing::Range(0, 20));

TEST(SimdMatmulDifferentialTest, ReduceDimCrossesCacheBlock) {
  if (!Avx2Available()) GTEST_SKIP() << "AVX2 not available on this build";
  Rng rng(11500);
  // k spanning the kKc = 256 cache block: the AVX2 packed kernel
  // accumulates later k-chunks into C from memory, which must not change
  // agreement (or fixed-ISA bits).
  for (const int64_t k : {255, 256, 257, 300}) {
    for (int kind = 0; kind < 3; ++kind) {
      const int64_t m = 9, n = 17;
      const Shape sa = kind == 1 ? Shape{k, m} : Shape{m, k};
      const Shape sb = kind == 2 ? Shape{n, k} : Shape{k, n};
      Tensor a = Tensor::RandUniform(sa, -1, 1, &rng);
      Tensor b = Tensor::RandUniform(sb, -1, 1, &rng);
      const std::string label =
          "kind " + std::to_string(kind) + " k=" + std::to_string(k);
      Tensor s, v, bound;
      {
        common::ScopedSimdIsa pin(common::SimdIsa::kScalar);
        s = RunMatmul(a, b, kind);
        bound = RunMatmul(a.Abs(), b.Abs(), kind);
      }
      {
        common::ScopedSimdIsa pin(common::SimdIsa::kAvx2);
        v = RunMatmul(a, b, kind);
        EXPECT_TRUE(BitwiseEqual(v, RunMatmul(a, b, kind))) << label;
      }
      ExpectWithinScaledUlps(s, v, bound, k, label);
    }
  }
}

TEST(SimdMatmulDifferentialTest, SlicedOperandsMatch) {
  if (!Avx2Available()) GTEST_SKIP() << "AVX2 not available on this build";
  Rng rng(11600);
  // Operands carved out of larger tensors (materialized strided views).
  Tensor big_a = Tensor::RandUniform({12, 40}, -2, 2, &rng);
  Tensor big_b = Tensor::RandUniform({40, 25}, -2, 2, &rng);
  Tensor a = big_a.Slice(0, 3, 10).Slice(1, 5, 24);   // (7, 19)
  Tensor b = big_b.Slice(0, 5, 24).Slice(1, 2, 23);   // (19, 21)
  Tensor s, v, bound;
  {
    common::ScopedSimdIsa pin(common::SimdIsa::kScalar);
    s = a.Matmul(b);
    bound = a.Abs().Matmul(b.Abs());
  }
  {
    common::ScopedSimdIsa pin(common::SimdIsa::kAvx2);
    v = a.Matmul(b);
  }
  ExpectWithinScaledUlps(s, v, bound, 19, "sliced operands");
}

// gather_dots computes single elements of A * B^T against gathered
// columns; each must be bitwise the element gemm_rows computes against
// the packed B^T, at each ISA (the sparse TagSL walk relies on it).
TEST(GemmGatherDotsTest, MatchesGemmRowsBitwise) {
  std::vector<common::SimdIsa> isas = {common::SimdIsa::kScalar};
  if (Avx2Available()) isas.push_back(common::SimdIsa::kAvx2);
  Rng rng(12000);
  const int64_t n = 37;
  for (const common::SimdIsa isa : isas) {
    const gemm::Kernels& kernels = gemm::GetKernels(isa);
    // k past the 256-wide reduce block, and counts with and without an
    // 8-lane tail; columns repeat and come in any order.
    for (const int64_t k : {1, 2, 3, 8, 17, 300}) {
      const Tensor a = Tensor::RandUniform({k}, -2, 2, &rng);
      const Tensor b = Tensor::RandUniform({n, k}, -2, 2, &rng);
      std::vector<float> packed(gemm::PackedBCount(k, n));
      kernels.pack_b(b.data(), k, n, /*transpose_b=*/true, packed.data());
      std::vector<float> row(n);
      kernels.gemm_rows(a.data(), k, 1, packed.data(), 0, 1, k, n,
                        row.data(), n);
      for (const int64_t count : {1, 8, 16, 23}) {
        std::vector<int32_t> cols(count);
        for (int32_t& c : cols) {
          c = static_cast<int32_t>(rng.UniformInt(0, n - 1));
        }
        std::vector<float> got(count);
        kernels.gather_dots(a.data(), b.data(), cols.data(), count, k,
                            got.data());
        for (int64_t u = 0; u < count; ++u) {
          ASSERT_EQ(std::memcmp(&got[u], &row[cols[u]], sizeof(float)), 0)
              << common::SimdIsaName(isa) << " k=" << k << " count=" << count
              << " u=" << u << ": " << got[u] << " vs " << row[cols[u]];
        }
      }
    }
  }
}

TEST(SimdVmathDifferentialTest, TranscendentalsMatchLibmWithinTolerance) {
  if (!Avx2Available()) GTEST_SKIP() << "AVX2 not available on this build";
  Rng rng(11700);
  // Lengths 1..17 cover every sub-vector tail (lanes = 8) plus both
  // full-vector sides of it; 1000 exercises chunked parallel ranges.
  for (int64_t len = 1; len <= 17; ++len) {
    SCOPED_TRACE(len);
    Tensor x = Tensor::RandUniform({len}, -9, 9, &rng);
    Tensor es, ev, ss, sv, ts, tv;
    {
      common::ScopedSimdIsa pin(common::SimdIsa::kScalar);
      es = x.Exp();
      ss = x.Sigmoid();
      ts = x.Tanh();
      // Scalar path is libm exactly.
      for (int64_t i = 0; i < len; ++i) {
        EXPECT_EQ(es.flat(i), std::exp(x.flat(i)));
        EXPECT_EQ(ts.flat(i), std::tanh(x.flat(i)));
      }
    }
    {
      common::ScopedSimdIsa pin(common::SimdIsa::kAvx2);
      ev = x.Exp();
      sv = x.Sigmoid();
      tv = x.Tanh();
      EXPECT_TRUE(BitwiseEqual(ev, x.Exp()));
    }
    for (int64_t i = 0; i < len; ++i) {
      // Minimax-polynomial error is a few ulp relative for exp, and
      // absolute (outputs in [-1, 1]) for sigmoid/tanh.
      EXPECT_LE(std::fabs(es.flat(i) - ev.flat(i)),
                2e-6f * std::fabs(es.flat(i)) + 1e-30f);
      EXPECT_LE(std::fabs(ss.flat(i) - sv.flat(i)), 2e-6f);
      EXPECT_LE(std::fabs(ts.flat(i) - tv.flat(i)), 2e-6f);
    }
  }
  // Long input: chunk boundaries at any thread count must not change the
  // AVX2 bits (lanewise kernels are position-independent).
  Tensor x = Tensor::RandUniform({1000}, -9, 9, &rng);
  common::ScopedSimdIsa pin(common::SimdIsa::kAvx2);
  Tensor y = x.Sigmoid();
  EXPECT_TRUE(BitwiseEqual(y, x.Sigmoid()));
}

TEST(EdgeCaseTest, SingleElementAndDegenerateShapes) {
  Tensor scalar = Tensor::Scalar(3.0f);
  EXPECT_EQ(scalar.Add(scalar).item(), 6.0f);
  Tensor one = Tensor::Ones({1, 1, 1});
  EXPECT_EQ(one.Sum(1).shape(), (Shape{1, 1}));
  EXPECT_EQ(one.Softmax(-1).item(), 1.0f);
  // Length-1 axis slice round trip.
  Tensor row = Tensor::Arange(4).Reshape({1, 4});
  EXPECT_TRUE(row.Slice(0, 0, 1).AllClose(row));
}

}  // namespace
}  // namespace tgcrn
