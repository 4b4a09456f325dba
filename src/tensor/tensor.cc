// Copyright 2026 TGCRN Reproduction Authors
#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "tensor/buffer_pool.h"
#include "tensor/kernels/gemm.h"
#include "tensor/kernels/vmath.h"

namespace tgcrn {
namespace {

// Counts storage that enters a tensor from outside the buffer pool
// (FromVector's adopted vector). Pool-served storage is counted inside
// TensorBufferPool (misses only), so tensor.allocations tracks real heap
// allocations; shared-storage copies are free and not counted.
void CountExternalAllocation(int64_t numel) {
  static obs::Counter* allocs =
      obs::Registry::Global().GetCounter("tensor.allocations");
  static obs::Counter* bytes =
      obs::Registry::Global().GetCounter("tensor.allocated_bytes");
  allocs->Add(1);
  bytes->Add(numel * static_cast<int64_t>(sizeof(float)));
}

// Counts GEMM / vmath kernel dispatches per ISA level (simd.* counters
// in the metric registry) so tests can assert TGCRN_ISA is honored.
void CountGemmDispatch(common::SimdIsa isa) {
  static obs::Counter* scalar_calls =
      obs::Registry::Global().GetCounter("simd.gemm_scalar_calls");
  static obs::Counter* avx2_calls =
      obs::Registry::Global().GetCounter("simd.gemm_avx2_calls");
  (isa == common::SimdIsa::kAvx2 ? avx2_calls : scalar_calls)->Add(1);
}

void CountVmathDispatch(common::SimdIsa isa) {
  static obs::Counter* scalar_calls =
      obs::Registry::Global().GetCounter("simd.vmath_scalar_calls");
  static obs::Counter* avx2_calls =
      obs::Registry::Global().GetCounter("simd.vmath_avx2_calls");
  (isa == common::SimdIsa::kAvx2 ? avx2_calls : scalar_calls)->Add(1);
}

// Chunk-parallel elementwise map through a dispatching vmath kernel
// (tensor/kernels/vmath.h). The kernels are lanewise — each element's
// bits depend only on that element — so chunk boundaries and sub-vector
// tails never change results.
Tensor MapVmath(const Tensor& t,
                void (*fn)(const float*, float*, int64_t)) {
  Tensor out(t.shape());
  const float* p = t.data();
  float* o = out.mutable_data();
  common::ParallelFor(0, t.numel(), kElemwiseGrain,
                      [&](int64_t s, int64_t e) { fn(p + s, o + s, e - s); });
  return out;
}

// Minimum multiply-accumulate operations per matmul chunk.
constexpr int64_t kMatmulGrainFlops = 4096;
// Fixed chunk length of DeterministicChunkedSum reductions. Part of the
// numeric contract: changing it changes the bits of SumAll on tensors
// larger than one chunk (but never the cross-thread-count determinism).
constexpr int64_t kReductionChunk = 2048;

// Row-major strides for a shape.
std::vector<int64_t> StridesFor(const Shape& shape) {
  std::vector<int64_t> strides(shape.size(), 1);
  for (int64_t i = static_cast<int64_t>(shape.size()) - 2; i >= 0; --i) {
    strides[i] = strides[i + 1] * shape[i + 1];
  }
  return strides;
}

// Strides of operand `shape` viewed through broadcast target `out_shape`:
// 0 where the operand dimension is absent or broadcast.
std::vector<int64_t> EffectiveStrides(const Shape& out_shape,
                                      const Shape& shape) {
  const int64_t rank = static_cast<int64_t>(out_shape.size());
  const auto full = StridesFor(shape);
  std::vector<int64_t> strides(rank, 0);
  const int64_t off = rank - static_cast<int64_t>(shape.size());
  for (int64_t d = 0; d < rank; ++d) {
    if (d >= off && shape[d - off] != 1) strides[d] = full[d - off];
  }
  return strides;
}

// Iterates flat output positions [begin, end) of the cartesian product of
// `out_shape`, tracking offsets into two broadcast operands via their
// effective strides, and calls fn(out_flat, a_off, b_off). Restricted to a
// subrange so broadcast kernels can be chunked across threads: each chunk
// reconstructs its starting multi-index by div/mod, then walks
// incrementally.
template <typename Fn>
void BroadcastIterateRange(const Shape& out_shape,
                           const std::vector<int64_t>& a_strides,
                           const std::vector<int64_t>& b_strides,
                           int64_t begin, int64_t end, Fn fn) {
  const int64_t rank = static_cast<int64_t>(out_shape.size());
  std::vector<int64_t> index(rank, 0);
  int64_t a_off = 0, b_off = 0;
  int64_t rem = begin;
  for (int64_t d = rank - 1; d >= 0; --d) {
    index[d] = rem % out_shape[d];
    rem /= out_shape[d];
    a_off += index[d] * a_strides[d];
    b_off += index[d] * b_strides[d];
  }
  for (int64_t flat = begin; flat < end; ++flat) {
    fn(flat, a_off, b_off);
    // Increment the multi-index from the last axis, updating offsets.
    for (int64_t d = rank - 1; d >= 0; --d) {
      ++index[d];
      a_off += a_strides[d];
      b_off += b_strides[d];
      if (index[d] < out_shape[d]) break;
      index[d] = 0;
      a_off -= a_strides[d] * out_shape[d];
      b_off -= b_strides[d] * out_shape[d];
    }
  }
}

// Parallel broadcast iteration over the whole output. Chunk boundaries
// cannot change any output element, so results are bitwise identical at
// every thread count.
template <typename Fn>
void BroadcastIterate(const Shape& out_shape, const Shape& a_shape,
                      const Shape& b_shape, Fn fn) {
  const int64_t n = ShapeNumel(out_shape);
  if (n == 0) return;
  const auto a_strides = EffectiveStrides(out_shape, a_shape);
  const auto b_strides = EffectiveStrides(out_shape, b_shape);
  common::ParallelFor(0, n, kElemwiseGrain, [&](int64_t s, int64_t e) {
    BroadcastIterateRange(out_shape, a_strides, b_strides, s, e, fn);
  });
}

}  // namespace

std::string ShapeToString(const Shape& shape) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) out << ", ";
    out << shape[i];
  }
  out << "]";
  return out.str();
}

int64_t ShapeNumel(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    TGCRN_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

Shape BroadcastShapes(const Shape& a, const Shape& b) {
  const size_t rank = std::max(a.size(), b.size());
  Shape out(rank);
  for (size_t i = 0; i < rank; ++i) {
    const int64_t da =
        i < rank - a.size() ? 1 : a[i - (rank - a.size())];
    const int64_t db =
        i < rank - b.size() ? 1 : b[i - (rank - b.size())];
    TGCRN_CHECK(da == db || da == 1 || db == 1)
        << "incompatible broadcast: " << ShapeToString(a) << " vs "
        << ShapeToString(b);
    out[i] = std::max(da, db);
  }
  return out;
}

namespace {

// Shared immutable zero-length storage backing every empty tensor. Default
// construction happens on hot paths that must not touch the allocator in
// steady state — e.g. Backward() releasing interior grads via
// `grad = Tensor()` once per op node per step — and an empty vector can
// never be written through (numel == 0), so one instance serves them all.
// Leaked so tensors alive during static destruction stay valid.
const std::shared_ptr<std::vector<float>>& EmptyStorage() {
  static const auto* storage = new std::shared_ptr<std::vector<float>>(
      std::make_shared<std::vector<float>>());
  return *storage;
}

}  // namespace

Tensor::Tensor() : shape_{0}, data_(EmptyStorage()) {}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  const int64_t numel = ShapeNumel(shape_);
  data_ = numel == 0 ? EmptyStorage()
                     : TensorBufferPool::Global().AcquireZeroed(numel);
}

Tensor Tensor::ForOverwrite(Shape shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  const int64_t numel = ShapeNumel(t.shape_);
  t.data_ = numel == 0
                ? EmptyStorage()
                : TensorBufferPool::Global().AcquireForOverwrite(numel);
  return t;
}

Tensor Tensor::Zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::Ones(Shape shape) { return Full(std::move(shape), 1.0f); }

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.FillInplace(value);
  return t;
}

Tensor Tensor::Scalar(float value) {
  Tensor t{Shape{}};
  (*t.data_).assign(1, value);
  return t;
}

Tensor Tensor::FromVector(Shape shape, std::vector<float> values) {
  TGCRN_CHECK_EQ(ShapeNumel(shape), static_cast<int64_t>(values.size()));
  Tensor t;
  t.shape_ = std::move(shape);
  // Adopts the caller's storage (not pool-recyclable; make_shared embeds
  // the vector in the control block, so the deleter is the default one).
  t.data_ = std::make_shared<std::vector<float>>(std::move(values));
  CountExternalAllocation(t.numel());
  return t;
}

Tensor Tensor::Arange(int64_t n) {
  std::vector<float> values(n);
  std::iota(values.begin(), values.end(), 0.0f);
  return FromVector({n}, std::move(values));
}

Tensor Tensor::Eye(int64_t n) {
  Tensor t(Shape{n, n});
  for (int64_t i = 0; i < n; ++i) t.set_flat(i * n + i, 1.0f);
  return t;
}

Tensor Tensor::RandUniform(Shape shape, float lo, float hi, Rng* rng) {
  TGCRN_CHECK(rng != nullptr);
  Tensor t(std::move(shape));
  for (auto& v : *t.data_) v = rng->Uniform(lo, hi);
  return t;
}

Tensor Tensor::RandNormal(Shape shape, float mean, float stddev, Rng* rng) {
  TGCRN_CHECK(rng != nullptr);
  Tensor t(std::move(shape));
  for (auto& v : *t.data_) {
    v = static_cast<float>(rng->Gaussian(mean, stddev));
  }
  return t;
}

int64_t Tensor::size(int64_t axis) const {
  if (axis < 0) axis += dim();
  TGCRN_CHECK_GE(axis, 0);
  TGCRN_CHECK_LT(axis, dim());
  return shape_[axis];
}

int64_t Tensor::FlatIndex(const std::vector<int64_t>& index) const {
  TGCRN_CHECK_EQ(static_cast<int64_t>(index.size()), dim());
  int64_t flat = 0;
  for (int64_t d = 0; d < dim(); ++d) {
    TGCRN_CHECK_GE(index[d], 0);
    TGCRN_CHECK_LT(index[d], shape_[d]);
    flat = flat * shape_[d] + index[d];
  }
  return flat;
}

float Tensor::at(const std::vector<int64_t>& index) const {
  return (*data_)[FlatIndex(index)];
}

void Tensor::set(const std::vector<int64_t>& index, float value) {
  (*data_)[FlatIndex(index)] = value;
}

float Tensor::item() const {
  TGCRN_CHECK_EQ(numel(), 1);
  return (*data_)[0];
}

Tensor Tensor::Clone() const {
  Tensor t;
  t.shape_ = shape_;
  t.data_ = TensorBufferPool::Global().AcquireCopy(data(), numel());
  return t;
}

namespace {

template <typename Fn>
Tensor BinaryOp(const Tensor& a, const Tensor& b, Fn fn) {
  // Fast path: identical shapes.
  if (a.SameShape(b)) {
    Tensor out(a.shape());
    float* o = out.mutable_data();
    const float* pa = a.data();
    const float* pb = b.data();
    common::ParallelFor(0, a.numel(), kElemwiseGrain,
                        [&](int64_t s, int64_t e) {
                          for (int64_t i = s; i < e; ++i) {
                            o[i] = fn(pa[i], pb[i]);
                          }
                        });
    return out;
  }
  const Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  Tensor out(out_shape);
  float* o = out.mutable_data();
  const float* pa = a.data();
  const float* pb = b.data();
  BroadcastIterate(out_shape, a.shape(), b.shape(),
                   [&](int64_t of, int64_t ia, int64_t ib) {
                     o[of] = fn(pa[ia], pb[ib]);
                   });
  return out;
}

}  // namespace

Tensor Tensor::Add(const Tensor& other) const {
  return BinaryOp(*this, other, [](float x, float y) { return x + y; });
}
Tensor Tensor::Sub(const Tensor& other) const {
  return BinaryOp(*this, other, [](float x, float y) { return x - y; });
}
Tensor Tensor::Mul(const Tensor& other) const {
  return BinaryOp(*this, other, [](float x, float y) { return x * y; });
}
Tensor Tensor::Div(const Tensor& other) const {
  return BinaryOp(*this, other, [](float x, float y) { return x / y; });
}
Tensor Tensor::Maximum(const Tensor& other) const {
  return BinaryOp(*this, other,
                  [](float x, float y) { return std::max(x, y); });
}
Tensor Tensor::Minimum(const Tensor& other) const {
  return BinaryOp(*this, other,
                  [](float x, float y) { return std::min(x, y); });
}

// The named unary ops all go through MapT so the functor is inlined into
// the kernel loop; Map keeps the type-erased std::function path for
// callers that need it (cold code, caller-supplied functions).
Tensor Tensor::AddScalar(float value) const {
  return MapT([value](float x) { return x + value; });
}
Tensor Tensor::MulScalar(float value) const {
  return MapT([value](float x) { return x * value; });
}

Tensor Tensor::Map(const std::function<float(float)>& fn) const {
  return MapT([&fn](float x) { return fn(x); });
}

// Exp/Tanh/Sigmoid route through the ISA-dispatched vmath kernels
// (AVX2 minimax polynomials, or libm on the scalar path — bit-identical
// to the old MapT lambdas). The remaining unary ops stay on MapT.
// The vmath flop models are nominal per-element polynomial costs (the
// scalar libm path spends more, the AVX2 minimax path about this much);
// traffic is one read + one write per element. Shape-only, so profiles
// carry the same counts for every ISA and thread count.
Tensor Tensor::Exp() const {
  TGCRN_TRACE_SCOPE("tensor.Exp");
  CountVmathDispatch(common::ActiveSimdIsa());
  obs::RecordKernelCost("tensor.Exp", 8.0 * static_cast<double>(numel()),
                        8.0 * static_cast<double>(numel()));
  return MapVmath(*this, vmath::ExpN);
}
Tensor Tensor::Log() const {
  return MapT([](float x) { return std::log(x); });
}
Tensor Tensor::Sqrt() const {
  return MapT([](float x) { return std::sqrt(x); });
}
Tensor Tensor::Abs() const {
  return MapT([](float x) { return std::fabs(x); });
}
Tensor Tensor::Tanh() const {
  TGCRN_TRACE_SCOPE("tensor.Tanh");
  CountVmathDispatch(common::ActiveSimdIsa());
  obs::RecordKernelCost("tensor.Tanh", 12.0 * static_cast<double>(numel()),
                        8.0 * static_cast<double>(numel()));
  return MapVmath(*this, vmath::TanhN);
}
Tensor Tensor::Sigmoid() const {
  TGCRN_TRACE_SCOPE("tensor.Sigmoid");
  CountVmathDispatch(common::ActiveSimdIsa());
  obs::RecordKernelCost("tensor.Sigmoid", 10.0 * static_cast<double>(numel()),
                        8.0 * static_cast<double>(numel()));
  return MapVmath(*this, vmath::SigmoidN);
}
Tensor Tensor::Relu() const {
  return MapT([](float x) { return x > 0.0f ? x : 0.0f; });
}
Tensor Tensor::Pow(float exponent) const {
  return MapT([exponent](float x) { return std::pow(x, exponent); });
}

void Tensor::AddInplace(const Tensor& other) {
  TGCRN_CHECK(SameShape(other))
      << ShapeToString(shape_) << " vs " << ShapeToString(other.shape_);
  float* p = mutable_data();
  const float* q = other.data();
  common::ParallelFor(0, numel(), kElemwiseGrain, [&](int64_t s, int64_t e) {
    for (int64_t i = s; i < e; ++i) p[i] += q[i];
  });
}

void Tensor::AddScaledInplace(const Tensor& other, float alpha) {
  TGCRN_CHECK(SameShape(other))
      << ShapeToString(shape_) << " vs " << ShapeToString(other.shape_);
  float* p = mutable_data();
  const float* q = other.data();
  common::ParallelFor(0, numel(), kElemwiseGrain, [&](int64_t s, int64_t e) {
    for (int64_t i = s; i < e; ++i) p[i] += alpha * q[i];
  });
}

void Tensor::AddProductInplace(const Tensor& a, const Tensor& b) {
  TGCRN_CHECK(SameShape(a) && SameShape(b))
      << ShapeToString(shape_) << " vs " << ShapeToString(a.shape())
      << " vs " << ShapeToString(b.shape());
  float* p = mutable_data();
  const float* pa = a.data();
  const float* pb = b.data();
  common::ParallelFor(0, numel(), kElemwiseGrain, [&](int64_t s, int64_t e) {
    for (int64_t i = s; i < e; ++i) p[i] += pa[i] * pb[i];
  });
}

void Tensor::AddSliceInplace(int64_t axis, int64_t start,
                             const Tensor& other) {
  if (axis < 0) axis += dim();
  TGCRN_CHECK_EQ(other.dim(), dim());
  for (int64_t d = 0; d < dim(); ++d) {
    if (d != axis) TGCRN_CHECK_EQ(other.shape()[d], shape_[d]);
  }
  const int64_t span = other.shape()[axis];
  TGCRN_CHECK_GE(start, 0);
  TGCRN_CHECK_LE(start + span, shape_[axis]);
  int64_t outer = 1, inner = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= shape_[d];
  for (int64_t d = axis + 1; d < dim(); ++d) inner *= shape_[d];
  const int64_t axis_len = shape_[axis];
  float* p = mutable_data();
  const float* q = other.data();
  for (int64_t ou = 0; ou < outer; ++ou) {
    float* dst = p + (ou * axis_len + start) * inner;
    const float* src = q + ou * span * inner;
    for (int64_t i = 0; i < span * inner; ++i) dst[i] += src[i];
  }
}

void Tensor::IndexAdd0Inplace(const std::vector<int64_t>& indices,
                              const Tensor& other) {
  TGCRN_CHECK_GE(dim(), 1);
  TGCRN_CHECK_EQ(other.dim(), dim());
  TGCRN_CHECK_EQ(other.shape()[0], static_cast<int64_t>(indices.size()));
  int64_t inner = 1;
  for (int64_t d = 1; d < dim(); ++d) {
    TGCRN_CHECK_EQ(other.shape()[d], shape_[d]);
    inner *= shape_[d];
  }
  float* p = mutable_data();
  const float* q = other.data();
  for (size_t i = 0; i < indices.size(); ++i) {
    const int64_t row = indices[i];
    TGCRN_CHECK_GE(row, 0);
    TGCRN_CHECK_LT(row, shape_[0]);
    float* dst = p + row * inner;
    const float* src = q + i * inner;
    for (int64_t j = 0; j < inner; ++j) dst[j] += src[j];
  }
}

void Tensor::ScaleInplace(float value) {
  float* p = mutable_data();
  common::ParallelFor(0, numel(), kElemwiseGrain, [&](int64_t s, int64_t e) {
    for (int64_t i = s; i < e; ++i) p[i] *= value;
  });
}

void Tensor::FillInplace(float value) {
  std::fill(data_->begin(), data_->end(), value);
}

namespace {

// Which operand the batched matmul driver reads transposed. The transposed
// side is read through strides; no transpose copy is materialized.
enum class MatmulMode { kNN, kTransposeA, kTransposeB };

// Shared batched-matmul driver. Per mode (reduce dim `red`):
//   kNN:         A (..., m, red) x B (..., red, n) -> (..., m, n)
//   kTransposeA: A (..., red, m) x B (..., red, n) -> A^T B = (..., m, n)
//   kTransposeB: A (..., m, red) x B (..., n, red) -> A B^T = (..., m, n)
// Batch dims broadcast NumPy-style in all modes.
//
// The arithmetic lives in the ISA-dispatched GEMM kernel tables
// (tensor/kernels/gemm.h). The driver packs each unique B matrix into
// kNr-wide panels once (skipped for tall-skinny outputs where packing
// traffic would rival the multiply), then parallelizes over the
// flattened batch x row dimension. Per output element every kernel
// accumulates over `red` in ascending order with a structure fixed by
// the shapes, so results are bitwise identical at every thread count
// at a fixed ISA level; TGCRN_ISA=scalar
// reproduces the legacy serial loops bit for bit.
Tensor BatchedMatmulImpl(const Tensor& a, const Tensor& b, MatmulMode mode) {
  TGCRN_CHECK_GE(a.dim(), 2);
  TGCRN_CHECK_GE(b.dim(), 2);
  const Shape& a_shape = a.shape();
  const Shape& b_shape = b.shape();
  const int64_t a_rows = a_shape[a.dim() - 2];
  const int64_t a_cols = a_shape[a.dim() - 1];
  const int64_t b_rows = b_shape[b.dim() - 2];
  const int64_t b_cols = b_shape[b.dim() - 1];
  const int64_t m = mode == MatmulMode::kTransposeA ? a_cols : a_rows;
  const int64_t red = mode == MatmulMode::kTransposeA ? a_rows : a_cols;
  const int64_t n = mode == MatmulMode::kTransposeB ? b_rows : b_cols;
  const int64_t b_red = mode == MatmulMode::kTransposeB ? b_cols : b_rows;
  TGCRN_CHECK_EQ(red, b_red)
      << "matmul inner-dim mismatch: " << ShapeToString(a_shape) << " x "
      << ShapeToString(b_shape);
  // Broadcast the batch dims.
  Shape a_batch(a_shape.begin(), a_shape.end() - 2);
  Shape b_batch(b_shape.begin(), b_shape.end() - 2);
  Shape batch = BroadcastShapes(a_batch, b_batch);
  Shape out_shape = batch;
  out_shape.push_back(m);
  out_shape.push_back(n);
  // Every kernel path below overwrites every output element, so the
  // zero-fill of a normal construction would be pure overhead.
  Tensor out = Tensor::ForOverwrite(out_shape);

  const int64_t batch_n = ShapeNumel(batch);

  // Analytic cost (shape-only, so identical for every ISA and thread
  // count): 2 flops per multiply-accumulate; logical traffic reads each
  // operand once and writes the output (fp32). The kernel name matches
  // the entry point's span so the cost lands on the open scope.
  obs::RecordKernelCost(
      mode == MatmulMode::kTransposeA   ? "tensor.MatmulTransposeA"
      : mode == MatmulMode::kTransposeB ? "tensor.MatmulTransposeB"
                                        : "tensor.Matmul",
      2.0 * static_cast<double>(batch_n) * static_cast<double>(m) *
          static_cast<double>(n) * static_cast<double>(red),
      4.0 * (static_cast<double>(a.numel()) + static_cast<double>(b.numel()) +
             static_cast<double>(batch_n) * static_cast<double>(m) *
                 static_cast<double>(n)));

  // Walk the broadcast batch index once up front, recording which operand
  // matrix each output matrix reads; the row loop below is then free to
  // run in any order across threads. When neither operand broadcasts the
  // map is the identity (a null map below) and the walk is skipped.
  const bool dense_batch = a_batch == batch && b_batch == batch;
  std::vector<int64_t> a_mats, b_mats;
  if (!dense_batch) {
    const int64_t rank = static_cast<int64_t>(batch.size());
    const auto a_strides = EffectiveStrides(batch, a_batch);
    const auto b_strides = EffectiveStrides(batch, b_batch);
    a_mats.resize(batch_n);
    b_mats.resize(batch_n);
    std::vector<int64_t> index(rank, 0);
    int64_t a_mat = 0, b_mat = 0;
    for (int64_t bi = 0; bi < batch_n; ++bi) {
      a_mats[bi] = a_mat;
      b_mats[bi] = b_mat;
      for (int64_t d = rank - 1; d >= 0; --d) {
        ++index[d];
        a_mat += a_strides[d];
        b_mat += b_strides[d];
        if (index[d] < batch[d]) break;
        index[d] = 0;
        a_mat -= a_strides[d] * batch[d];
        b_mat -= b_strides[d] * batch[d];
      }
    }
  }
  // Null means identity (matrix bi reads operand matrix bi).
  const int64_t* a_map = dense_batch ? nullptr : a_mats.data();
  const int64_t* b_map = dense_batch ? nullptr : b_mats.data();

  const int64_t a_mat_elems = a_rows * a_cols;
  const int64_t b_mat_elems = b_rows * b_cols;
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.mutable_data();
  if (batch_n * m * n == 0) return out;

  const common::SimdIsa isa = common::ActiveSimdIsa();
  const gemm::Kernels& kern = gemm::GetKernels(isa);
  CountGemmDispatch(isa);

  // A is addressed as the logical (m x red) left operand via strides;
  // the transpose-A mode reads its (red x m) buffer in place.
  const int64_t ars = mode == MatmulMode::kTransposeA ? 1 : red;
  const int64_t acs = mode == MatmulMode::kTransposeA ? m : 1;
  const int64_t grain_rows = std::max<int64_t>(
      1, kMatmulGrainFlops / std::max<int64_t>(1, red * n));

  if (m == 1 && mode != MatmulMode::kTransposeB) {
    // Batch of row vectors times a batch of matrices: the matrix loop
    // lives inside the kernel, one indirect call per chunk. With m == 1
    // the transpose-A operand is a (red x 1) column, contiguous like the
    // kNN row, so both modes share this path.
    common::ParallelFor(
        0, batch_n, grain_rows, [&](int64_t mat_b, int64_t mat_e) {
          kern.m1_batch(pa, a_map, a_mat_elems, pb, b_map, b_mat_elems, mat_b,
                        mat_e, red, n, po);
        });
    return out;
  }

  if (m < gemm::kSmallMCutover) {
    // Tall-skinny outputs: no packing, B is read in place.
    common::ParallelFor(
        0, batch_n * m, grain_rows, [&](int64_t row_begin, int64_t row_end) {
          int64_t r = row_begin;
          while (r < row_end) {
            const int64_t bi = r / m;
            const int64_t i = r - bi * m;
            const int64_t run = std::min(row_end - r, m - i);
            const float* A = pa + (a_map ? a_map[bi] : bi) * a_mat_elems;
            const float* B = pb + (b_map ? b_map[bi] : bi) * b_mat_elems;
            float* C = po + bi * m * n;
            if (mode == MatmulMode::kTransposeB) {
              kern.dot_rows(A, B, i, i + run, red, n, C);
            } else {
              kern.gemm_rows_direct(A, ars, acs, B, i, i + run, red, n, C);
            }
            r += run;
          }
        });
    return out;
  }

  // Packed path: repack each unique B matrix into panels once (parallel
  // over matrices; ParallelFor is a barrier, so the row pass below never
  // races the packing). Pack scratch comes from the buffer pool, rounded
  // up to the pool's minimum bucket so steady-state training stays
  // allocation-free.
  const int64_t b_unique = ShapeNumel(b_batch);
  const int64_t per_matrix = gemm::PackedBCount(red, n);
  std::shared_ptr<std::vector<float>> pack_storage;
  const float* packed = nullptr;
  if (per_matrix > 0) {
    pack_storage = TensorBufferPool::Global().AcquireForOverwrite(
        std::max<int64_t>(b_unique * per_matrix, 256));
    float* pack = pack_storage->data();
    common::ParallelFor(0, b_unique, 1, [&](int64_t mat_b, int64_t mat_e) {
      for (int64_t mi = mat_b; mi < mat_e; ++mi) {
        kern.pack_b(pb + mi * b_mat_elems, red, n,
                    mode == MatmulMode::kTransposeB, pack + mi * per_matrix);
      }
    });
    packed = pack;
  }
  common::ParallelFor(
      0, batch_n * m, grain_rows, [&](int64_t row_begin, int64_t row_end) {
        int64_t r = row_begin;
        while (r < row_end) {
          const int64_t bi = r / m;
          const int64_t i = r - bi * m;
          const int64_t run = std::min(row_end - r, m - i);
          const float* A = pa + (a_map ? a_map[bi] : bi) * a_mat_elems;
          float* C = po + bi * m * n;
          kern.gemm_rows(A, ars, acs,
                         packed + (b_map ? b_map[bi] : bi) * per_matrix, i,
                         i + run, red, n, C, n);
          r += run;
        }
      });
  return out;
}

}  // namespace

Tensor Tensor::Matmul(const Tensor& other) const {
  TGCRN_TRACE_SCOPE("tensor.Matmul");
  return BatchedMatmulImpl(*this, other, MatmulMode::kNN);
}

Tensor Tensor::MatmulTransposeA(const Tensor& other) const {
  TGCRN_TRACE_SCOPE("tensor.MatmulTransposeA");
  return BatchedMatmulImpl(*this, other, MatmulMode::kTransposeA);
}

Tensor Tensor::MatmulTransposeB(const Tensor& other) const {
  TGCRN_TRACE_SCOPE("tensor.MatmulTransposeB");
  // The GEMM core absorbs the transpose at packing time (B is packed
  // column-major into the same panel layout), so no transpose copy is
  // ever materialized; tall-skinny outputs take the SIMD dot-row kernel
  // instead of packing. The old materialized-transpose cutover is gone.
  return BatchedMatmulImpl(*this, other, MatmulMode::kTransposeB);
}

Tensor Tensor::Reshape(Shape new_shape) const {
  // Resolve a single -1 dimension.
  int64_t known = 1;
  int64_t infer = -1;
  for (size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      TGCRN_CHECK_EQ(infer, -1) << "at most one -1 dim";
      infer = static_cast<int64_t>(i);
    } else {
      known *= new_shape[i];
    }
  }
  if (infer >= 0) {
    TGCRN_CHECK(known != 0 && numel() % known == 0)
        << "cannot infer dim for reshape " << ShapeToString(shape_) << " -> "
        << ShapeToString(new_shape);
    new_shape[infer] = numel() / known;
  }
  TGCRN_CHECK_EQ(ShapeNumel(new_shape), numel())
      << "reshape " << ShapeToString(shape_) << " -> "
      << ShapeToString(new_shape);
  Tensor out;
  out.shape_ = std::move(new_shape);
  out.data_ = data_;  // storage shared; reshape is a view of contiguous data
  return out;
}

Tensor Tensor::Transpose(int64_t axis0, int64_t axis1) const {
  if (axis0 < 0) axis0 += dim();
  if (axis1 < 0) axis1 += dim();
  std::vector<int64_t> perm(dim());
  std::iota(perm.begin(), perm.end(), 0);
  std::swap(perm[axis0], perm[axis1]);
  return Permute(perm);
}

Tensor Tensor::Permute(const std::vector<int64_t>& perm) const {
  TGCRN_CHECK_EQ(static_cast<int64_t>(perm.size()), dim());
  Shape out_shape(dim());
  for (int64_t d = 0; d < dim(); ++d) out_shape[d] = shape_[perm[d]];
  Tensor out(out_shape);
  if (numel() == 0) return out;
  const auto in_strides = StridesFor(shape_);
  std::vector<int64_t> permuted_strides(dim());
  for (int64_t d = 0; d < dim(); ++d) {
    permuted_strides[d] = in_strides[perm[d]];
  }
  const float* p = data();
  float* o = out.mutable_data();
  const int64_t rank = dim();
  common::ParallelFor(0, numel(), kElemwiseGrain, [&](int64_t s, int64_t e) {
    // Reconstruct the multi-index at the chunk start, then walk.
    std::vector<int64_t> index(rank, 0);
    int64_t in_off = 0;
    int64_t rem = s;
    for (int64_t d = rank - 1; d >= 0; --d) {
      index[d] = rem % out_shape[d];
      rem /= out_shape[d];
      in_off += index[d] * permuted_strides[d];
    }
    for (int64_t flat = s; flat < e; ++flat) {
      o[flat] = p[in_off];
      for (int64_t d = rank - 1; d >= 0; --d) {
        ++index[d];
        in_off += permuted_strides[d];
        if (index[d] < out_shape[d]) break;
        index[d] = 0;
        in_off -= permuted_strides[d] * out_shape[d];
      }
    }
  });
  return out;
}

Tensor Tensor::Unsqueeze(int64_t axis) const {
  if (axis < 0) axis += dim() + 1;
  TGCRN_CHECK_GE(axis, 0);
  TGCRN_CHECK_LE(axis, dim());
  Shape s = shape_;
  s.insert(s.begin() + axis, 1);
  return Reshape(std::move(s));
}

Tensor Tensor::Squeeze(int64_t axis) const {
  if (axis < 0) axis += dim();
  TGCRN_CHECK_EQ(shape_[axis], 1);
  Shape s = shape_;
  s.erase(s.begin() + axis);
  return Reshape(std::move(s));
}

Tensor Tensor::Slice(int64_t axis, int64_t start, int64_t end) const {
  if (axis < 0) axis += dim();
  TGCRN_CHECK_GE(axis, 0);
  TGCRN_CHECK_LT(axis, dim());
  TGCRN_CHECK_GE(start, 0);
  TGCRN_CHECK_LE(end, shape_[axis]);
  TGCRN_CHECK_LE(start, end);
  Shape out_shape = shape_;
  out_shape[axis] = end - start;
  Tensor out(out_shape);
  // View the tensor as [outer, axis_len, inner].
  int64_t outer = 1, inner = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= shape_[d];
  for (int64_t d = axis + 1; d < dim(); ++d) inner *= shape_[d];
  const int64_t axis_len = shape_[axis];
  const int64_t span = end - start;
  const float* p = data();
  float* o = out.mutable_data();
  for (int64_t ou = 0; ou < outer; ++ou) {
    const float* src = p + (ou * axis_len + start) * inner;
    float* dst = o + ou * span * inner;
    std::copy(src, src + span * inner, dst);
  }
  return out;
}

Tensor Tensor::BroadcastTo(const Shape& target) const {
  const Shape check = BroadcastShapes(shape_, target);
  TGCRN_CHECK(check == target)
      << "cannot broadcast " << ShapeToString(shape_) << " to "
      << ShapeToString(target);
  Tensor out(target);
  float* o = out.mutable_data();
  const float* p = data();
  BroadcastIterate(target, shape_, Shape{},  // second operand unused
                   [&](int64_t of, int64_t ia, int64_t) { o[of] = p[ia]; });
  return out;
}

Tensor Tensor::IndexSelect0(const std::vector<int64_t>& indices) const {
  TGCRN_CHECK_GE(dim(), 1);
  int64_t inner = 1;
  for (int64_t d = 1; d < dim(); ++d) inner *= shape_[d];
  Shape out_shape = shape_;
  out_shape[0] = static_cast<int64_t>(indices.size());
  Tensor out(out_shape);
  const float* p = data();
  float* o = out.mutable_data();
  for (size_t i = 0; i < indices.size(); ++i) {
    const int64_t row = indices[i];
    TGCRN_CHECK_GE(row, 0);
    TGCRN_CHECK_LT(row, shape_[0]);
    std::copy(p + row * inner, p + (row + 1) * inner, o + i * inner);
  }
  return out;
}

Tensor Tensor::Concat(const std::vector<Tensor>& tensors, int64_t axis) {
  TGCRN_CHECK(!tensors.empty());
  int64_t rank = tensors[0].dim();
  if (axis < 0) axis += rank;
  TGCRN_CHECK_GE(axis, 0);
  TGCRN_CHECK_LT(axis, rank);
  Shape out_shape = tensors[0].shape();
  int64_t total = 0;
  for (const auto& t : tensors) {
    TGCRN_CHECK_EQ(t.dim(), rank);
    for (int64_t d = 0; d < rank; ++d) {
      if (d != axis) {
        TGCRN_CHECK_EQ(t.shape()[d], out_shape[d])
            << "concat shape mismatch on axis " << d;
      }
    }
    total += t.shape()[axis];
  }
  out_shape[axis] = total;
  Tensor out(out_shape);
  int64_t outer = 1, inner = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= out_shape[d];
  for (int64_t d = axis + 1; d < rank; ++d) inner *= out_shape[d];
  float* o = out.mutable_data();
  int64_t written = 0;
  for (const auto& t : tensors) {
    const int64_t span = t.shape()[axis];
    const float* p = t.data();
    for (int64_t ou = 0; ou < outer; ++ou) {
      std::copy(p + ou * span * inner, p + (ou + 1) * span * inner,
                o + (ou * total + written) * inner);
    }
    written += span;
  }
  return out;
}

Tensor Tensor::Stack(const std::vector<Tensor>& tensors, int64_t axis) {
  TGCRN_CHECK(!tensors.empty());
  std::vector<Tensor> expanded;
  expanded.reserve(tensors.size());
  for (const auto& t : tensors) expanded.push_back(t.Unsqueeze(axis));
  return Concat(expanded, axis);
}

float Tensor::SumAll() const {
  // Deterministic chunked reduction: fixed chunking + fixed combine order
  // make the result bitwise identical at every thread count. Tensors of at
  // most one chunk reduce exactly like the legacy serial loop.
  TGCRN_TRACE_SCOPE("tensor.SumAll");
  obs::RecordKernelCost("tensor.SumAll", static_cast<double>(numel()),
                        4.0 * static_cast<double>(numel()));
  const float* p = data();
  return static_cast<float>(common::DeterministicChunkedSum(
      numel(), kReductionChunk, [p](int64_t begin, int64_t end) {
        double sum = 0.0;
        for (int64_t i = begin; i < end; ++i) sum += p[i];
        return sum;
      }));
}

float Tensor::MeanAll() const {
  TGCRN_CHECK_GT(numel(), 0);
  return SumAll() / static_cast<float>(numel());
}

float Tensor::MaxAll() const {
  TGCRN_CHECK_GT(numel(), 0);
  return *std::max_element(data_->begin(), data_->end());
}

float Tensor::MinAll() const {
  TGCRN_CHECK_GT(numel(), 0);
  return *std::min_element(data_->begin(), data_->end());
}

namespace {

// Reduces `t` along `axis` with init/accumulate/finalize functors.
template <typename Acc, typename Fin>
Tensor ReduceAxis(const Tensor& t, int64_t axis, bool keepdim, float init,
                  Acc acc, Fin fin) {
  int64_t rank = t.dim();
  if (axis < 0) axis += rank;
  TGCRN_CHECK_GE(axis, 0);
  TGCRN_CHECK_LT(axis, rank);
  Shape out_shape = t.shape();
  out_shape[axis] = 1;
  Tensor out(out_shape);
  int64_t outer = 1, inner = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= t.shape()[d];
  for (int64_t d = axis + 1; d < rank; ++d) inner *= t.shape()[d];
  const int64_t span = t.shape()[axis];
  const float* p = t.data();
  float* o = out.mutable_data();
  // Parallel over output elements; each one runs the exact serial
  // accumulation over its span, so chunking never changes the result.
  const int64_t grain =
      std::max<int64_t>(1, kElemwiseGrain / std::max<int64_t>(1, span));
  common::ParallelFor(
      0, outer * inner, grain, [&](int64_t begin, int64_t end) {
        for (int64_t oi = begin; oi < end; ++oi) {
          const int64_t ou = oi / inner;
          const int64_t in = oi % inner;
          float a = init;
          for (int64_t s = 0; s < span; ++s) {
            a = acc(a, p[(ou * span + s) * inner + in]);
          }
          o[oi] = fin(a, span);
        }
      });
  if (!keepdim) return out.Squeeze(axis);
  return out;
}

}  // namespace

Tensor Tensor::Sum(int64_t axis, bool keepdim) const {
  return ReduceAxis(
      *this, axis, keepdim, 0.0f, [](float a, float v) { return a + v; },
      [](float a, int64_t) { return a; });
}

Tensor Tensor::Mean(int64_t axis, bool keepdim) const {
  return ReduceAxis(
      *this, axis, keepdim, 0.0f, [](float a, float v) { return a + v; },
      [](float a, int64_t n) { return a / static_cast<float>(n); });
}

Tensor Tensor::Max(int64_t axis, bool keepdim) const {
  return ReduceAxis(
      *this, axis, keepdim, -std::numeric_limits<float>::infinity(),
      [](float a, float v) { return std::max(a, v); },
      [](float a, int64_t) { return a; });
}

Tensor Tensor::ReduceTo(const Shape& target) const {
  if (shape_ == target) return *this;
  Tensor result = *this;
  // Sum away extra leading dims.
  while (result.dim() > static_cast<int64_t>(target.size())) {
    result = result.Sum(0, /*keepdim=*/false);
  }
  // Sum over broadcast (size-1) dims.
  for (int64_t d = 0; d < result.dim(); ++d) {
    if (target[d] == 1 && result.shape()[d] != 1) {
      result = result.Sum(d, /*keepdim=*/true);
    } else {
      TGCRN_CHECK_EQ(target[d], result.shape()[d])
          << "ReduceTo mismatch " << ShapeToString(shape_) << " -> "
          << ShapeToString(target);
    }
  }
  return result;
}

void SoftmaxRow(const float* src, float* dst, int64_t span) {
  float max_val = src[0];
  for (int64_t j = 1; j < span; ++j) max_val = std::max(max_val, src[j]);
  float sum = 0.0f;
  for (int64_t j = 0; j < span; ++j) {
    dst[j] = std::exp(src[j] - max_val);
    sum += dst[j];
  }
  const float inv = 1.0f / sum;
  for (int64_t j = 0; j < span; ++j) dst[j] *= inv;
}

void SoftmaxGradRow(const float* y, const float* g, float* out,
                    int64_t span) {
  float sum = 0.0f;
  for (int64_t j = 0; j < span; ++j) sum += g[j] * y[j];
  for (int64_t j = 0; j < span; ++j) out[j] = y[j] * (g[j] - sum);
}

Tensor Tensor::Softmax(int64_t axis) const {
  TGCRN_TRACE_SCOPE("tensor.Softmax");
  int64_t rank = dim();
  if (axis < 0) axis += rank;
  // Fast path for the last axis (the overwhelmingly common case: row
  // softmax of adjacency matrices and attention scores): single pass per
  // contiguous row instead of three broadcast kernels.
  if (axis == rank - 1 && rank >= 1) {
    const int64_t span = shape_[axis];
    const int64_t rows = span > 0 ? numel() / span : 0;
    // Nominal per-element cost of the single fused pass (max scan + exp +
    // sum + scale); the slow path below self-reports through Sub/Exp/Div.
    obs::RecordKernelCost("tensor.Softmax",
                          12.0 * static_cast<double>(rows) *
                              static_cast<double>(span),
                          8.0 * static_cast<double>(rows) *
                              static_cast<double>(span));
    Tensor out(shape_);
    const float* p = data();
    float* o = out.mutable_data();
    const int64_t grain =
        std::max<int64_t>(1, kElemwiseGrain / std::max<int64_t>(1, span));
    common::ParallelFor(0, rows, grain, [&](int64_t begin, int64_t end) {
      for (int64_t r = begin; r < end; ++r) {
        SoftmaxRow(p + r * span, o + r * span, span);
      }
    });
    return out;
  }
  Tensor shifted = Sub(Max(axis, /*keepdim=*/true));
  Tensor exps = shifted.Exp();
  return exps.Div(exps.Sum(axis, /*keepdim=*/true));
}

namespace {

// Shape check shared by the fused gradient kernels: the fused path is the
// exact-shape (non-broadcast) case by contract.
void CheckSameShapes(const Tensor& a, const Tensor& b, const char* kernel) {
  TGCRN_CHECK(a.SameShape(b))
      << kernel << ": shape mismatch " << ShapeToString(a.shape()) << " vs "
      << ShapeToString(b.shape());
}

// Two-input fused elementwise kernel with the functor inlined.
template <typename Fn>
Tensor FusedBinary(const Tensor& x, const Tensor& y, Fn fn) {
  Tensor out(x.shape());
  float* o = out.mutable_data();
  const float* px = x.data();
  const float* py = y.data();
  common::ParallelFor(0, x.numel(), kElemwiseGrain,
                      [&](int64_t s, int64_t e) {
                        for (int64_t i = s; i < e; ++i) {
                          o[i] = fn(px[i], py[i]);
                        }
                      });
  return out;
}

}  // namespace

Tensor SigmoidGradKernel(const Tensor& y, const Tensor& g) {
  TGCRN_TRACE_SCOPE("tensor.SigmoidGrad");
  CheckSameShapes(y, g, "SigmoidGradKernel");
  obs::RecordKernelCost("tensor.SigmoidGrad",
                        3.0 * static_cast<double>(y.numel()),
                        12.0 * static_cast<double>(y.numel()));
  // (g*y)*(1-y) in the unfused chain's association order.
  return FusedBinary(y, g, [](float yv, float gv) {
    return (gv * yv) * (-yv + 1.0f);
  });
}

Tensor TanhGradKernel(const Tensor& y, const Tensor& g) {
  TGCRN_TRACE_SCOPE("tensor.TanhGrad");
  CheckSameShapes(y, g, "TanhGradKernel");
  obs::RecordKernelCost("tensor.TanhGrad",
                        3.0 * static_cast<double>(y.numel()),
                        12.0 * static_cast<double>(y.numel()));
  return FusedBinary(y, g, [](float yv, float gv) {
    return gv * (-(yv * yv) + 1.0f);
  });
}

Tensor ReluGradKernel(const Tensor& x, const Tensor& g) {
  TGCRN_TRACE_SCOPE("tensor.ReluGrad");
  CheckSameShapes(x, g, "ReluGradKernel");
  obs::RecordKernelCost("tensor.ReluGrad", static_cast<double>(x.numel()),
                        12.0 * static_cast<double>(x.numel()));
  return FusedBinary(x, g, [](float xv, float gv) {
    return xv > 0.0f ? gv : 0.0f;
  });
}

Tensor SoftmaxGradKernel(const Tensor& y, const Tensor& g) {
  TGCRN_TRACE_SCOPE("tensor.SoftmaxGrad");
  CheckSameShapes(y, g, "SoftmaxGradKernel");
  obs::RecordKernelCost("tensor.SoftmaxGrad",
                        4.0 * static_cast<double>(y.numel()),
                        12.0 * static_cast<double>(y.numel()));
  TGCRN_CHECK_GE(y.dim(), 1);
  const int64_t span = y.shape()[y.dim() - 1];
  const int64_t rows = span > 0 ? y.numel() / span : 0;
  Tensor out(y.shape());
  const float* py = y.data();
  const float* pg = g.data();
  float* o = out.mutable_data();
  const int64_t grain =
      std::max<int64_t>(1, kElemwiseGrain / std::max<int64_t>(1, span));
  // One pass per contiguous row; the row sum keeps the serial accumulation
  // order, so chunking across rows never changes any output bit.
  common::ParallelFor(0, rows, grain, [&](int64_t begin, int64_t end) {
    for (int64_t r = begin; r < end; ++r) {
      SoftmaxGradRow(py + r * span, pg + r * span, o + r * span, span);
    }
  });
  return out;
}

Tensor DivGradRhsKernel(const Tensor& g, const Tensor& a, const Tensor& b) {
  TGCRN_TRACE_SCOPE("tensor.DivGradRhs");
  CheckSameShapes(g, a, "DivGradRhsKernel");
  CheckSameShapes(g, b, "DivGradRhsKernel");
  obs::RecordKernelCost("tensor.DivGradRhs",
                        4.0 * static_cast<double>(g.numel()),
                        16.0 * static_cast<double>(g.numel()));
  Tensor out(g.shape());
  float* o = out.mutable_data();
  const float* pg = g.data();
  const float* pa = a.data();
  const float* pb = b.data();
  common::ParallelFor(0, g.numel(), kElemwiseGrain,
                      [&](int64_t s, int64_t e) {
                        for (int64_t i = s; i < e; ++i) {
                          o[i] = ((pg[i] * pa[i]) / (pb[i] * pb[i])) * -1.0f;
                        }
                      });
  return out;
}

float Tensor::MaxAbsDiff(const Tensor& a, const Tensor& b) {
  TGCRN_CHECK(a.SameShape(b))
      << ShapeToString(a.shape_) << " vs " << ShapeToString(b.shape_);
  float max_diff = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.numel(); ++i) {
    max_diff = std::max(max_diff, std::fabs(pa[i] - pb[i]));
  }
  return max_diff;
}

bool Tensor::AllClose(const Tensor& other, float atol) const {
  if (!SameShape(other)) return false;
  return MaxAbsDiff(*this, other) <= atol;
}

bool Tensor::HasNonFinite() const {
  for (float v : *data_) {
    if (!std::isfinite(v)) return true;
  }
  return false;
}

std::string Tensor::ToString(int64_t max_elements) const {
  std::ostringstream out;
  out << "Tensor" << ShapeToString(shape_) << " {";
  const int64_t n = std::min(numel(), max_elements);
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0) out << ", ";
    out << (*data_)[i];
  }
  if (n < numel()) out << ", ...";
  out << "}";
  return out.str();
}

}  // namespace tgcrn
