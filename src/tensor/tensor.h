// Copyright 2026 TGCRN Reproduction Authors
// A contiguous, row-major float32 N-dimensional array with NumPy-style
// broadcasting, batched matrix multiplication, reductions and shape
// manipulation. This is the storage substrate for the autograd engine in
// src/autograd; all deep-learning math in the repository bottoms out here.
//
// Design notes:
//  * Storage is shared (copy is O(1)); mutating ops are explicit (`*Inplace`
//    suffix) and require unique use sites — the autograd layer never aliases
//    a tensor it mutates.
//  * Shape errors are programmer errors and abort via TGCRN_CHECK.
//  * Hot kernels (matmul, elementwise, reductions, softmax, permute) run on
//    the fork-join pool in common/thread_pool.h, width controlled by
//    TGCRN_NUM_THREADS / common::SetNumThreads (1 = serial).
//  * Matmul and Exp/Sigmoid/Tanh dispatch to ISA-specific SIMD kernels
//    (tensor/kernels/, selected by TGCRN_ISA / CPUID — see
//    common/cpu_features.h). The determinism contract: outputs are
//    bitwise identical at every thread count *at a fixed ISA level* —
//    per-element accumulation structure depends only on the shapes, and
//    full reductions use a fixed-chunk tree. ISA levels may differ from
//    each other in the last bits (FMA contraction); TGCRN_ISA=scalar
//    reproduces the legacy serial arithmetic exactly.
//  * Storage is recycled through the size-bucketed buffer pool in
//    tensor/buffer_pool.h. Pooled buffers are fully re-initialized before
//    reuse, so a recycled buffer and a fresh one are bit-identical.
#ifndef TGCRN_TENSOR_TENSOR_H_
#define TGCRN_TENSOR_TENSOR_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace tgcrn {

using Shape = std::vector<int64_t>;

// Minimum elements per ParallelFor chunk for elementwise kernels; below
// this the dispatch overhead outweighs the work. Grain only affects chunk
// boundaries, never results.
inline constexpr int64_t kElemwiseGrain = 1024;

// ParallelFor grain for a loop over rows of `row_elems` elements each:
// kElemwiseGrain elements' worth of rows per chunk, and at least one row.
inline int64_t RowGrain(int64_t row_elems) {
  return std::max<int64_t>(1,
                           kElemwiseGrain / std::max<int64_t>(1, row_elems));
}

// Returns a human-readable form like "[2, 3, 4]".
std::string ShapeToString(const Shape& shape);

// Returns the number of elements implied by `shape` (1 for rank-0).
int64_t ShapeNumel(const Shape& shape);

// Computes the NumPy broadcast of two shapes; aborts if incompatible.
Shape BroadcastShapes(const Shape& a, const Shape& b);

class Tensor {
 public:
  // Default-constructed tensor is empty (rank 1, zero elements).
  Tensor();

  // Uninitialized-content tensor of the given shape (values are zero).
  explicit Tensor(Shape shape);

  // --- Factories -----------------------------------------------------------
  // Tensor whose contents are UNSPECIFIED (recycled-buffer leftovers).
  // Strictly for kernels that overwrite every element before the tensor
  // escapes (the matmul driver); skips the zero-fill Zeros pays.
  static Tensor ForOverwrite(Shape shape);
  static Tensor Zeros(Shape shape);
  static Tensor Ones(Shape shape);
  static Tensor Full(Shape shape, float value);
  static Tensor Scalar(float value);  // rank-0 tensor
  // Takes ownership of `values`; numel must match the shape.
  static Tensor FromVector(Shape shape, std::vector<float> values);
  // [0, 1, ..., n-1] as a rank-1 tensor.
  static Tensor Arange(int64_t n);
  // Identity matrix of size n x n.
  static Tensor Eye(int64_t n);
  // Uniform in [lo, hi).
  static Tensor RandUniform(Shape shape, float lo, float hi, Rng* rng);
  // Normal(mean, stddev).
  static Tensor RandNormal(Shape shape, float mean, float stddev, Rng* rng);

  // --- Introspection -------------------------------------------------------
  const Shape& shape() const { return shape_; }
  int64_t dim() const { return static_cast<int64_t>(shape_.size()); }
  int64_t size(int64_t axis) const;
  int64_t numel() const { return static_cast<int64_t>(data_->size()); }
  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  // Raw contiguous storage (row-major).
  const float* data() const { return data_->data(); }
  float* mutable_data() { return data_->data(); }

  // Element access by flat index.
  float flat(int64_t index) const {
    TGCRN_CHECK_GE(index, 0);
    TGCRN_CHECK_LT(index, numel());
    return (*data_)[index];
  }
  void set_flat(int64_t index, float value) {
    TGCRN_CHECK_GE(index, 0);
    TGCRN_CHECK_LT(index, numel());
    (*data_)[index] = value;
  }

  // Element access by multi-index.
  float at(const std::vector<int64_t>& index) const;
  void set(const std::vector<int64_t>& index, float value);

  // Value of a rank-0 or single-element tensor.
  float item() const;

  // Deep copy (fresh storage).
  Tensor Clone() const;

  // --- Elementwise (broadcasting) ------------------------------------------
  Tensor Add(const Tensor& other) const;
  Tensor Sub(const Tensor& other) const;
  Tensor Mul(const Tensor& other) const;
  Tensor Div(const Tensor& other) const;
  Tensor AddScalar(float value) const;
  Tensor MulScalar(float value) const;
  Tensor Neg() const { return MulScalar(-1.0f); }
  Tensor Maximum(const Tensor& other) const;
  Tensor Minimum(const Tensor& other) const;

  // Applies `fn` to every element through a type-erased std::function
  // (one virtual-ish dispatch per element). Prefer MapT in hot code.
  Tensor Map(const std::function<float(float)>& fn) const;

  // Templated elementwise map: the functor is inlined into the parallel
  // kernel loop, so there is no per-element dispatch. All named unary ops
  // (Exp, Sigmoid, ...) route through this.
  template <typename F>
  Tensor MapT(F fn) const {
    Tensor out(shape_);
    float* o = out.mutable_data();
    const float* p = data();
    common::ParallelFor(0, numel(), kElemwiseGrain,
                        [&](int64_t s, int64_t e) {
                          for (int64_t i = s; i < e; ++i) o[i] = fn(p[i]);
                        });
    return out;
  }

  Tensor Exp() const;
  Tensor Log() const;  // natural log; inputs must be > 0
  Tensor Sqrt() const;
  Tensor Abs() const;
  Tensor Tanh() const;
  Tensor Sigmoid() const;
  Tensor Relu() const;
  Tensor Pow(float exponent) const;

  // In-place accumulation: this += other (shapes must match exactly).
  void AddInplace(const Tensor& other);
  // Axpy: this += alpha * other (shapes must match exactly). Single pass,
  // no temporary.
  void AddScaledInplace(const Tensor& other, float alpha);
  // Fused multiply-accumulate: this += a * b elementwise (all shapes must
  // match exactly). Single pass, no temporary.
  void AddProductInplace(const Tensor& a, const Tensor& b);
  // Adds `other` into the sub-range [start, start+other.size(axis)) along
  // `axis`; the other dims must match. Used by slice/concat backward.
  void AddSliceInplace(int64_t axis, int64_t start, const Tensor& other);
  // Row scatter-add: this[indices[i]] += other[i]. Used by embedding
  // backward. `other` must have shape [indices.size(), ...rest of this].
  void IndexAdd0Inplace(const std::vector<int64_t>& indices,
                        const Tensor& other);
  // In-place scale: this *= value.
  void ScaleInplace(float value);
  // In-place fill.
  void FillInplace(float value);

  // --- Linear algebra ------------------------------------------------------
  // Batched matmul: (..., m, k) x (..., k, n) -> (..., m, n), with NumPy
  // broadcasting over the leading batch dimensions. Rank of both operands
  // must be >= 2.
  Tensor Matmul(const Tensor& other) const;

  // Transposed-operand matmuls for the backward pass: the transposed side
  // is read through strides, so no transpose copy is ever materialized.
  // this^T x other: (..., r, m) x (..., r, n) -> (..., m, n).
  Tensor MatmulTransposeA(const Tensor& other) const;
  // this x other^T: (..., m, k) x (..., n, k) -> (..., m, n).
  Tensor MatmulTransposeB(const Tensor& other) const;

  // --- Shape manipulation --------------------------------------------------
  // Reshape to a compatible shape (same numel). One dim may be -1.
  Tensor Reshape(Shape new_shape) const;
  // Swap two axes (copies into a fresh contiguous tensor).
  Tensor Transpose(int64_t axis0, int64_t axis1) const;
  // General permutation of axes.
  Tensor Permute(const std::vector<int64_t>& perm) const;
  // Insert a length-1 axis at `axis`.
  Tensor Unsqueeze(int64_t axis) const;
  // Remove a length-1 axis at `axis`.
  Tensor Squeeze(int64_t axis) const;
  // Sub-range along `axis`: [start, end).
  Tensor Slice(int64_t axis, int64_t start, int64_t end) const;
  // Broadcast this tensor to a larger shape (materializes a copy).
  Tensor BroadcastTo(const Shape& target) const;
  // Select rows of the first axis by integer indices (embedding gather).
  Tensor IndexSelect0(const std::vector<int64_t>& indices) const;

  // Concatenate along `axis`; all inputs must agree on the other dims.
  static Tensor Concat(const std::vector<Tensor>& tensors, int64_t axis);
  // Stack along a new leading axis at `axis`.
  static Tensor Stack(const std::vector<Tensor>& tensors, int64_t axis);

  // --- Reductions ----------------------------------------------------------
  float SumAll() const;
  float MeanAll() const;
  float MaxAll() const;
  float MinAll() const;
  // Sum over one axis; keeps the axis as size 1 when keepdim.
  Tensor Sum(int64_t axis, bool keepdim = false) const;
  Tensor Mean(int64_t axis, bool keepdim = false) const;
  Tensor Max(int64_t axis, bool keepdim = false) const;
  // Reduces this tensor (a gradient) to `target` shape by summing over
  // broadcast dimensions. Used by autograd for broadcast backward.
  Tensor ReduceTo(const Shape& target) const;

  // Softmax along `axis` (numerically stabilized).
  Tensor Softmax(int64_t axis) const;

  // --- Utilities -----------------------------------------------------------
  // Max |a - b| over all elements; shapes must match.
  static float MaxAbsDiff(const Tensor& a, const Tensor& b);
  bool AllClose(const Tensor& other, float atol = 1e-5f) const;
  // True if any element is NaN or Inf.
  bool HasNonFinite() const;
  std::string ToString(int64_t max_elements = 64) const;

 private:
  int64_t FlatIndex(const std::vector<int64_t>& index) const;

  Shape shape_;
  std::shared_ptr<std::vector<float>> data_;
};

// --- Fused gradient kernels ------------------------------------------------
// Single-pass backward kernels for the autograd layer: each computes in one
// ParallelFor sweep what the naive closure builds out of 3-4 allocating
// elementwise temporaries. All inputs must share one shape (the fused path
// is the non-broadcast case; broadcasting callers fall back to the op
// chain). Per-element arithmetic keeps the unfused chains' association
// order, so values match the chains exactly (ReluGradKernel may differ
// from the mask-multiply chain only in the sign of zeros).

// g * y * (1 - y), where y = sigmoid(x).
Tensor SigmoidGradKernel(const Tensor& y, const Tensor& g);
// g * (1 - y^2), where y = tanh(x).
Tensor TanhGradKernel(const Tensor& y, const Tensor& g);
// g where x > 0, else 0.
Tensor ReluGradKernel(const Tensor& x, const Tensor& g);
// Per-row softmax backward along the LAST axis: y * (g - sum(g * y, -1)).
// The row sum is accumulated serially per row, so results are bitwise
// identical at every thread count.
Tensor SoftmaxGradKernel(const Tensor& y, const Tensor& g);
// The row kernels of Softmax's last-axis path and of SoftmaxGradKernel,
// for fused callers that must match them bit for bit. SoftmaxRow may run
// in place (dst == src).
void SoftmaxRow(const float* src, float* dst, int64_t span);
void SoftmaxGradRow(const float* y, const float* g, float* out, int64_t span);
// -g * a / b^2 (the d(a/b)/db closure).
Tensor DivGradRhsKernel(const Tensor& g, const Tensor& a, const Tensor& b);

}  // namespace tgcrn

#endif  // TGCRN_TENSOR_TENSOR_H_
