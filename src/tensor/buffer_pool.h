// Copyright 2026 TGCRN Reproduction Authors
// Size-bucketed free-list of tensor storage buffers. Training builds and
// tears down the same computation graph every step, so the allocator sees
// the same sequence of sizes over and over; recycling buffers turns the
// per-step malloc/free churn (hundreds of heap round-trips per batch) into
// lock-protected free-list pops.
//
// Design:
//  * Buffers are std::vector<float> heap objects bucketed by capacity
//    rounded up to a power of two, from 1 element up to 2^30. Every
//    non-empty request is pooled, including the sub-256-element
//    temporaries (scalar losses, per-sample trend factors, small batch
//    rows), so a steady-state training step and a steady-state forecast
//    request both make zero heap allocations.
//  * Acquire returns storage as shared_ptr whose deleter routes the buffer
//    back to the pool instead of freeing it, so Tensor's storage-sharing
//    semantics are unchanged.
//  * Every handed-out buffer is fully (re)initialized (zero-fill or copy)
//    before it escapes, so pooled and fresh storage are bit-identical and
//    the bitwise-determinism contract in tensor.h is unaffected.
//  * Retained bytes are capped (TGCRN_TENSOR_POOL_MAX_MB, default 512);
//    releases beyond the cap free the buffer instead of caching it.
//
// Observability: tensor.pool_hit / tensor.pool_miss / tensor.pool_bytes_reused
// counters in the global metric registry, plus GetStats() for tests.
// tensor.allocations / tensor.allocated_bytes count only real heap
// allocations (pool misses and out-of-range requests), which is what
// makes the pool's effect visible as an alloc-count drop per training
// step.
#ifndef TGCRN_TENSOR_BUFFER_POOL_H_
#define TGCRN_TENSOR_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace tgcrn {

class TensorBufferPool {
 public:
  // Process-global pool (leaked, like the metric registry, so storage
  // deleters that fire during static destruction stay safe).
  static TensorBufferPool& Global();

  // Zero-filled storage of exactly `numel` elements.
  std::shared_ptr<std::vector<float>> AcquireZeroed(int64_t numel);
  // Storage holding a copy of src[0, numel).
  std::shared_ptr<std::vector<float>> AcquireCopy(const float* src,
                                                  int64_t numel);
  // Storage of `numel` elements with UNSPECIFIED contents, for callers
  // that provably write every element before the buffer escapes (the
  // GEMM driver: every kernel fully overwrites its output rows). Skips
  // the zero-fill AcquireZeroed pays — free on recycled buffers, which
  // is what makes small-matmul-heavy steps measurably faster. The
  // determinism contract still holds because the caller's writes, not
  // the buffer's history, define every bit that escapes.
  std::shared_ptr<std::vector<float>> AcquireForOverwrite(int64_t numel);

  // Frees every cached buffer (retained bytes drop to zero).
  void Clear();

  struct Stats {
    int64_t hits = 0;            // acquires served from the free lists
    int64_t misses = 0;          // acquires that hit the heap
    int64_t bytes_reused = 0;    // bytes served from the free lists
    int64_t cached_buffers = 0;  // buffers currently parked in the pool
    int64_t cached_bytes = 0;    // their total capacity in bytes
  };
  Stats GetStats() const;

  TensorBufferPool(const TensorBufferPool&) = delete;
  TensorBufferPool& operator=(const TensorBufferPool&) = delete;

 private:
  TensorBufferPool();
  ~TensorBufferPool() = default;

  // shared_ptr deleter: recycles into the global pool (or frees).
  static void ReleaseToGlobal(std::vector<float>* buf);
  // Wraps a ready buffer in a pool-returning handle.
  static std::shared_ptr<std::vector<float>> WrapHandle(
      std::vector<float>* buf);
  // Pops a cached buffer able to hold `numel` elements, or nullptr.
  std::vector<float>* TryPop(int64_t numel);
  // Heap-allocates a buffer with bucket-rounded capacity.
  std::vector<float>* AllocateFresh(int64_t numel);
  void Release(std::vector<float>* buf);

  struct Impl;
  Impl* impl_;
};

}  // namespace tgcrn

#endif  // TGCRN_TENSOR_BUFFER_POOL_H_
