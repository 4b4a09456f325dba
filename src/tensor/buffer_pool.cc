// Copyright 2026 TGCRN Reproduction Authors
#include "tensor/buffer_pool.h"

#include <cstdlib>
#include <limits>
#include <mutex>

#include "common/flags.h"
#include "obs/metrics.h"

namespace tgcrn {
namespace {

// Largest bucket: 2^30 elements (4 GiB). Larger requests bypass the pool,
// as do empty ones. Bucket index i holds buffers of capacity 2^i.
constexpr int kMaxBucketLog2 = 30;
constexpr int kNumBuckets = kMaxBucketLog2 + 1;

constexpr int64_t kDefaultMaxRetainedBytes = 512ll * 1024 * 1024;

// Bucket index for a request of `numel` elements (smallest power of two
// >= numel); -1 when the request is outside the pooled range.
int BucketForNumel(int64_t numel) {
  if (numel < 1 || numel > (1ll << kMaxBucketLog2)) return -1;
  int log2 = 0;
  while ((1ll << log2) < numel) ++log2;
  return log2;
}

// Bucket a released buffer of `capacity` elements belongs to: the largest
// bucket whose size fits inside the capacity (the buffer can then serve
// any request up to that size); -1 for an empty buffer.
int BucketForCapacity(int64_t capacity) {
  if (capacity < 1) return -1;
  int log2 = 0;
  while (log2 < kMaxBucketLog2 && (1ll << (log2 + 1)) <= capacity) ++log2;
  return log2;
}

struct PoolCounters {
  obs::Counter* hit;
  obs::Counter* miss;
  obs::Counter* bytes_reused;
  obs::Counter* allocations;
  obs::Counter* allocated_bytes;
};

PoolCounters& Counters() {
  static PoolCounters counters{
      obs::Registry::Global().GetCounter("tensor.pool_hit"),
      obs::Registry::Global().GetCounter("tensor.pool_miss"),
      obs::Registry::Global().GetCounter("tensor.pool_bytes_reused"),
      obs::Registry::Global().GetCounter("tensor.allocations"),
      obs::Registry::Global().GetCounter("tensor.allocated_bytes"),
  };
  return counters;
}

// TGCRN_TENSOR_POOL_MAX_MB in bytes; the cap is at least 1 MB and at
// most what fits an int64_t byte count.
int64_t MaxRetainedBytesFromEnv() {
  constexpr int64_t kMiB = int64_t{1} << 20;
  const int64_t mb = EnvIntOrDie<int64_t>(
      "TGCRN_TENSOR_POOL_MAX_MB", std::getenv("TGCRN_TENSOR_POOL_MAX_MB"),
      kDefaultMaxRetainedBytes / kMiB, 1,
      std::numeric_limits<int64_t>::max() / kMiB);
  return mb * kMiB;
}

}  // namespace

struct TensorBufferPool::Impl {
  mutable std::mutex mu;
  std::vector<std::vector<float>*> free_lists[kNumBuckets];
  int64_t max_retained_bytes = kDefaultMaxRetainedBytes;
  int64_t retained_bytes = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t bytes_reused = 0;
};

TensorBufferPool::TensorBufferPool() : impl_(new Impl) {
  impl_->max_retained_bytes = MaxRetainedBytesFromEnv();
}

TensorBufferPool& TensorBufferPool::Global() {
  // Leaked: storage deleters may fire after static destructors run.
  static TensorBufferPool* pool = new TensorBufferPool();
  return *pool;
}

std::vector<float>* TensorBufferPool::TryPop(int64_t numel) {
  const int bucket = BucketForNumel(numel);
  if (bucket < 0) return nullptr;
  std::lock_guard<std::mutex> lock(impl_->mu);
  // Exact bucket first, then one size up (a 2x-oversized buffer still
  // beats a heap round-trip; beyond that the waste dominates).
  for (int b = bucket; b < kNumBuckets && b <= bucket + 1; ++b) {
    if (impl_->free_lists[b].empty()) continue;
    std::vector<float>* buf = impl_->free_lists[b].back();
    impl_->free_lists[b].pop_back();
    impl_->retained_bytes -=
        static_cast<int64_t>(buf->capacity()) * sizeof(float);
    ++impl_->hits;
    impl_->bytes_reused += numel * static_cast<int64_t>(sizeof(float));
    return buf;
  }
  return nullptr;
}

std::vector<float>* TensorBufferPool::AllocateFresh(int64_t numel) {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    ++impl_->misses;
  }
  PoolCounters& counters = Counters();
  counters.miss->Add(1);
  counters.allocations->Add(1);
  counters.allocated_bytes->Add(numel * static_cast<int64_t>(sizeof(float)));
  auto* buf = new std::vector<float>();
  const int bucket = BucketForNumel(numel);
  // Round the capacity up to the bucket size so the buffer can serve any
  // future request in its bucket.
  if (bucket >= 0) buf->reserve(1ull << bucket);
  return buf;
}

void TensorBufferPool::Release(std::vector<float>* buf) {
  const int bucket = BucketForCapacity(static_cast<int64_t>(buf->capacity()));
  const int64_t bytes =
      static_cast<int64_t>(buf->capacity()) * sizeof(float);
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (bucket >= 0 &&
        impl_->retained_bytes + bytes <= impl_->max_retained_bytes) {
      impl_->free_lists[bucket].push_back(buf);
      impl_->retained_bytes += bytes;
      return;
    }
  }
  delete buf;
}

void TensorBufferPool::ReleaseToGlobal(std::vector<float>* buf) {
  Global().Release(buf);
}

std::shared_ptr<std::vector<float>> TensorBufferPool::WrapHandle(
    std::vector<float>* buf) {
  return std::shared_ptr<std::vector<float>>(buf, &ReleaseToGlobal);
}

std::shared_ptr<std::vector<float>> TensorBufferPool::AcquireZeroed(
    int64_t numel) {
  if (std::vector<float>* buf = TryPop(numel)) {
    PoolCounters& counters = Counters();
    counters.hit->Add(1);
    counters.bytes_reused->Add(numel * static_cast<int64_t>(sizeof(float)));
    buf->assign(static_cast<size_t>(numel), 0.0f);
    return WrapHandle(buf);
  }
  std::vector<float>* buf = AllocateFresh(numel);
  buf->assign(static_cast<size_t>(numel), 0.0f);
  return WrapHandle(buf);
}

std::shared_ptr<std::vector<float>> TensorBufferPool::AcquireForOverwrite(
    int64_t numel) {
  if (std::vector<float>* buf = TryPop(numel)) {
    PoolCounters& counters = Counters();
    counters.hit->Add(1);
    counters.bytes_reused->Add(numel * static_cast<int64_t>(sizeof(float)));
    // Shrinking is free and leaves old contents; growing zero-fills only
    // the delta. Either way the caller overwrites everything.
    buf->resize(static_cast<size_t>(numel));
    return WrapHandle(buf);
  }
  std::vector<float>* buf = AllocateFresh(numel);
  buf->resize(static_cast<size_t>(numel));
  return WrapHandle(buf);
}

std::shared_ptr<std::vector<float>> TensorBufferPool::AcquireCopy(
    const float* src, int64_t numel) {
  if (std::vector<float>* buf = TryPop(numel)) {
    PoolCounters& counters = Counters();
    counters.hit->Add(1);
    counters.bytes_reused->Add(numel * static_cast<int64_t>(sizeof(float)));
    buf->assign(src, src + numel);
    return WrapHandle(buf);
  }
  std::vector<float>* buf = AllocateFresh(numel);
  buf->assign(src, src + numel);
  return WrapHandle(buf);
}

void TensorBufferPool::Clear() {
  std::vector<std::vector<float>*> doomed;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (auto& list : impl_->free_lists) {
      doomed.insert(doomed.end(), list.begin(), list.end());
      list.clear();
    }
    impl_->retained_bytes = 0;
  }
  for (std::vector<float>* buf : doomed) delete buf;
}

TensorBufferPool::Stats TensorBufferPool::GetStats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  Stats stats;
  stats.hits = impl_->hits;
  stats.misses = impl_->misses;
  stats.bytes_reused = impl_->bytes_reused;
  stats.cached_bytes = impl_->retained_bytes;
  for (const auto& list : impl_->free_lists) {
    stats.cached_buffers += static_cast<int64_t>(list.size());
  }
  return stats;
}

}  // namespace tgcrn
