// Copyright 2026 TGCRN Reproduction Authors
// Unit tests for the size-bucketed tensor buffer pool: reuse after release,
// full re-initialization of recycled storage (large and sub-256-element
// buffers alike), shared-storage lifetime safety, and the headline effect —
// the real heap-allocation count collapsing on the second iteration of a
// training-step-shaped workload.
#include "tensor/buffer_pool.h"

#include <cstdlib>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "tensor/tensor.h"

namespace tgcrn {
namespace {

constexpr int64_t kPooledNumel = 4096;

class TensorPoolTest : public ::testing::Test {
 protected:
  void SetUp() override { TensorBufferPool::Global().Clear(); }
  void TearDown() override { TensorBufferPool::Global().Clear(); }
};

TEST_F(TensorPoolTest, ReleaseThenAcquireReusesBuffer) {
  auto& pool = TensorBufferPool::Global();
  const auto before = pool.GetStats();
  {
    Tensor t = Tensor::Zeros({kPooledNumel});
    EXPECT_EQ(pool.GetStats().cached_buffers, before.cached_buffers);
  }
  // Destruction parked the buffer in the pool.
  const auto parked = pool.GetStats();
  EXPECT_EQ(parked.cached_buffers, before.cached_buffers + 1);

  Tensor again = Tensor::Zeros({kPooledNumel});
  const auto after = pool.GetStats();
  EXPECT_EQ(after.hits, parked.hits + 1);
  EXPECT_EQ(after.cached_buffers, before.cached_buffers);
  EXPECT_GE(after.bytes_reused,
            parked.bytes_reused +
                kPooledNumel * static_cast<int64_t>(sizeof(float)));
}

TEST_F(TensorPoolTest, RecycledBufferIsFullyReinitialized) {
  {
    Tensor dirty = Tensor::Full({kPooledNumel}, 123.456f);
    ASSERT_EQ(dirty.flat(kPooledNumel - 1), 123.456f);
  }
  // Same bucket: this acquire recycles the dirty buffer and must zero it.
  Tensor clean = Tensor::Zeros({kPooledNumel});
  for (int64_t i = 0; i < clean.numel(); i += 97) {
    ASSERT_EQ(clean.flat(i), 0.0f) << "stale data at " << i;
  }
  // A smaller request from the same bucket must also see exactly its own
  // numel, not the rounded-up capacity.
  {
    Tensor dirty = Tensor::Full({kPooledNumel}, -7.0f);
  }
  Tensor smaller = Tensor::Zeros({kPooledNumel / 2 + 3});
  EXPECT_EQ(smaller.numel(), kPooledNumel / 2 + 3);
  EXPECT_EQ(smaller.flat(smaller.numel() - 1), 0.0f);

  // Sub-256-element buffers (scalar losses, per-sample factors) are pooled
  // too, and must come back just as clean.
  auto& pool = TensorBufferPool::Global();
  {
    Tensor dirty = Tensor::Full({100}, 5.5f);
    Tensor dirty_scalar = Tensor::Scalar(-2.0f);
  }
  const auto before = pool.GetStats();
  Tensor small = Tensor::Zeros({100});
  Tensor scalar = Tensor::Zeros({1});
  EXPECT_EQ(pool.GetStats().hits, before.hits + 2)
      << "small requests should be served from the pool";
  for (int64_t i = 0; i < small.numel(); ++i) {
    ASSERT_EQ(small.flat(i), 0.0f) << "stale data at " << i;
  }
  EXPECT_EQ(scalar.flat(0), 0.0f);
}

TEST_F(TensorPoolTest, SharedStorageIsNotRecycledWhileAlive) {
  auto& pool = TensorBufferPool::Global();
  const auto before = pool.GetStats();
  Tensor a = Tensor::Full({kPooledNumel}, 3.0f);
  {
    Tensor b = a;  // shares storage
    EXPECT_EQ(b.data(), a.data());
  }
  // b's destruction must not recycle the buffer a still owns.
  EXPECT_EQ(pool.GetStats().cached_buffers, before.cached_buffers);
  EXPECT_EQ(a.flat(0), 3.0f);
  EXPECT_EQ(a.flat(kPooledNumel - 1), 3.0f);
}

// A training-step-shaped workload: the same op sequence repeated. The first
// iteration on an empty pool faults buffers in from the heap; the second
// runs out of the pool, so the number of REAL heap allocations
// (tensor.allocations) must drop by at least half.
TEST_F(TensorPoolTest, AllocCountDropsOnSecondIteration) {
  obs::Counter* allocs =
      obs::Registry::Global().GetCounter("tensor.allocations");

  auto step = [] {
    Rng rng(77);
    Tensor x = Tensor::RandUniform({16, 64}, -1, 1, &rng);
    Tensor w = Tensor::RandUniform({64, 64}, -1, 1, &rng);
    Tensor h = x;
    for (int i = 0; i < 6; ++i) {
      h = h.Matmul(w).Tanh().Add(x).Sigmoid();
    }
    return h.SumAll();
  };

  TensorBufferPool::Global().Clear();  // cold start
  const int64_t before_first = allocs->Value();
  const float first_value = step();  // faults pool buffers in
  const int64_t cold_allocs = allocs->Value() - before_first;
  const int64_t after_first = allocs->Value();
  const float second_value = step();
  const int64_t second_iter_allocs = allocs->Value() - after_first;

  EXPECT_EQ(first_value, second_value);
  ASSERT_GT(cold_allocs, 0);
  EXPECT_LE(second_iter_allocs, cold_allocs / 2)
      << "warm step still did " << second_iter_allocs << " of "
      << cold_allocs << " heap allocations";
}

TEST_F(TensorPoolTest, PoolCountersAreRegistered) {
  auto& reg = obs::Registry::Global();
  // GetCounter creates on first use; the pool has already touched these.
  EXPECT_GE(reg.GetCounter("tensor.pool_hit")->Value(), 0);
  EXPECT_GE(reg.GetCounter("tensor.pool_miss")->Value(), 0);
  EXPECT_GE(reg.GetCounter("tensor.pool_bytes_reused")->Value(), 0);
}

// TGCRN_TENSOR_POOL_MAX_MB is one whole integer of megabytes in
// [1, INT64_MAX / 2^20]. A partial ("12abc"), non-numeric, non-positive or
// overflowing value stops the process naming the variable; atoll used to
// read "12abc" as 12, turn "abc" and "-3" into the default, and overflow
// int64 on 9000000000000 MB. Each case runs in a fresh process, where the
// global pool reads the variable on first use.
TEST(TensorPoolEnvDeathTest, MalformedMaxMbAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* bad : {"12abc", "abc", " 5"}) {
    EXPECT_DEATH(
        {
          setenv("TGCRN_TENSOR_POOL_MAX_MB", bad, 1);
          (void)TensorBufferPool::Global();
        },
        "TGCRN_TENSOR_POOL_MAX_MB=\".*\" is not an integer")
        << bad;
  }
  for (const char* bad : {"-3", "0", "9000000000000"}) {
    EXPECT_DEATH(
        {
          setenv("TGCRN_TENSOR_POOL_MAX_MB", bad, 1);
          (void)TensorBufferPool::Global();
        },
        "TGCRN_TENSOR_POOL_MAX_MB=\".*\" is outside \\[1, 8796093022207\\]")
        << bad;
  }
}

// A valid cap is honoured: with 1 MB a released 4 MB buffer is freed, not
// parked; with the variable unset (512 MB) it is parked.
TEST(TensorPoolEnvDeathTest, ValidMaxMbCapsRetainedBytes) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  constexpr int64_t kFourMbNumel = int64_t{1} << 20;
  EXPECT_EXIT(
      {
        setenv("TGCRN_TENSOR_POOL_MAX_MB", "1", 1);
        auto& pool = TensorBufferPool::Global();
        (void)pool.AcquireZeroed(kFourMbNumel);
        std::exit(pool.GetStats().cached_bytes == 0 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(
      {
        unsetenv("TGCRN_TENSOR_POOL_MAX_MB");
        auto& pool = TensorBufferPool::Global();
        (void)pool.AcquireZeroed(kFourMbNumel);
        std::exit(pool.GetStats().cached_bytes >= 4 * kFourMbNumel ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace tgcrn
