// Copyright 2026 TGCRN Reproduction Authors
// Unit tests of the fork-join thread pool: range coverage, chunk ordering
// on the serial path, exception propagation out of ParallelFor, nested-call
// degradation to serial execution, grain-size boundary cases, concurrent
// callers, width changes, allocation-free dispatch, and the determinism of
// the fixed-chunk tree reduction across thread counts.
#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <new>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

// Global operator new calls in this binary, from any thread. The
// replacements live on malloc/free and stay out of line, so that GCC never
// pairs an inlined malloc() with a delete-expression (or an inlined free()
// with a new-expression) and warns about the mismatch.
static std::atomic<int64_t> g_operator_new_calls{0};

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_operator_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace tgcrn {
namespace {

using common::DeterministicChunkedSum;
using common::GetNumThreads;
using common::ParallelFor;
using common::ScopedNumThreads;
using common::SetNumThreads;

// Every index in [begin, end) must be visited exactly once, for any
// combination of range size, grain, and thread count.
TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    ScopedNumThreads guard(threads);
    for (const int64_t n : {0, 1, 7, 64, 1000, 4097}) {
      for (const int64_t grain : {1, 3, 64, 5000}) {
        std::vector<std::atomic<int>> counts(n);
        for (auto& c : counts) c.store(0);
        ParallelFor(0, n, grain, [&](int64_t s, int64_t e) {
          ASSERT_LE(0, s);
          ASSERT_LE(s, e);
          ASSERT_LE(e, n);
          for (int64_t i = s; i < e; ++i) counts[i].fetch_add(1);
        });
        for (int64_t i = 0; i < n; ++i) {
          ASSERT_EQ(counts[i].load(), 1)
              << "threads=" << threads << " n=" << n << " grain=" << grain
              << " index=" << i;
        }
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForHonorsNonZeroBegin) {
  ScopedNumThreads guard(4);
  std::vector<std::atomic<int>> counts(100);
  for (auto& c : counts) c.store(0);
  ParallelFor(37, 91, 5, [&](int64_t s, int64_t e) {
    for (int64_t i = s; i < e; ++i) counts[i].fetch_add(1);
  });
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(counts[i].load(), (i >= 37 && i < 91) ? 1 : 0) << i;
  }
}

// On the serial path (1 thread) chunks arrive in ascending order as one
// single call; with multiple threads subranges may interleave but must be
// disjoint — recorded ranges sorted by start must tile the range.
TEST(ThreadPoolTest, SerialPathRunsInOrder) {
  ScopedNumThreads guard(1);
  std::vector<std::pair<int64_t, int64_t>> ranges;
  ParallelFor(0, 1000, 10, [&](int64_t s, int64_t e) {
    ranges.emplace_back(s, e);
  });
  // With one thread the whole range is one in-order call.
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].first, 0);
  EXPECT_EQ(ranges[0].second, 1000);
}

TEST(ThreadPoolTest, ChunksTileTheRangeWithoutOverlap) {
  ScopedNumThreads guard(8);
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> ranges;
  ParallelFor(0, 10001, 7, [&](int64_t s, int64_t e) {
    std::lock_guard<std::mutex> lock(mu);
    ranges.emplace_back(s, e);
  });
  std::sort(ranges.begin(), ranges.end());
  int64_t expected_start = 0;
  for (const auto& [s, e] : ranges) {
    EXPECT_EQ(s, expected_start);
    EXPECT_LT(s, e);
    expected_start = e;
  }
  EXPECT_EQ(expected_start, 10001);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  for (const int threads : {1, 4}) {
    ScopedNumThreads guard(threads);
    EXPECT_THROW(
        ParallelFor(0, 10000, 16,
                    [&](int64_t s, int64_t e) {
                      // Throw from whichever chunk contains index 5000 —
                      // works on both the serial and the chunked path.
                      if (s <= 5000 && 5000 < e) {
                        throw std::runtime_error("chunk failed");
                      }
                    }),
        std::runtime_error);
    // The pool must stay usable after an exception.
    std::atomic<int64_t> sum{0};
    ParallelFor(0, 1000, 16, [&](int64_t s, int64_t e) {
      sum.fetch_add(e - s);
    });
    EXPECT_EQ(sum.load(), 1000);
  }
}

// A ParallelFor issued from inside a chunk must degrade to serial instead
// of re-entering the pool. The nested region still covers its full range.
TEST(ThreadPoolTest, NestedCallDegradesToSerial) {
  ScopedNumThreads guard(4);
  const int64_t outer_n = 64, inner_n = 512;
  std::vector<std::atomic<int>> counts(outer_n * inner_n);
  for (auto& c : counts) c.store(0);
  ParallelFor(0, outer_n, 1, [&](int64_t os, int64_t oe) {
    for (int64_t o = os; o < oe; ++o) {
      EXPECT_TRUE(common::InParallelRegion());
      ParallelFor(0, inner_n, 1, [&](int64_t is, int64_t ie) {
        // Serial degradation: the nested call is one full-range chunk.
        EXPECT_EQ(is, 0);
        EXPECT_EQ(ie, inner_n);
        for (int64_t i = is; i < ie; ++i) {
          counts[o * inner_n + i].fetch_add(1);
        }
      });
    }
  });
  for (const auto& c : counts) ASSERT_EQ(c.load(), 1);
  EXPECT_FALSE(common::InParallelRegion());
}

TEST(ThreadPoolTest, PoolStatsCountCallsChunksAndSerialRuns) {
  ScopedNumThreads guard(4);
  const auto before = common::GetPoolStats();
  EXPECT_EQ(before.num_threads, 4);

  // Pooled path: 1000/10 with 4 threads splits into >1 chunks.
  ParallelFor(0, 1000, 10, [](int64_t, int64_t) {});
  const auto pooled = common::GetPoolStats();
  EXPECT_EQ(pooled.parallel_for_calls, before.parallel_for_calls + 1);
  EXPECT_EQ(pooled.serial_runs, before.serial_runs);
  EXPECT_GT(pooled.chunks_executed, before.chunks_executed + 1);

  // grain >= n: the serial fallback runs no pool chunks.
  ParallelFor(0, 10, 100, [](int64_t, int64_t) {});
  const auto serial = common::GetPoolStats();
  EXPECT_EQ(serial.parallel_for_calls, pooled.parallel_for_calls + 1);
  EXPECT_EQ(serial.serial_runs, pooled.serial_runs + 1);
  EXPECT_EQ(serial.chunks_executed, pooled.chunks_executed);
}

// Nested calls degrade to serial; the counters must record them as calls +
// serial runs (not pool chunks), and keep counting accurately afterwards.
TEST(ThreadPoolTest, PoolStatsSurviveNestedSerialDegradation) {
  ScopedNumThreads guard(4);
  const auto before = common::GetPoolStats();
  const int64_t outer_n = 16;
  std::atomic<int64_t> nested_serial{0};
  ParallelFor(0, outer_n, 1, [&](int64_t os, int64_t oe) {
    for (int64_t o = os; o < oe; ++o) {
      ParallelFor(0, 256, 1, [&](int64_t is, int64_t ie) {
        if (is == 0 && ie == 256) nested_serial.fetch_add(1);
      });
    }
  });
  const auto after = common::GetPoolStats();
  EXPECT_EQ(nested_serial.load(), outer_n);  // every nested call was serial
  // outer + one nested call per outer index.
  EXPECT_EQ(after.parallel_for_calls,
            before.parallel_for_calls + 1 + outer_n);
  EXPECT_EQ(after.serial_runs, before.serial_runs + outer_n);
  // Only the outer call consumed pool chunks.
  const int64_t chunks = after.chunks_executed - before.chunks_executed;
  EXPECT_GT(chunks, 1);
  EXPECT_LE(chunks, outer_n);

  // The pool keeps counting normally after the nested episode.
  ParallelFor(0, 1000, 10, [](int64_t, int64_t) {});
  const auto final_stats = common::GetPoolStats();
  EXPECT_EQ(final_stats.parallel_for_calls, after.parallel_for_calls + 1);
  EXPECT_GT(final_stats.chunks_executed, after.chunks_executed);
}

// Dispatch makes no heap allocation at any width, even for a body that
// captures four references (too wide for std::function's inline buffer).
TEST(ThreadPoolTest, ParallelForAllocatesNothing) {
  std::vector<float> a(4096, 1.0f), b(4096, 2.0f), out(4096);
  float scale = 0.5f;
  auto run = [&] {
    ParallelFor(0, 4096, 256, [&a, &b, &out, &scale](int64_t s, int64_t e) {
      for (int64_t i = s; i < e; ++i) out[i] = a[i] * b[i] * scale;
    });
  };
  for (const int threads : {1, 4}) {
    ScopedNumThreads guard(threads);
    for (int i = 0; i < 100; ++i) run();  // warm-up: starts the workers
    const int64_t before = g_operator_new_calls.load();
    for (int i = 0; i < 1000; ++i) run();
    EXPECT_EQ(g_operator_new_calls.load() - before, 0)
        << "threads=" << threads;
  }
}

// A reduction of up to 64 chunks keeps its partials on the stack: no heap
// allocation per call at any width.
TEST(ThreadPoolTest, DeterministicSumAllocatesNothing) {
  std::vector<float> values(4096, 0.25f);
  auto run = [&] {
    return DeterministicChunkedSum(4096, 256, [&](int64_t b, int64_t e) {
      double s = 0.0;
      for (int64_t i = b; i < e; ++i) s += values[i];
      return s;
    });
  };
  for (const int threads : {1, 4}) {
    ScopedNumThreads guard(threads);
    for (int i = 0; i < 100; ++i) run();  // warm-up: starts the workers
    const int64_t before = g_operator_new_calls.load();
    double total = 0.0;
    for (int i = 0; i < 1000; ++i) total += run();
    EXPECT_EQ(g_operator_new_calls.load() - before, 0)
        << "threads=" << threads;
    EXPECT_EQ(total, 1000.0 * 1024.0);
  }
}

// Two threads dispatching at once each cover their own range exactly once
// per call, and neither waits on the other's region: a call made while
// another thread's region is in flight runs serially on its caller.
TEST(ThreadPoolTest, ConcurrentCallersEachCoverTheirRange) {
  ScopedNumThreads guard(4);
  constexpr int64_t kN = 4096;
  constexpr int kCalls = 200;
  // Plain ints: the pool's own synchronization must publish the chunks.
  auto calls = [](std::vector<int>* counts) {
    for (int call = 0; call < kCalls; ++call) {
      ParallelFor(0, kN, 64, [counts](int64_t s, int64_t e) {
        for (int64_t i = s; i < e; ++i) ++(*counts)[i];
      });
    }
  };
  std::vector<int> first(kN, 0), second(kN, 0);
  std::thread t1(calls, &first), t2(calls, &second);
  t1.join();
  t2.join();
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(first[i], kCalls) << i;
    ASSERT_EQ(second[i], kCalls) << i;
  }

  // A region held open until another thread's call has returned. Were that
  // call to wait for the held region, it could not return, and the held
  // chunk would give up at the deadline.
  std::atomic<bool> holding{false}, other_returned{false};
  bool saw_other_return = false;
  std::thread holder([&] {
    ParallelFor(0, 64, 1, [&](int64_t s, int64_t) {
      if (s != 0) return;
      holding = true;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!other_returned && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      saw_other_return = other_returned;
    });
  });
  while (!holding) std::this_thread::yield();
  std::vector<int> counts(kN, 0);
  ParallelFor(0, kN, 64, [&](int64_t s, int64_t e) {
    for (int64_t i = s; i < e; ++i) ++counts[i];
  });
  other_returned = true;
  holder.join();
  EXPECT_TRUE(saw_other_return);
  for (int64_t i = 0; i < kN; ++i) ASSERT_EQ(counts[i], 1) << i;
}

// Switching the width between regions, as every ScopedNumThreads does,
// leaves the pool working: each region still covers its range once.
TEST(ThreadPoolTest, WidthChangesKeepWorking) {
  constexpr int64_t kN = 1024;
  constexpr int kRounds = 1000;
  std::vector<int> counts(kN, 0);
  for (int round = 0; round < kRounds; ++round) {
    for (const int threads : {1, 4}) {
      ScopedNumThreads guard(threads);
      ParallelFor(0, kN, 16, [&](int64_t s, int64_t e) {
        for (int64_t i = s; i < e; ++i) ++counts[i];
      });
    }
  }
  for (int64_t i = 0; i < kN; ++i) ASSERT_EQ(counts[i], 2 * kRounds) << i;
}

TEST(ThreadPoolTest, SetNumThreadsIsReflected) {
  const int original = GetNumThreads();
  SetNumThreads(3);
  EXPECT_EQ(GetNumThreads(), 3);
  SetNumThreads(1);
  EXPECT_EQ(GetNumThreads(), 1);
  SetNumThreads(0);  // restores the default
  EXPECT_GE(GetNumThreads(), 1);
  SetNumThreads(original);
}

TEST(ThreadPoolTest, GrainBoundaryCases) {
  ScopedNumThreads guard(4);
  // grain larger than the range: single serial call.
  std::vector<std::pair<int64_t, int64_t>> ranges;
  ParallelFor(0, 10, 100, [&](int64_t s, int64_t e) {
    ranges.emplace_back(s, e);
  });
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (std::pair<int64_t, int64_t>{0, 10}));

  // Zero/negative grain is clamped to 1 rather than dividing by zero.
  std::atomic<int64_t> visited{0};
  ParallelFor(0, 100, 0, [&](int64_t s, int64_t e) {
    visited.fetch_add(e - s);
  });
  EXPECT_EQ(visited.load(), 100);

  // Empty and reversed ranges are no-ops.
  bool called = false;
  ParallelFor(0, 0, 1, [&](int64_t, int64_t) { called = true; });
  ParallelFor(5, 3, 1, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

// The reduction contract: same bits at any thread count because the chunk
// layout and combine tree depend only on (n, grain).
TEST(ThreadPoolTest, DeterministicSumIdenticalAcrossThreadCounts) {
  Rng rng(42);
  const int64_t n = 100000;
  std::vector<float> values(n);
  for (auto& v : values) v = rng.Uniform(-1.0f, 1.0f);
  auto sum_at = [&](int threads) {
    ScopedNumThreads guard(threads);
    return DeterministicChunkedSum(n, 2048, [&](int64_t b, int64_t e) {
      double s = 0.0;
      for (int64_t i = b; i < e; ++i) s += values[i];
      return s;
    });
  };
  const double at1 = sum_at(1);
  EXPECT_EQ(at1, sum_at(2));
  EXPECT_EQ(at1, sum_at(8));
}

TEST(ThreadPoolTest, DeterministicSumEdgeCases) {
  auto ident = [](int64_t b, int64_t e) {
    return static_cast<double>(e - b);
  };
  EXPECT_EQ(DeterministicChunkedSum(0, 16, ident), 0.0);
  EXPECT_EQ(DeterministicChunkedSum(1, 16, ident), 1.0);
  EXPECT_EQ(DeterministicChunkedSum(16, 16, ident), 16.0);   // exactly 1 chunk
  EXPECT_EQ(DeterministicChunkedSum(17, 16, ident), 17.0);   // ragged tail
  EXPECT_EQ(DeterministicChunkedSum(1000, 1, ident), 1000.0);  // 1000 chunks
}

// TGCRN_NUM_THREADS is one whole integer: a malformed value stops the
// process naming the variable and the value (atoi read "2x" as 2).
TEST(ThreadPoolEnvDeathTest, MalformedNumThreadsAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* bad : {"2x", "abc", " 4", "4 ", "1.5", "99999999999"}) {
    EXPECT_DEATH(
        {
          setenv("TGCRN_NUM_THREADS", bad, 1);
          SetNumThreads(0);  // back to the env default: re-reads it
        },
        "TGCRN_NUM_THREADS=\".*\" is not an integer")
        << bad;
  }
}

// Valid values keep their meaning: n > 0 is the width, 0 or a negative
// value (or an empty one) the hardware concurrency.
TEST(ThreadPoolEnvDeathTest, ValidNumThreadsKeepMeaning) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        setenv("TGCRN_NUM_THREADS", "3", 1);
        SetNumThreads(0);
        std::exit(GetNumThreads() == 3 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  for (const char* fallback : {"0", "-2", ""}) {
    EXPECT_EXIT(
        {
          setenv("TGCRN_NUM_THREADS", "3", 1);
          SetNumThreads(0);
          setenv("TGCRN_NUM_THREADS", fallback, 1);
          SetNumThreads(0);
          const unsigned hw = std::thread::hardware_concurrency();
          std::exit(GetNumThreads() == (hw > 0 ? static_cast<int>(hw) : 1)
                        ? 0
                        : 1);
        },
        ::testing::ExitedWithCode(0), "")
        << fallback;
  }
}

}  // namespace
}  // namespace tgcrn
