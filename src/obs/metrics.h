// Copyright 2026 TGCRN Reproduction Authors
// Lock-cheap process-wide metric registry: counters, gauges, and histograms
// with fixed log2-scale buckets. The write path is built for hot kernels:
//
//  * Counter::Add and Histogram::Observe are one or two *relaxed* atomic
//    increments into a cache-line-padded stripe picked once per thread, so
//    concurrent writers (the thread pool's workers) never contend on a
//    cache line and never take a lock.
//  * Stripes are merged only on Snapshot(), which is a cold read path.
//  * Metric objects live forever once created (the registry never deletes),
//    so call sites can cache the pointer in a function-local static:
//
//      static obs::Counter* c =
//          obs::Registry::Global().GetCounter("threadpool.chunks_executed");
//      c->Add(1);
//
// Naming scheme: "<subsystem>.<noun>[_<unit>]", lower_snake_case after the
// dot, with ns/bytes suffixes for unit-carrying metrics (see DESIGN.md §8).
//
// Header is std-only on purpose: src/common may include it without cycles.
#ifndef TGCRN_OBS_METRICS_H_
#define TGCRN_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace tgcrn {
namespace obs {

// Number of independent write stripes per metric. Threads hash onto a
// stripe at first use; 16 stripes keep the 8-thread pool collision-free in
// expectation while bounding the merge cost of a snapshot.
inline constexpr int kMetricStripes = 16;

// Histograms bucket non-negative integer observations (durations in ns,
// sizes in bytes) by binary magnitude:
//   bucket 0:              value <= 0
//   bucket i (1..N-2):     2^(i-1) <= value < 2^i
//   bucket N-1 (overflow): value >= 2^(N-2)
// 40 buckets span 1 ns .. ~4.6 minutes when observing nanoseconds.
inline constexpr int kHistogramBuckets = 40;

// Maps a value to its bucket index per the scheme above.
int HistogramBucketIndex(int64_t value);
// Inclusive lower bound of a bucket (0 for bucket 0, 2^(i-1) otherwise).
int64_t HistogramBucketLowerBound(int bucket);

// Returns this thread's stripe index in [0, kMetricStripes); assigned
// round-robin on first call so pool workers land on distinct stripes.
int ThisThreadStripe();

namespace internal {
struct alignas(64) PaddedAtomic {
  std::atomic<int64_t> value{0};
};
}  // namespace internal

// Monotonically increasing sum of int64 deltas.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    stripes_[ThisThreadStripe()].value.fetch_add(delta,
                                                 std::memory_order_relaxed);
  }
  int64_t Value() const;
  void Reset();  // test-only: zeroes all stripes

 private:
  internal::PaddedAtomic stripes_[kMetricStripes];
};

// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double value) {
    bits_.store(ToBits(value), std::memory_order_relaxed);
  }
  double Value() const { return FromBits(bits_.load(std::memory_order_relaxed)); }

 private:
  static uint64_t ToBits(double d);
  static double FromBits(uint64_t bits);
  std::atomic<uint64_t> bits_{0};
};

struct HistogramSnapshot {
  int64_t buckets[kHistogramBuckets] = {0};
  int64_t count = 0;  // sum of buckets
  int64_t sum = 0;    // sum of observed values
  // Smallest bucket upper bound whose cumulative count covers `quantile`
  // (in [0,1]) of the observations; 0 when empty. Log-bucket resolution.
  int64_t ApproxQuantile(double quantile) const;
  double Mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }
};

// Striped log2 histogram of non-negative integer observations.
class Histogram {
 public:
  void Observe(int64_t value) {
    Stripe& s = stripes_[ThisThreadStripe()];
    s.buckets[HistogramBucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
  }
  HistogramSnapshot Snapshot() const;
  void Reset();  // test-only

 private:
  struct alignas(64) Stripe {
    std::atomic<int64_t> buckets[kHistogramBuckets] = {};
    std::atomic<int64_t> sum{0};
  };
  Stripe stripes_[kMetricStripes];
};

// One registry entry in a collected snapshot.
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  int64_t counter_value = 0;  // kCounter
  double gauge_value = 0.0;   // kGauge
  HistogramSnapshot histogram;  // kHistogram
};

struct RegistrySnapshot {
  std::vector<MetricSample> samples;  // sorted by name
  // Plain-text exposition, one metric per line (histograms expand to
  // count/sum/p50/p90/p99/p999 lines — serving tails live past p99).
  std::string ToText() const;
};

// Process-global name -> metric map. Lookup takes a mutex (cold path, call
// sites cache the returned pointer); returned pointers are valid forever.
class Registry {
 public:
  static Registry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  RegistrySnapshot Collect() const;

  // Test-only: zeroes every counter and histogram (gauges keep their last
  // value). Metrics stay registered; pointers stay valid.
  void ResetAll();

 private:
  Registry();
  struct Impl;
  Impl* impl_;  // leaked: metrics must outlive static destruction
};

// Writes the global registry's text exposition to `target`: the literal
// string "stderr", or a file path (overwritten). Returns false on I/O
// failure. With TGCRN_METRICS_DUMP=<path|stderr> set, this runs
// automatically at clean process exit and from the TGCRN_CHECK abort path,
// so bench and CI runs capture counters without code changes.
bool DumpMetricsRegistry(const std::string& target);

// The TGCRN_METRICS_DUMP target from the environment ("" when unset).
// Exposed for the flush path in obs/trace.cc.
const std::string& MetricsDumpTargetFromEnv();

}  // namespace obs
}  // namespace tgcrn

#endif  // TGCRN_OBS_METRICS_H_
