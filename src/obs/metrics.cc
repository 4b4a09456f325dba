// Copyright 2026 TGCRN Reproduction Authors
#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

namespace tgcrn {
namespace obs {

int HistogramBucketIndex(int64_t value) {
  if (value <= 0) return 0;
  // bit_width(value): floor(log2) + 1, so value 1 -> bucket 1, 2..3 -> 2,
  // 4..7 -> 3, ...
  int width = 0;
  uint64_t v = static_cast<uint64_t>(value);
  while (v != 0) {
    v >>= 1;
    ++width;
  }
  return std::min(width, kHistogramBuckets - 1);
}

int64_t HistogramBucketLowerBound(int bucket) {
  if (bucket <= 0) return 0;
  return int64_t{1} << (bucket - 1);
}

int ThisThreadStripe() {
  static std::atomic<int> next{0};
  thread_local const int stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricStripes;
  return stripe;
}

int64_t Counter::Value() const {
  int64_t total = 0;
  for (const auto& s : stripes_) {
    total += s.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (auto& s : stripes_) s.value.store(0, std::memory_order_relaxed);
}

uint64_t Gauge::ToBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double Gauge::FromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

int64_t HistogramSnapshot::ApproxQuantile(double quantile) const {
  if (count <= 0) return 0;
  quantile = std::max(0.0, std::min(1.0, quantile));
  const auto target =
      static_cast<int64_t>(quantile * static_cast<double>(count - 1)) + 1;
  int64_t seen = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    seen += buckets[b];
    if (seen >= target) {
      // Upper bound of bucket b (== lower bound of b+1); the overflow
      // bucket reports its own lower bound.
      return b + 1 < kHistogramBuckets ? HistogramBucketLowerBound(b + 1)
                                       : HistogramBucketLowerBound(b);
    }
  }
  return HistogramBucketLowerBound(kHistogramBuckets - 1);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  for (const auto& s : stripes_) {
    for (int b = 0; b < kHistogramBuckets; ++b) {
      snapshot.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
    snapshot.sum += s.sum.load(std::memory_order_relaxed);
  }
  for (const int64_t b : snapshot.buckets) snapshot.count += b;
  return snapshot;
}

void Histogram::Reset() {
  for (auto& s : stripes_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
  }
}

std::string RegistrySnapshot::ToText() const {
  std::ostringstream out;
  for (const auto& sample : samples) {
    switch (sample.kind) {
      case MetricSample::Kind::kCounter:
        out << sample.name << " " << sample.counter_value << "\n";
        break;
      case MetricSample::Kind::kGauge:
        out << sample.name << " " << sample.gauge_value << "\n";
        break;
      case MetricSample::Kind::kHistogram:
        out << sample.name << ".count " << sample.histogram.count << "\n"
            << sample.name << ".sum " << sample.histogram.sum << "\n"
            << sample.name << ".p50 "
            << sample.histogram.ApproxQuantile(0.5) << "\n"
            << sample.name << ".p90 "
            << sample.histogram.ApproxQuantile(0.9) << "\n"
            << sample.name << ".p99 "
            << sample.histogram.ApproxQuantile(0.99) << "\n"
            << sample.name << ".p999 "
            << sample.histogram.ApproxQuantile(0.999) << "\n";
        break;
    }
  }
  return out.str();
}

struct Registry::Impl {
  mutable std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry::Registry() : impl_(new Impl) {}

Registry& Registry::Global() {
  static Registry* registry = new Registry();  // leaked deliberately
  return *registry;
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto& slot = impl_->counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto& slot = impl_->gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto& slot = impl_->histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

RegistrySnapshot Registry::Collect() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  RegistrySnapshot snapshot;
  for (const auto& [name, counter] : impl_->counters) {
    MetricSample sample;
    sample.name = name;
    sample.kind = MetricSample::Kind::kCounter;
    sample.counter_value = counter->Value();
    snapshot.samples.push_back(std::move(sample));
  }
  for (const auto& [name, gauge] : impl_->gauges) {
    MetricSample sample;
    sample.name = name;
    sample.kind = MetricSample::Kind::kGauge;
    sample.gauge_value = gauge->Value();
    snapshot.samples.push_back(std::move(sample));
  }
  for (const auto& [name, histogram] : impl_->histograms) {
    MetricSample sample;
    sample.name = name;
    sample.kind = MetricSample::Kind::kHistogram;
    sample.histogram = histogram->Snapshot();
    snapshot.samples.push_back(std::move(sample));
  }
  std::sort(snapshot.samples.begin(), snapshot.samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return snapshot;
}

void Registry::ResetAll() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& [name, counter] : impl_->counters) counter->Reset();
  for (auto& [name, histogram] : impl_->histograms) histogram->Reset();
}

bool DumpMetricsRegistry(const std::string& target) {
  const std::string text = Registry::Global().Collect().ToText();
  if (target == "stderr") {
    std::fputs(text.c_str(), stderr);
    return std::fflush(stderr) == 0;
  }
  std::FILE* out = std::fopen(target.c_str(), "w");
  if (out == nullptr) return false;
  const bool ok = std::fputs(text.c_str(), out) >= 0;
  return std::fclose(out) == 0 && ok;
}

const std::string& MetricsDumpTargetFromEnv() {
  static const std::string* target = [] {
    const char* v = std::getenv("TGCRN_METRICS_DUMP");
    return new std::string(v != nullptr ? v : "");
  }();
  return *target;
}

namespace {

// With TGCRN_METRICS_DUMP set, write the registry exposition at clean
// process exit. (The abort path in common/check.h dumps explicitly, since
// abort() skips atexit handlers.)
struct EnvDumpRegistrar {
  EnvDumpRegistrar() {
    if (!MetricsDumpTargetFromEnv().empty()) {
      std::atexit([] { DumpMetricsRegistry(MetricsDumpTargetFromEnv()); });
    }
  }
};
EnvDumpRegistrar env_dump_registrar;

}  // namespace

}  // namespace obs
}  // namespace tgcrn
