// Copyright 2026 TGCRN Reproduction Authors
#include "obs/health.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/flags.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "nn/module.h"
#include "obs/metrics.h"
#include "tensor/tensor.h"

namespace tgcrn {
namespace obs {

namespace internal {
std::atomic<HealthMonitor*> g_sampling_monitor{nullptr};
}  // namespace internal

namespace {

// Elements per reduction chunk. Chunk boundaries are a function of the
// element count only and partials combine serially in chunk order, so the
// collected stats are bitwise identical at any thread count — the same
// contract as common::DeterministicChunkedSum.
constexpr int64_t kHealthStatsGrain = 4096;

struct RawStats {
  int64_t finite = 0;
  int64_t nan = 0;
  int64_t inf = 0;
  int64_t zero = 0;
  double sum = 0.0;
  double sumsq = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

RawStats ComputeRawStats(const float* data, int64_t n) {
  const int64_t chunks = (n + kHealthStatsGrain - 1) / kHealthStatsGrain;
  std::vector<RawStats> partials(static_cast<size_t>(chunks));
  common::ParallelFor(0, chunks, 1, [&](int64_t chunk_begin,
                                        int64_t chunk_end) {
    for (int64_t c = chunk_begin; c < chunk_end; ++c) {
      RawStats& p = partials[static_cast<size_t>(c)];
      const int64_t end = std::min(n, (c + 1) * kHealthStatsGrain);
      for (int64_t i = c * kHealthStatsGrain; i < end; ++i) {
        const double v = static_cast<double>(data[i]);
        if (std::isnan(v)) {
          ++p.nan;
          continue;
        }
        if (std::isinf(v)) {
          ++p.inf;
          continue;
        }
        ++p.finite;
        if (v == 0.0) ++p.zero;
        p.sum += v;
        p.sumsq += v * v;
        p.min = std::min(p.min, v);
        p.max = std::max(p.max, v);
      }
    }
  });
  RawStats total;
  for (const RawStats& p : partials) {  // fixed order => deterministic bits
    total.finite += p.finite;
    total.nan += p.nan;
    total.inf += p.inf;
    total.zero += p.zero;
    total.sum += p.sum;
    total.sumsq += p.sumsq;
    total.min = std::min(total.min, p.min);
    total.max = std::max(total.max, p.max);
  }
  return total;
}

// Weighted merge of two stat summaries (for activation accumulation).
void MergeStats(TensorStatsReport* into, const TensorStatsReport& other) {
  if (other.count == 0) return;
  if (into->count == 0) {
    *into = other;
    return;
  }
  const double finite_into =
      static_cast<double>(into->count - into->nan_count - into->inf_count);
  const double finite_other =
      static_cast<double>(other.count - other.nan_count - other.inf_count);
  const double finite = finite_into + finite_other;
  if (finite_other > 0.0) {
    if (finite_into > 0.0) {
      into->mean =
          (into->mean * finite_into + other.mean * finite_other) / finite;
      into->rms = std::sqrt((into->rms * into->rms * finite_into +
                             other.rms * other.rms * finite_other) /
                            finite);
      into->min = std::min(into->min, other.min);
      into->max = std::max(into->max, other.max);
    } else {
      into->mean = other.mean;
      into->rms = other.rms;
      into->min = other.min;
      into->max = other.max;
    }
  }
  into->zero_fraction =
      (into->zero_fraction * static_cast<double>(into->count) +
       other.zero_fraction * static_cast<double>(other.count)) /
      static_cast<double>(into->count + other.count);
  into->count += other.count;
  into->nan_count += other.nan_count;
  into->inf_count += other.inf_count;
}

}  // namespace

HealthOptions HealthOptions::FromEnv() {
  HealthOptions options;
  options.enabled = EnvBoolOrDie("TGCRN_HEALTH", std::getenv("TGCRN_HEALTH"),
                                 options.enabled);
  return options;
}

TensorStatsReport ComputeTensorStats(const Tensor& t) {
  TensorStatsReport stats;
  stats.count = t.numel();
  if (stats.count == 0) return stats;
  const RawStats raw = ComputeRawStats(t.data(), stats.count);
  stats.nan_count = raw.nan;
  stats.inf_count = raw.inf;
  stats.zero_fraction =
      static_cast<double>(raw.zero) / static_cast<double>(stats.count);
  if (raw.finite > 0) {
    stats.mean = raw.sum / static_cast<double>(raw.finite);
    stats.rms = std::sqrt(raw.sumsq / static_cast<double>(raw.finite));
    stats.min = raw.min;
    stats.max = raw.max;
  }
  return stats;
}

std::string DescribeTensorStats(const TensorStatsReport& stats) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "count=%lld mean=%.4g rms=%.4g min=%.4g max=%.4g nan=%lld "
                "inf=%lld zero_fraction=%.3f",
                static_cast<long long>(stats.count), stats.mean, stats.rms,
                stats.min, stats.max, static_cast<long long>(stats.nan_count),
                static_cast<long long>(stats.inf_count), stats.zero_fraction);
  return buf;
}

HealthMonitor::HealthMonitor(const HealthOptions& options)
    : options_(options) {}

HealthMonitor::~HealthMonitor() {
  // Defensive: never leave a dangling tap target behind.
  EndActivationSampling();
}

void HealthMonitor::Attach(const nn::Module& module) {
  params_ = module.NamedParameters();
}

void HealthMonitor::HandleNonFiniteGradients(int64_t step) {
  ++non_finite_steps_;
  static Counter* counter =
      Registry::Global().GetCounter("health.non_finite_grad_steps");
  counter->Add(1);
  for (const auto& [name, param] : params_) {
    if (!param.has_grad()) continue;
    const TensorStatsReport stats = ComputeTensorStats(param.grad());
    if (!stats.HasNonFinite()) continue;
    if (non_finite_logged_ < 5) {
      ++non_finite_logged_;
      TGCRN_LOG(Warning) << "non-finite gradient in module '" << name
                         << "' at step " << step << ": "
                         << DescribeTensorStats(stats);
    }
    return;
  }
  // The global norm was non-finite but no single gradient shows it (the
  // squared sum overflowed); still counted.
}

void HealthMonitor::BeginActivationSampling() {
  if (!options_.enabled) return;
  internal::g_sampling_monitor.store(this, std::memory_order_relaxed);
}

void HealthMonitor::EndActivationSampling() {
  HealthMonitor* expected = this;
  internal::g_sampling_monitor.compare_exchange_strong(
      expected, nullptr, std::memory_order_relaxed);
}

void HealthMonitor::Observe(const char* name, const Tensor& t) {
  const TensorStatsReport stats = ComputeTensorStats(t);
  std::lock_guard<std::mutex> lock(activation_mu_);
  ActivationAccum& accum = activations_[name];
  MergeStats(&accum.merged, stats);
  ++accum.samples;
}

void HealthMonitor::CollectInto(HealthReport* out) {
  out->non_finite_steps = non_finite_steps_;
  non_finite_steps_ = 0;
  non_finite_logged_ = 0;
  out->modules.clear();
  out->modules.reserve(params_.size());
  for (const auto& [name, param] : params_) {
    ModuleHealthReport module_report;
    module_report.name = name;
    module_report.param = ComputeTensorStats(param.value());
    if (param.has_grad()) {
      module_report.grad = ComputeTensorStats(param.grad());
    }
    out->modules.push_back(std::move(module_report));
  }
  out->activations.clear();
  std::lock_guard<std::mutex> lock(activation_mu_);
  for (auto& [name, accum] : activations_) {
    ActivationHealthReport activation_report;
    activation_report.name = name;
    activation_report.samples = accum.samples;
    activation_report.stats = accum.merged;
    out->activations.push_back(std::move(activation_report));
  }
  activations_.clear();
}

void ObserveActivation(const char* name, const Tensor& t) {
  HealthMonitor* monitor =
      internal::g_sampling_monitor.load(std::memory_order_relaxed);
  if (monitor != nullptr) monitor->Observe(name, t);
}

}  // namespace obs
}  // namespace tgcrn
