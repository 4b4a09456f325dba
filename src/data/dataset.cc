// Copyright 2026 TGCRN Reproduction Authors
#include "data/dataset.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace tgcrn {
namespace data {

void StandardScaler::Fit(const Tensor& values, int64_t fit_steps) {
  TGCRN_CHECK_EQ(values.dim(), 3);
  TGCRN_CHECK_GT(fit_steps, 0);
  TGCRN_CHECK_LE(fit_steps, values.size(0));
  const int64_t n = values.size(1);
  const int64_t d = values.size(2);
  means_.assign(d, 0.0f);
  stds_.assign(d, 1.0f);
  const float* p = values.data();
  const int64_t per_channel = fit_steps * n;
  for (int64_t c = 0; c < d; ++c) {
    double sum = 0.0;
    for (int64_t t = 0; t < fit_steps; ++t) {
      for (int64_t i = 0; i < n; ++i) {
        sum += p[(t * n + i) * d + c];
      }
    }
    const double mean = sum / per_channel;
    double sq = 0.0;
    for (int64_t t = 0; t < fit_steps; ++t) {
      for (int64_t i = 0; i < n; ++i) {
        const double dv = p[(t * n + i) * d + c] - mean;
        sq += dv * dv;
      }
    }
    means_[c] = static_cast<float>(mean);
    stds_[c] = static_cast<float>(std::max(std::sqrt(sq / per_channel),
                                           1e-6));
  }
}

void StandardScaler::SetMoments(std::vector<float> means,
                                std::vector<float> stds) {
  TGCRN_CHECK(!means.empty());
  TGCRN_CHECK_EQ(means.size(), stds.size());
  means_ = std::move(means);
  stds_ = std::move(stds);
}

Tensor StandardScaler::Transform(const Tensor& values) const {
  const int64_t d = values.size(values.dim() - 1);
  TGCRN_CHECK_EQ(d, static_cast<int64_t>(means_.size()));
  Tensor out = values.Clone();
  float* p = out.mutable_data();
  const int64_t n = out.numel();
  for (int64_t i = 0; i < n; ++i) {
    const int64_t c = i % d;
    p[i] = (p[i] - means_[c]) / stds_[c];
  }
  return out;
}

Tensor StandardScaler::InverseTransform(const Tensor& values) const {
  const int64_t d = values.size(values.dim() - 1);
  TGCRN_CHECK_EQ(d, static_cast<int64_t>(means_.size()));
  Tensor out = values.Clone();
  float* p = out.mutable_data();
  const int64_t n = out.numel();
  for (int64_t i = 0; i < n; ++i) {
    const int64_t c = i % d;
    p[i] = p[i] * stds_[c] + means_[c];
  }
  return out;
}

ForecastDataset::ForecastDataset(SpatioTemporalData data, Options options)
    : data_(std::move(data)), options_(options) {
  const int64_t total = data_.num_steps();
  const int64_t window = options_.input_steps + options_.output_steps;
  TGCRN_CHECK_GT(total, window);
  TGCRN_CHECK_EQ(static_cast<int64_t>(data_.slot_of_day.size()), total);
  TGCRN_CHECK_EQ(static_cast<int64_t>(data_.day_of_week.size()), total);

  // Chronological boundaries in raw time steps.
  const auto train_end = static_cast<int64_t>(total * options_.train_fraction);
  const auto val_end = static_cast<int64_t>(
      total * (options_.train_fraction + options_.val_fraction));
  TGCRN_CHECK_GT(train_end, window);

  scaler_.Fit(data_.values, train_end);
  scaled_values_ = scaler_.Transform(data_.values);

  // A window starting at s spans [s, s+window). Windows are assigned to the
  // split containing their final step, so no test information leaks into
  // training (standard practice: splits share boundary history).
  for (int64_t s = 0; s + window <= total; ++s) {
    const int64_t last = s + window - 1;
    if (last < train_end) {
      train_starts_.push_back(s);
    } else if (last < val_end) {
      val_starts_.push_back(s);
    } else {
      test_starts_.push_back(s);
    }
  }
  TGCRN_CHECK(!train_starts_.empty());
  TGCRN_CHECK(!val_starts_.empty());
  TGCRN_CHECK(!test_starts_.empty());
}

Batch ForecastDataset::MakeBatch(Split split,
                                 const std::vector<int64_t>& sample_ids) const {
  TGCRN_TRACE_SCOPE("data.MakeBatch");
  static obs::Counter* batches =
      obs::Registry::Global().GetCounter("data.batches_assembled");
  static obs::Histogram* assembly_ns =
      obs::Registry::Global().GetHistogram("data.batch_assembly_ns");
  const auto assembly_start = std::chrono::steady_clock::now();
  const std::vector<int64_t>* starts = nullptr;
  switch (split) {
    case Split::kTrain:
      starts = &train_starts_;
      break;
    case Split::kVal:
      starts = &val_starts_;
      break;
    case Split::kTest:
      starts = &test_starts_;
      break;
  }
  const int64_t b = static_cast<int64_t>(sample_ids.size());
  const int64_t p = options_.input_steps;
  const int64_t q = options_.output_steps;
  const int64_t n = data_.num_nodes();
  const int64_t d = data_.num_features();

  Batch batch;
  batch.x = Tensor::Zeros({b, p, n, d});
  batch.y = Tensor::Zeros({b, q, n, d});
  batch.y_scaled = Tensor::Zeros({b, q, n, d});
  batch.x_slots.resize(b);
  batch.y_slots.resize(b);
  batch.x_days.resize(b);
  batch.y_days.resize(b);

  const float* scaled = scaled_values_.data();
  const float* raw = data_.values.data();
  float* bx = batch.x.mutable_data();
  float* by = batch.y.mutable_data();
  float* bys = batch.y_scaled.mutable_data();
  const int64_t step_span = n * d;

  for (int64_t i = 0; i < b; ++i) {
    TGCRN_CHECK_LT(sample_ids[i], static_cast<int64_t>(starts->size()));
    const int64_t s = (*starts)[sample_ids[i]];
    std::copy(scaled + s * step_span, scaled + (s + p) * step_span,
              bx + i * p * step_span);
    std::copy(raw + (s + p) * step_span, raw + (s + p + q) * step_span,
              by + i * q * step_span);
    std::copy(scaled + (s + p) * step_span,
              scaled + (s + p + q) * step_span, bys + i * q * step_span);
    for (int64_t t = 0; t < p; ++t) {
      batch.x_slots[i].push_back(data_.slot_of_day[s + t]);
      batch.x_days[i].push_back(data_.day_of_week[s + t]);
    }
    for (int64_t t = 0; t < q; ++t) {
      batch.y_slots[i].push_back(data_.slot_of_day[s + p + t]);
      batch.y_days[i].push_back(data_.day_of_week[s + p + t]);
    }
  }
  batches->Add(1);
  assembly_ns->Observe(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - assembly_start)
                           .count());
  return batch;
}

std::vector<std::vector<int64_t>> ForecastDataset::EpochBatches(
    Split split, int64_t batch_size, Rng* rng) const {
  int64_t count = 0;
  switch (split) {
    case Split::kTrain:
      count = NumTrainSamples();
      break;
    case Split::kVal:
      count = NumValSamples();
      break;
    case Split::kTest:
      count = NumTestSamples();
      break;
  }
  std::vector<int64_t> ids(count);
  for (int64_t i = 0; i < count; ++i) ids[i] = i;
  if (rng != nullptr) rng->Shuffle(&ids);
  std::vector<std::vector<int64_t>> batches;
  for (int64_t start = 0; start < count; start += batch_size) {
    const int64_t end = std::min(start + batch_size, count);
    batches.emplace_back(ids.begin() + start, ids.begin() + end);
  }
  return batches;
}

}  // namespace data
}  // namespace tgcrn
