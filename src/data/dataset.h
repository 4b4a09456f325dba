// Copyright 2026 TGCRN Reproduction Authors
// Dataset plumbing for spatio-temporal forecasting: raw series container,
// z-score scaling, sliding-window sample extraction, chronological
// train/val/test splitting and shuffled mini-batching. Mirrors the data
// handling of the paper (Section IV-A1): windows of P input and Q output
// steps over N nodes with d features, scaled by training-set statistics.
#ifndef TGCRN_DATA_DATASET_H_
#define TGCRN_DATA_DATASET_H_

#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace tgcrn {
namespace data {

// A system of spatially correlated time series with calendar features.
struct SpatioTemporalData {
  Tensor values;                      // [T, N, d]
  std::vector<int64_t> slot_of_day;   // per step, in [0, steps_per_day)
  std::vector<int64_t> day_of_week;   // per step, 0 = Monday .. 6 = Sunday
  int64_t steps_per_day = 0;

  int64_t num_steps() const { return values.size(0); }
  int64_t num_nodes() const { return values.size(1); }
  int64_t num_features() const { return values.size(2); }
};

// Per-feature z-score scaler fitted on a [T, N, d] range.
class StandardScaler {
 public:
  // Fits mean/std per feature channel over steps [0, fit_steps) of `values`.
  void Fit(const Tensor& values, int64_t fit_steps);

  // Installs previously fitted moments (e.g. from a checkpoint — see
  // core/checkpoint.h). Sizes must match and be non-empty.
  void SetMoments(std::vector<float> means, std::vector<float> stds);

  // (x - mean) / std, per channel.
  Tensor Transform(const Tensor& values) const;
  // x * std + mean, per channel. Works on any shape ending in [.., d].
  Tensor InverseTransform(const Tensor& values) const;

  const std::vector<float>& means() const { return means_; }
  const std::vector<float>& stds() const { return stds_; }

 private:
  std::vector<float> means_;
  std::vector<float> stds_;
};

// One mini-batch of forecasting samples.
struct Batch {
  Tensor x;                               // [B, P, N, d] scaled inputs
  Tensor y;                               // [B, Q, N, d] raw targets
  Tensor y_scaled;                        // [B, Q, N, d] scaled targets
  std::vector<std::vector<int64_t>> x_slots;  // [B][P] slot-of-day ids
  std::vector<std::vector<int64_t>> y_slots;  // [B][Q]
  std::vector<std::vector<int64_t>> x_days;   // [B][P] day-of-week
  std::vector<std::vector<int64_t>> y_days;   // [B][Q]

  int64_t batch_size() const { return x.size(0); }
};

// Chronological split + sliding windows + scaling, the standard recipe.
class ForecastDataset {
 public:
  struct Options {
    int64_t input_steps = 4;    // P
    int64_t output_steps = 4;   // Q
    double train_fraction = 0.7;
    double val_fraction = 0.1;  // remainder is test
  };

  ForecastDataset(SpatioTemporalData data, Options options);

  // Sample counts per split (a sample is a window start index).
  int64_t NumTrainSamples() const { return train_starts_.size(); }
  int64_t NumValSamples() const { return val_starts_.size(); }
  int64_t NumTestSamples() const { return test_starts_.size(); }

  // Assembles a batch from explicit window-start indices of a split.
  enum class Split { kTrain, kVal, kTest };
  Batch MakeBatch(Split split, const std::vector<int64_t>& sample_ids) const;

  // Returns shuffled batches of ids covering the whole split once.
  std::vector<std::vector<int64_t>> EpochBatches(Split split,
                                                 int64_t batch_size,
                                                 Rng* rng) const;

  const StandardScaler& scaler() const { return scaler_; }
  const SpatioTemporalData& data() const { return data_; }
  const Options& options() const { return options_; }
  // Number of distinct slot-of-day ids (the |T| of the paper's E_tau).
  int64_t steps_per_day() const { return data_.steps_per_day; }

 private:
  SpatioTemporalData data_;
  Options options_;
  StandardScaler scaler_;
  Tensor scaled_values_;  // [T, N, d]
  std::vector<int64_t> train_starts_;
  std::vector<int64_t> val_starts_;
  std::vector<int64_t> test_starts_;
};

}  // namespace data
}  // namespace tgcrn

#endif  // TGCRN_DATA_DATASET_H_
