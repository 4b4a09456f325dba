// Copyright 2026 TGCRN Reproduction Authors
// Statistics over raw samples. Percentiles are exact nearest-rank values
// of the samples themselves (never interpolated, never read from a
// bucketed histogram), and carry the sample count and how many samples
// lie beyond them, so a tail is only reported where the data supports it.
#ifndef TGBENCH_STATS_H_
#define TGBENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace tgbench {

// Fewest samples that must lie beyond a reported tail percentile.
inline constexpr int64_t kMinSamplesBeyondTail = 10;

struct Percentile {
  double value = 0.0;
  int64_t count = 0;   // samples the percentile was taken over
  int64_t beyond = 0;  // samples strictly after its rank
  bool supported() const { return beyond >= kMinSamplesBeyondTail; }
};

// Nearest-rank percentile q in (0, 100] of `samples`: the value at rank
// ceil(q/100 * n) of the sorted samples. Empty input gives count 0.
Percentile ExactPercentile(std::vector<double> samples, double q);

// Nearest-rank median (the lower middle for an even count); 0 when empty.
double Median(std::vector<double> samples);

// Mean; 0 when empty.
double Mean(const std::vector<double>& samples);

}  // namespace tgbench

#endif  // TGBENCH_STATS_H_
