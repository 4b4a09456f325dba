// Copyright 2026 TGCRN Reproduction Authors
#include "stats.h"

#include <algorithm>
#include <cmath>

namespace tgbench {

Percentile ExactPercentile(std::vector<double> samples, double q) {
  Percentile out;
  out.count = static_cast<int64_t>(samples.size());
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const double fraction = std::clamp(q, 0.0, 100.0) / 100.0;
  int64_t rank = static_cast<int64_t>(
      std::ceil(fraction * static_cast<double>(out.count) - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, out.count);
  out.value = samples[rank - 1];
  out.beyond = out.count - rank;
  return out;
}

double Median(std::vector<double> samples) {
  return ExactPercentile(std::move(samples), 50.0).value;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

}  // namespace tgbench
