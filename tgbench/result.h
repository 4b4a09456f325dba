// Copyright 2026 TGCRN Reproduction Authors
// What one benchmark run reports: the correctness verdict, operations
// attempted and failed, and named metrics with units. Render() gives the
// single JSON line the benchmark prints last.
#ifndef TGBENCH_RESULT_H_
#define TGBENCH_RESULT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tgbench {

class RunResult {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void Add(const std::string& name, double value, const std::string& unit);
  // Marks the run incorrect and explains why on stderr.
  void Fail(const std::string& why);
  // Counts operations; `failed` of them went wrong (each is also a
  // correctness failure).
  void CountOps(int64_t attempted, int64_t failed);

  bool correct() const { return correct_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<Metric>& metrics() const { return metrics_; }

  // {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  // with every value at full precision.
  std::string Render() const;

 private:
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

}  // namespace tgbench

#endif  // TGBENCH_RESULT_H_
