// Copyright 2026 TGCRN Reproduction Authors
// Command-line flags of the tgbench binary. Every value is validated here:
// an unknown flag, a missing value, a non-numeric or out-of-range number,
// or an unknown workload is a usage error, never an exception.
#ifndef TGBENCH_FLAGS_H_
#define TGBENCH_FLAGS_H_

#include <cstdint>
#include <string>

namespace tgbench {

struct Flags {
  std::string workload;     // required; one of kWorkloadNames
  uint64_t seed = 1;        // input generator seed
  int seconds = 30;         // measurement budget of one run
  bool trace = false;       // per-layer (traced) run instead of end to end
  std::string sha = "unknown";  // source revision stamped into the result
};

// The workloads main.cc knows, in the order README.md lists them.
inline constexpr const char* kWorkloadNames[] = {"metro-dense", "city-sparse"};

// Parses argv[1..argc). Returns false with *error set on any invalid input.
bool ParseFlags(int argc, const char* const* argv, Flags* flags,
                std::string* error);

// One-paragraph usage text, ending in a newline.
const char* Usage();

}  // namespace tgbench

#endif  // TGBENCH_FLAGS_H_
