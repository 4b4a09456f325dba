// Copyright 2026 TGCRN Reproduction Authors
#include "flags.h"

#include <cerrno>
#include <cstdlib>

namespace tgbench {
namespace {

// Unsigned decimal integer in [min, max]; digits only (no sign, no
// whitespace, no suffix).
bool ParseUnsigned(const std::string& text, uint64_t min, uint64_t max,
                   uint64_t* out) {
  if (text.empty() || text.size() > 20) return false;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || end == nullptr || *end != '\0') return false;
  if (value < min || value > max) return false;
  *out = value;
  return true;
}

bool KnownWorkload(const std::string& name) {
  for (const char* known : kWorkloadNames) {
    if (name == known) return true;
  }
  return false;
}

bool ValidSha(const std::string& sha) {
  if (sha == "unknown") return true;
  if (sha.empty() || sha.size() > 64) return false;
  for (char c : sha) {
    const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!hex) return false;
  }
  return true;
}

}  // namespace

bool ParseFlags(int argc, const char* const* argv, Flags* flags,
                std::string* error) {
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "flag " + flag + " needs a value";
      return false;
    }
    const std::string value = argv[i + 1];
    uint64_t number = 0;
    if (flag == "--workload") {
      if (!KnownWorkload(value)) {
        *error = "unknown workload '" + value + "'";
        return false;
      }
      flags->workload = value;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, 0, UINT64_MAX, &number)) {
        *error = "--seed needs an unsigned integer, got '" + value + "'";
        return false;
      }
      flags->seed = number;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, 1, 600, &number)) {
        *error = "--seconds needs an integer in [1, 600], got '" + value + "'";
        return false;
      }
      flags->seconds = static_cast<int>(number);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace needs 0 or 1, got '" + value + "'";
        return false;
      }
      flags->trace = value == "1";
    } else if (flag == "--sha") {
      if (!ValidSha(value)) {
        *error = "--sha needs a hex revision or 'unknown', got '" + value + "'";
        return false;
      }
      flags->sha = value;
    } else {
      *error = "unknown flag '" + flag + "'";
      return false;
    }
  }
  if (flags->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

const char* Usage() {
  return "usage: tgbench --workload metro-dense|city-sparse [--seed N]\n"
         "               [--seconds 1..600] [--trace 0|1] [--sha REV]\n"
         "Runs one benchmark workload and prints its metrics; the last\n"
         "stdout line is the JSON result. See tgbench/README.md.\n";
}

}  // namespace tgbench
