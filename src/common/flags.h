// Copyright 2026 TGCRN Reproduction Authors
// Command-line flags for the shipped tools: a table of "--name value"
// flags, each bound to a destination. A numeric value parses only if the
// whole string is one in-range number of the destination type — "12abc",
// "", " 5", "abc" and overflow all fail, where std::sto* would throw or
// silently accept a prefix. EnvIntOrDie applies the same rule to integer
// environment variables, EnvBoolOrDie to 0/1 switches.
#ifndef TGCRN_COMMON_FLAGS_H_
#define TGCRN_COMMON_FLAGS_H_

#include <charconv>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <utility>

#include "common/check.h"

namespace tgcrn {

class Flags {
 public:
  // Binds `name` to *out: a std::string takes the value verbatim, an
  // arithmetic type through a full-match std::from_chars.
  template <typename T>
  Flags& Add(std::string name, T* out) {
    flags_[std::move(name)] = [out](const std::string& text) {
      if constexpr (std::is_same_v<T, std::string>) {
        *out = text;
        return true;
      } else {
        const char* end = text.data() + text.size();
        const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
        return ec == std::errc() && ptr == end;
      }
    };
    return *this;
  }

  // Consumes "--name value" pairs from argv[first, argc). False, naming
  // the offender on stderr, for an unknown flag, a flag without a value,
  // or a value that does not parse.
  bool Parse(int argc, char** argv, int first) const {
    if (argc < first || (argc - first) % 2 != 0) return false;
    for (int i = first; i < argc; i += 2) {
      const auto flag = flags_.find(argv[i]);
      if (flag == flags_.end() || !flag->second(argv[i + 1])) {
        std::fprintf(stderr, "bad flag %s %s\n", argv[i], argv[i + 1]);
        return false;
      }
    }
    return true;
  }

 private:
  std::map<std::string, std::function<bool(const std::string&)>> flags_;
};

// `value`, the contents of the environment variable `name` (getenv),
// as one whole-string integer in [lo, hi], or `fallback` when it is unset
// or empty. Any other value — not a single integer of type T ("abc",
// "16k", "2x", " 5"), or one outside [lo, hi] — aborts, naming the
// variable and the value: a typo must not silently change the run.
template <typename T>
T EnvIntOrDie(const char* name, const char* value, T fallback,
              T lo = std::numeric_limits<T>::min(),
              T hi = std::numeric_limits<T>::max()) {
  if (value == nullptr || *value == '\0') return fallback;
  T parsed{};
  const char* end = value + std::strlen(value);
  const auto [ptr, ec] = std::from_chars(value, end, parsed);
  TGCRN_CHECK(ec == std::errc() && ptr == end)
      << name << "=\"" << value << "\" is not an integer";
  TGCRN_CHECK(lo <= parsed && parsed <= hi)
      << name << "=\"" << value << "\" is outside [" << lo << ", " << hi
      << "]";
  return parsed;
}

// `value`, the contents of the boolean environment variable `name`:
// `fallback` when unset or empty, false for "0", true for "1". Anything
// else ("false", "off", "yes", "2") aborts, naming the variable.
inline bool EnvBoolOrDie(const char* name, const char* value, bool fallback) {
  if (value == nullptr || *value == '\0') return fallback;
  TGCRN_CHECK(std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0)
      << name << "=\"" << value << "\" is not 0 or 1";
  return value[0] == '1';
}

}  // namespace tgcrn

#endif  // TGCRN_COMMON_FLAGS_H_
