// Copyright 2026 TGCRN Reproduction Authors
// Minimal leveled logging to stderr. Training loops use LOG(INFO) for epoch
// summaries; set TGCRN_LOG_LEVEL=WARNING (or ERROR) to silence them, or call
// SetMinLogLevel() to change the threshold at runtime (the env var only
// provides the initial value).
#ifndef TGCRN_COMMON_LOGGING_H_
#define TGCRN_COMMON_LOGGING_H_

#include <strings.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>

#include "common/check.h"

namespace tgcrn {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

namespace internal {

// `value`, the contents of TGCRN_LOG_LEVEL, as a level: DEBUG, INFO,
// WARNING or ERROR in any letter case, INFO when unset or empty. Any other
// value aborts naming the variable, as EnvIntOrDie (common/flags.h) does
// for integer knobs.
inline LogLevel LogLevelOrDie(const char* value) {
  if (value == nullptr || *value == '\0') return LogLevel::kInfo;
  if (strcasecmp(value, "DEBUG") == 0) return LogLevel::kDebug;
  if (strcasecmp(value, "INFO") == 0) return LogLevel::kInfo;
  if (strcasecmp(value, "WARNING") == 0) return LogLevel::kWarning;
  TGCRN_CHECK(strcasecmp(value, "ERROR") == 0)
      << "TGCRN_LOG_LEVEL=\"" << value
      << "\" is not one of DEBUG, INFO, WARNING, ERROR";
  return LogLevel::kError;
}

// Mutable threshold, seeded from TGCRN_LOG_LEVEL on first use.
inline std::atomic<int>& MinLogLevelStorage() {
  static std::atomic<int> level{
      static_cast<int>(LogLevelOrDie(std::getenv("TGCRN_LOG_LEVEL")))};
  return level;
}

inline LogLevel MinLogLevel() {
  return static_cast<LogLevel>(
      MinLogLevelStorage().load(std::memory_order_relaxed));
}

// Per-call-site occurrence counter backing TGCRN_LOG_EVERY_N. Returns true
// on the 1st, (n+1)th, (2n+1)th, ... call from the given (file, line).
// Logging sites are not hot paths, so a mutex-guarded map is fine.
inline bool ShouldLogEveryN(const char* file, int line, int64_t n) {
  if (n <= 1) return true;
  static std::mutex mu;
  static auto* counts = new std::map<std::pair<std::string, int>, int64_t>();
  std::lock_guard<std::mutex> lock(mu);
  int64_t& count = (*counts)[{file, line}];
  return count++ % n == 0;
}

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line) : level_(level) {
    const char* base = std::strrchr(file, '/');
    stream_ << "[" << LevelName(level) << " " << (base ? base + 1 : file)
            << ":" << line << "] ";
  }
  ~LogMessage() {
    if (level_ >= MinLogLevel()) {
      stream_ << "\n";
      std::fputs(stream_.str().c_str(), stderr);
      std::fflush(stderr);
    }
  }
  std::ostringstream& stream() { return stream_; }

 private:
  static const char* LevelName(LogLevel level) {
    switch (level) {
      case LogLevel::kDebug:
        return "D";
      case LogLevel::kInfo:
        return "I";
      case LogLevel::kWarning:
        return "W";
      case LogLevel::kError:
        return "E";
    }
    return "?";
  }
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal

// Sets the minimum level emitted from this point on (overrides the
// TGCRN_LOG_LEVEL environment variable). Thread-safe.
inline void SetMinLogLevel(LogLevel level) {
  internal::MinLogLevelStorage().store(static_cast<int>(level),
                                       std::memory_order_relaxed);
}

inline LogLevel GetMinLogLevel() { return internal::MinLogLevel(); }

}  // namespace tgcrn

#define TGCRN_LOG(level)                                                 \
  ::tgcrn::internal::LogMessage(::tgcrn::LogLevel::k##level, __FILE__, \
                                __LINE__)                                \
      .stream()

// Emits on the 1st, (n+1)th, (2n+1)th, ... execution of this statement.
// The dangling-else shape keeps it safe inside unbraced if/else and only
// evaluates the streamed expressions on emitting calls.
#define TGCRN_LOG_EVERY_N(level, n)                                      \
  if (!::tgcrn::internal::ShouldLogEveryN(__FILE__, __LINE__, (n))) {    \
  } else                                                                 \
    TGCRN_LOG(level)

#endif  // TGCRN_COMMON_LOGGING_H_
