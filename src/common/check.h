// Copyright 2026 TGCRN Reproduction Authors
// Invariant-checking macros, following Arrow's DCHECK philosophy: a failed
// check is a programmer error (e.g. a mis-shaped matmul), not a runtime
// condition to recover from, so we print a diagnostic and abort.
#ifndef TGCRN_COMMON_CHECK_H_
#define TGCRN_COMMON_CHECK_H_

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace tgcrn {
namespace internal {

// Best-effort flush of the observability sinks (profile file, metric-dump
// target, registered hooks) before abort() — which skips atexit handlers,
// i.e. exactly when a snapshot is most needed. Defined in obs/trace.cc
// (every binary links libtgcrn); reentrancy-guarded and safe when no sink
// is active.
void FlushObservabilityOnAbort();

// Aborts the process after printing `msg` with source location context.
[[noreturn]] inline void CheckFailed(const char* file, int line,
                                     const char* expr,
                                     const std::string& msg) {
  std::fprintf(stderr, "[TGCRN CHECK FAILED] %s:%d: (%s) %s\n", file, line,
               expr, msg.c_str());
  std::fflush(stderr);
  FlushObservabilityOnAbort();
  std::abort();
}

// Stream collector so call sites can write `TGCRN_CHECK(x) << "detail"`.
class CheckMessageBuilder {
 public:
  CheckMessageBuilder(const char* file, int line, const char* expr)
      : file_(file), line_(line), expr_(expr) {}
  [[noreturn]] ~CheckMessageBuilder() {
    CheckFailed(file_, line_, expr_, stream_.str());
  }
  template <typename T>
  CheckMessageBuilder& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  const char* file_;
  int line_;
  const char* expr_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace tgcrn

// Checks a boolean invariant; active in all build modes because the cost is
// negligible relative to the math kernels it guards.
#define TGCRN_CHECK(cond)                                                  \
  if (!(cond))                                                             \
  ::tgcrn::internal::CheckMessageBuilder(__FILE__, __LINE__, #cond)

#define TGCRN_CHECK_EQ(a, b) \
  TGCRN_CHECK((a) == (b)) << " lhs=" << (a) << " rhs=" << (b) << " "
#define TGCRN_CHECK_NE(a, b) \
  TGCRN_CHECK((a) != (b)) << " lhs=" << (a) << " rhs=" << (b) << " "
#define TGCRN_CHECK_LT(a, b) \
  TGCRN_CHECK((a) < (b)) << " lhs=" << (a) << " rhs=" << (b) << " "
#define TGCRN_CHECK_LE(a, b) \
  TGCRN_CHECK((a) <= (b)) << " lhs=" << (a) << " rhs=" << (b) << " "
#define TGCRN_CHECK_GT(a, b) \
  TGCRN_CHECK((a) > (b)) << " lhs=" << (a) << " rhs=" << (b) << " "
#define TGCRN_CHECK_GE(a, b) \
  TGCRN_CHECK((a) >= (b)) << " lhs=" << (a) << " rhs=" << (b) << " "

#endif  // TGCRN_COMMON_CHECK_H_
