// Copyright 2026 TGCRN Reproduction Authors
// Bench-side tracing: spans recorded around calls into the program's
// public API (the program itself is not instrumented). A span has a name,
// a start and end on the steady clock, and the span that was open when it
// began (its parent). Spans stay in memory; the benchmark summarizes them
// when it ends. A null recorder makes every Span a no-op, so one code path
// serves the traced and the untraced run.
#ifndef TGBENCH_SPANS_H_
#define TGBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tgbench {

// Steady-clock nanoseconds.
int64_t NowNs();

class SpanRecorder {
 public:
  struct Record {
    const char* name;  // string literal
    int parent;        // index of the enclosing span, -1 at top level
    int64_t start_ns;
    int64_t end_ns;
  };

  int Begin(const char* name);
  void End(int index);

  const std::vector<Record>& records() const { return records_; }

  // Durations in milliseconds of every closed span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;
  // Self time (duration minus the time covered by direct children) in
  // milliseconds of every closed span called `name`.
  std::vector<double> SelfMs(const std::string& name) const;

  struct Summary {
    std::string name;
    int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  // Per span name, in first-seen order.
  std::vector<Summary> Summarize() const;

 private:
  // Per record: nanoseconds covered by its closed direct children.
  std::vector<int64_t> ChildNs() const;

  std::vector<Record> records_;
  int open_ = -1;  // innermost open span
};

// RAII span; no-op when `recorder` is null.
class Span {
 public:
  Span(SpanRecorder* recorder, const char* name)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Begin(name) : -1) {}
  ~Span() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace tgbench

#endif  // TGBENCH_SPANS_H_
