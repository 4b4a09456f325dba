// Copyright 2026 TGCRN Reproduction Authors
#include "spans.h"

#include <chrono>
#include <map>

namespace tgbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::Begin(const char* name) {
  records_.push_back({name, open_, NowNs(), 0});
  open_ = static_cast<int>(records_.size()) - 1;
  return open_;
}

void SpanRecorder::End(int index) {
  records_[index].end_ns = NowNs();
  open_ = records_[index].parent;
}

std::vector<double> SpanRecorder::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.end_ns > 0 && name == r.name) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e6);
    }
  }
  return out;
}

std::vector<int64_t> SpanRecorder::ChildNs() const {
  std::vector<int64_t> child_ns(records_.size(), 0);
  for (const Record& r : records_) {
    if (r.parent >= 0 && r.end_ns > 0) {
      child_ns[r.parent] += r.end_ns - r.start_ns;
    }
  }
  return child_ns;
}

std::vector<double> SpanRecorder::SelfMs(const std::string& name) const {
  const std::vector<int64_t> child_ns = ChildNs();
  std::vector<double> out;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_ns > 0 && name == r.name) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns - child_ns[i]) /
                    1e6);
    }
  }
  return out;
}

std::vector<SpanRecorder::Summary> SpanRecorder::Summarize() const {
  const std::vector<int64_t> child_ns = ChildNs();
  std::vector<Summary> out;
  std::map<std::string, size_t> slot;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_ns == 0) continue;
    auto it = slot.find(r.name);
    if (it == slot.end()) {
      it = slot.emplace(r.name, out.size()).first;
      out.push_back({r.name, 0, 0.0, 0.0});
    }
    Summary& s = out[it->second];
    const int64_t total = r.end_ns - r.start_ns;
    ++s.count;
    s.total_ms += static_cast<double>(total) / 1e6;
    s.self_ms += static_cast<double>(total - child_ns[i]) / 1e6;
  }
  return out;
}

}  // namespace tgbench
