// Copyright 2026 TGCRN Reproduction Authors
#include "result.h"

#include <cmath>
#include <cstdio>

#include "obs/json.h"

namespace tgbench {

void RunResult::Add(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) Fail("metric " + name + " is not finite");
  metrics_.push_back({name, value, unit});
}

void RunResult::Fail(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "tgbench: FAIL: %s\n", why.c_str());
}

void RunResult::CountOps(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    Fail(std::to_string(failed) + " of " + std::to_string(attempted) +
         " operations failed");
  }
}

std::string RunResult::Render() const {
  // %.17g keeps every digit of each measured value.
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ", ";
    out += '"';
    out += tgcrn::obs::Json::Escape(m.name);
    out += "\": {\"value\": ";
    out += value;
    out += ", \"unit\": \"";
    out += tgcrn::obs::Json::Escape(m.unit);
    out += "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace tgbench
