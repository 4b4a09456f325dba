// Copyright 2026 TGCRN Reproduction Authors
// Tests of the benchmark's own helpers: exact percentiles, flag parsing,
// span self times, the result line, and the forecast/observe response
// checks (a corrupted forecast must be a failed request).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "flags.h"
#include "loadgen.h"
#include "obs/json.h"
#include "result.h"
#include "spans.h"
#include "stats.h"

namespace tgbench {
namespace {

std::vector<double> OneToN(int n) {
  std::vector<double> out;
  for (int i = n; i >= 1; --i) out.push_back(i);  // unsorted on purpose
  return out;
}

TEST(StatsTest, NearestRankPercentiles) {
  const std::vector<double> samples = OneToN(100);
  const Percentile p50 = ExactPercentile(samples, 50.0);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.count, 100);
  EXPECT_EQ(p50.beyond, 50);
  const Percentile p90 = ExactPercentile(samples, 90.0);
  EXPECT_EQ(p90.value, 90.0);
  EXPECT_EQ(p90.beyond, 10);
  EXPECT_TRUE(p90.supported());
  const Percentile p99 = ExactPercentile(samples, 99.0);
  EXPECT_EQ(p99.value, 99.0);
  EXPECT_EQ(p99.beyond, 1);
  EXPECT_FALSE(p99.supported());
  EXPECT_EQ(ExactPercentile(samples, 100.0).value, 100.0);
}

TEST(StatsTest, TailNeedsTenSamplesBeyond) {
  EXPECT_FALSE(ExactPercentile(OneToN(999), 99.0).supported());
  const Percentile p99 = ExactPercentile(OneToN(1000), 99.0);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.beyond, 10);
  EXPECT_TRUE(p99.supported());
}

TEST(StatsTest, PercentileIsAnActualSample) {
  // Never interpolated: the 50th percentile of {1, 10} is 1, not 5.5.
  EXPECT_EQ(ExactPercentile({10.0, 1.0}, 50.0).value, 1.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0, 4.0}), 2.0);
  EXPECT_EQ(Median({7.0}), 7.0);
  EXPECT_EQ(ExactPercentile({}, 50.0).count, 0);
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 6.0}), 3.0);
}

bool Parse(std::vector<const char*> args, Flags* flags, std::string* error) {
  args.insert(args.begin(), "tgbench");
  return ParseFlags(static_cast<int>(args.size()), args.data(), flags, error);
}

TEST(FlagsTest, ParsesTheDriverCommandLine) {
  Flags flags;
  std::string error;
  ASSERT_TRUE(Parse({"--workload", "city-sparse", "--seed", "18446744073709551615",
                     "--seconds", "10", "--trace", "1", "--sha", "abc123"},
                    &flags, &error))
      << error;
  EXPECT_EQ(flags.workload, "city-sparse");
  EXPECT_EQ(flags.seed, 18446744073709551615ULL);
  EXPECT_EQ(flags.seconds, 10);
  EXPECT_TRUE(flags.trace);
  EXPECT_EQ(flags.sha, "abc123");
}

TEST(FlagsTest, RejectsBadInputWithAnError) {
  const std::vector<std::vector<const char*>> bad = {
      {"--workload", "metro-dense", "--seed", "abc"},
      {"--workload", "metro-dense", "--seed", "-3"},
      {"--workload", "metro-dense", "--seed", "12x"},
      {"--workload", "metro-dense", "--seed", "99999999999999999999999"},
      {"--workload", "metro-dense", "--seconds", "0"},
      {"--workload", "metro-dense", "--seconds", "ten"},
      {"--workload", "metro-dense", "--trace", "2"},
      {"--workload", "metro-dense", "--sha", "not hex"},
      {"--workload", "nope"},
      {"--workload", "metro-dense", "--frobnicate", "1"},
      {"--workload"},
      {"--seed", "3"},
  };
  for (const auto& args : bad) {
    Flags flags;
    std::string error;
    EXPECT_FALSE(Parse(args, &flags, &error)) << args.back();
    EXPECT_FALSE(error.empty());
  }
}

TEST(SpansTest, SelfTimeExcludesChildren) {
  SpanRecorder recorder;
  {
    Span outer(&recorder, "outer");
    Span inner(&recorder, "inner");
  }
  ASSERT_EQ(recorder.records().size(), 2u);
  EXPECT_EQ(recorder.records()[1].parent, 0);
  const double outer = recorder.DurationsMs("outer")[0];
  const double inner = recorder.DurationsMs("inner")[0];
  EXPECT_NEAR(recorder.SelfMs("outer")[0], outer - inner, 1e-9);
  const auto summary = recorder.Summarize();
  ASSERT_EQ(summary.size(), 2u);
  EXPECT_EQ(summary[0].name, "outer");
  EXPECT_EQ(summary[0].count, 1);
  Span disabled(nullptr, "ignored");  // a null recorder records nothing
}

TEST(ResultTest, RendersExactlyTheFourKeys) {
  RunResult result;
  result.Add("latency_ms", 1.25, "ms");
  result.CountOps(10, 0);
  tgcrn::obs::Json parsed;
  ASSERT_TRUE(tgcrn::obs::Json::Parse(result.Render(), &parsed));
  EXPECT_EQ(parsed.AsObject().size(), 4u);
  EXPECT_TRUE(parsed["correct"].AsBool());
  EXPECT_EQ(parsed.GetInt("attempted"), 10);
  EXPECT_EQ(parsed["metrics"]["latency_ms"].GetDouble("value"), 1.25);
  EXPECT_EQ(parsed["metrics"]["latency_ms"].GetString("unit"), "ms");
}

TEST(ResultTest, AFailedOperationMakesTheRunIncorrect) {
  RunResult result;
  result.CountOps(5, 1);
  EXPECT_FALSE(result.correct());
  EXPECT_EQ(result.failed(), 1);
}

// A forecast response as the server builds it: obs::Json objects with a
// [Q][N][d] grid of floats.
std::string ForecastLine(const std::vector<float>& values, int64_t id,
                         int64_t steps) {
  tgcrn::obs::Json grid = tgcrn::obs::Json::Array();
  for (size_t q = 0; q < values.size() / 4; ++q) {
    tgcrn::obs::Json nodes = tgcrn::obs::Json::Array();
    for (size_t n = 0; n < 2; ++n) {
      tgcrn::obs::Json feats = tgcrn::obs::Json::Array();
      for (size_t f = 0; f < 2; ++f) {
        feats.Append(tgcrn::obs::Json::Number(values[q * 4 + n * 2 + f]));
      }
      nodes.Append(std::move(feats));
    }
    grid.Append(std::move(nodes));
  }
  tgcrn::obs::Json out = tgcrn::obs::Json::Object();
  out.Set("ok", tgcrn::obs::Json::Bool(true));
  out.Set("op", tgcrn::obs::Json::Str("forecast"));
  out.Set("entity", tgcrn::obs::Json::Str("e3"));
  out.Set("steps", tgcrn::obs::Json::Int(steps));
  out.Set("forecast", std::move(grid));
  out.Set("id", tgcrn::obs::Json::Int(id));
  return out.Dump();
}

class ForecastCheckTest : public ::testing::Test {
 protected:
  ForecastCheckTest() {
    for (int i = 0; i < 12; ++i) values_.push_back(0.1f * i - 3.7f + 1e-7f * i);
    line_ = ForecastLine(values_, 41, 7);
  }
  bool Check(const std::string& line) {
    return CheckForecastResponse(line, 41, 7, values_.data(),
                                 static_cast<int64_t>(values_.size()), &why_);
  }
  std::vector<float> values_;
  std::string line_;
  std::string why_;
};

TEST_F(ForecastCheckTest, AcceptsTheExactValues) {
  EXPECT_TRUE(Check(line_)) << why_;
  std::vector<float> parsed;
  ASSERT_TRUE(ParseForecastValues(line_, &parsed, &why_));
  ASSERT_EQ(parsed.size(), values_.size());
  EXPECT_EQ(std::memcmp(parsed.data(), values_.data(),
                        parsed.size() * sizeof(float)),
            0);
}

TEST_F(ForecastCheckTest, CorruptedForecastsFail) {
  // One changed digit, the last bit of one value, a dropped value, a
  // non-finite value, a refusal, a wrong id, a wrong step count, and a
  // truncated line are each a failed request.
  std::string digit = line_;
  digit[digit.find("-3.")+3] = digit[digit.find("-3.")+3] == '1' ? '2' : '1';
  std::vector<float> nudged = values_;
  uint32_t bits;
  std::memcpy(&bits, &nudged[5], sizeof bits);
  ++bits;
  std::memcpy(&nudged[5], &bits, sizeof bits);
  std::vector<float> shorter(values_.begin(), values_.end() - 4);
  std::string null_value = line_;
  null_value.replace(null_value.find("[[[") + 3, 0, "null,");
  std::string refused = line_;
  refused.replace(refused.find("\"ok\":true"), 9, "\"ok\":false");
  const std::vector<std::string> corrupted = {
      digit,
      ForecastLine(nudged, 41, 7),
      ForecastLine(shorter, 41, 7),
      null_value,
      refused,
      ForecastLine(values_, 42, 7),
      ForecastLine(values_, 41, 8),
      line_.substr(0, line_.size() / 2),
      "",
  };
  for (const std::string& line : corrupted) {
    EXPECT_FALSE(Check(line)) << line;
    EXPECT_FALSE(why_.empty());
  }
}

TEST(ObserveCheckTest, ChecksOkIdAndSteps) {
  std::string why;
  const std::string line =
      "{\"entity\":\"e1\",\"id\":9,\"ok\":true,\"op\":\"observe\",\"steps\":3}";
  EXPECT_TRUE(CheckObserveResponse(line, 9, 3, &why)) << why;
  EXPECT_FALSE(CheckObserveResponse(line, 9, 4, &why));
  EXPECT_FALSE(CheckObserveResponse(line, 8, 3, &why));
  EXPECT_FALSE(CheckObserveResponse(
      "{\"error\":\"bad\",\"id\":9,\"ok\":false}", 9, 3, &why));
  EXPECT_TRUE(CheckOkLine("{\"id\": 9, \"ok\": true}", 9, &why)) << why;
}

}  // namespace
}  // namespace tgbench
