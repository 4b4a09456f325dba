// Copyright 2026 TGCRN Reproduction Authors
// Tests of the observability layer: JSON round-trips, histogram bucket
// math, stripe-merge correctness under the thread pool, the scoped-span
// off path, and the structured run report produced by a real 2-epoch
// smoke train.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/tgcrn.h"
#include "core/trainer.h"
#include "datagen/metro_sim.h"
#include "obs/diff.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "tensor/buffer_pool.h"

namespace tgcrn {
namespace {

using common::ParallelFor;
using common::ScopedNumThreads;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------------------- JSON --

TEST(JsonTest, DumpParseRoundTrip) {
  obs::Json obj = obs::Json::Object();
  obj.Set("name", obs::Json::Str("hello \"quoted\" \\ world"));
  obj.Set("count", obs::Json::Int(42));
  obj.Set("pi", obs::Json::Number(3.25));
  obj.Set("flag", obs::Json::Bool(true));
  obj.Set("nothing", obs::Json::Null());
  obs::Json arr = obs::Json::Array();
  arr.Append(obs::Json::Int(1));
  arr.Append(obs::Json::Str("two"));
  obj.Set("list", std::move(arr));

  const std::string text = obj.Dump();
  obs::Json parsed;
  std::string error;
  ASSERT_TRUE(obs::Json::Parse(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.GetString("name"), "hello \"quoted\" \\ world");
  EXPECT_EQ(parsed.GetInt("count"), 42);
  EXPECT_DOUBLE_EQ(parsed.GetDouble("pi"), 3.25);
  EXPECT_TRUE(parsed["flag"].AsBool());
  EXPECT_TRUE(parsed["nothing"].is_null());
  ASSERT_EQ(parsed["list"].size(), 2u);
  EXPECT_EQ(parsed["list"].at(1).AsString(), "two");
  // Dump is deterministic: a second round trip emits identical bytes.
  EXPECT_EQ(parsed.Dump(), text);
}

TEST(JsonTest, IntegersDumpWithoutDecimalPoint) {
  EXPECT_EQ(obs::Json::Int(7).Dump(), "7");
  EXPECT_EQ(obs::Json::Int(-12345).Dump(), "-12345");
  EXPECT_EQ(obs::Json::Number(2.5).Dump(), "2.5");
}

// Every finite double dumps as the shortest text that parses back to
// exactly it (integers below 9e15 without a decimal point), and reading
// the dump back gives the same bits.
TEST(JsonTest, NumbersRoundTripExactly) {
  std::vector<double> values = {
      0.0, -0.0, 0.1, -0.1, 1.0 / 3.0, 2.5, 1e-5, 1e-300, 1e300, 5e-324,
      -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
      -1.7976931348623157e308, 8999999999999999.0, 9007199254740993.0,
      123456789.125, 0.30000000000000004, 7.038531e-26};
  Rng rng(77);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t bits = rng.NextUint64();
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    if (std::isfinite(d)) values.push_back(d);
  }
  for (const double d : values) {
    const std::string text = obs::Json::Number(d).Dump();
    obs::Json parsed;
    ASSERT_TRUE(obs::Json::Parse(text, &parsed)) << text;
    const double back = parsed.AsDouble();
    // -0 dumps as the integer 0.
    const double want = d == 0.0 ? 0.0 : d;
    EXPECT_EQ(std::memcmp(&back, &want, sizeof(back)), 0)
        << text << " for " << d;
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), d) << text;
    // No shorter text reads back to d.
    if (text.find_first_of(".e") != std::string::npos) {
      std::string mantissa;
      for (const char ch : text.substr(0, text.find('e'))) {
        if (ch >= '0' && ch <= '9') mantissa.push_back(ch);
      }
      mantissa.erase(0, mantissa.find_first_not_of('0'));
      mantissa.erase(mantissa.find_last_not_of('0') + 1);
      const int digits = static_cast<int>(mantissa.size());
      // Room for the widest %.*g of any double: DBL_MAX's 309 digits.
      char shorter[320];
      std::snprintf(shorter, sizeof(shorter), "%.*g", digits - 1, d);
      if (digits > 1) {
        EXPECT_NE(std::strtod(shorter, nullptr), d) << text;
      }
    }
  }
  EXPECT_EQ(obs::Json::Number(8999999999999999.0).Dump(), "8999999999999999");
  EXPECT_EQ(obs::Json::Number(1e20).Dump(), "1e+20");
  EXPECT_EQ(obs::Json::Number(0.1).Dump(), "0.1");
  EXPECT_EQ(obs::Json::Number(std::nan("")).Dump(), "null");
}

TEST(JsonTest, AsIntSaturatesOutOfRangeNumbers) {
  obs::Json body;
  ASSERT_TRUE(obs::Json::Parse(
      R"({"big":1e308,"small":-1e308,"edge":9223372036854775808,"ok":-42})",
      &body));
  EXPECT_EQ(body.GetInt("big"), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(body.GetInt("small"), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(body.GetInt("edge"), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(body.GetInt("ok"), -42);
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  obs::Json out;
  EXPECT_FALSE(obs::Json::Parse("{", &out));
  EXPECT_FALSE(obs::Json::Parse("{\"a\":1,}", &out));
  EXPECT_FALSE(obs::Json::Parse("[1, 2] trailing", &out));
  EXPECT_FALSE(obs::Json::Parse("", &out));
  EXPECT_TRUE(obs::Json::Parse("  [1, 2, {\"k\": null}]  ", &out));
}

// ----------------------------------------------------------- Histogram --

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds non-positive values.
  EXPECT_EQ(obs::HistogramBucketIndex(0), 0);
  EXPECT_EQ(obs::HistogramBucketIndex(-17), 0);
  // Bucket i covers [2^(i-1), 2^i).
  EXPECT_EQ(obs::HistogramBucketIndex(1), 1);
  EXPECT_EQ(obs::HistogramBucketIndex(2), 2);
  EXPECT_EQ(obs::HistogramBucketIndex(3), 2);
  EXPECT_EQ(obs::HistogramBucketIndex(4), 3);
  EXPECT_EQ(obs::HistogramBucketIndex(1023), 10);
  EXPECT_EQ(obs::HistogramBucketIndex(1024), 11);
  // Every interior bucket's bounds map back to that bucket.
  for (int i = 1; i < obs::kHistogramBuckets - 1; ++i) {
    const int64_t lo = obs::HistogramBucketLowerBound(i);
    EXPECT_EQ(obs::HistogramBucketIndex(lo), i) << "bucket " << i;
    EXPECT_EQ(obs::HistogramBucketIndex(2 * lo - 1), i) << "bucket " << i;
  }
  // Values at and beyond the last lower bound land in the overflow bucket.
  const int64_t overflow_lo =
      obs::HistogramBucketLowerBound(obs::kHistogramBuckets - 1);
  EXPECT_EQ(obs::HistogramBucketIndex(overflow_lo),
            obs::kHistogramBuckets - 1);
  EXPECT_EQ(obs::HistogramBucketIndex(INT64_MAX),
            obs::kHistogramBuckets - 1);
}

TEST(HistogramTest, SnapshotMergesStripes) {
  obs::Histogram* h =
      obs::Registry::Global().GetHistogram("test.merge_histogram_ns");
  h->Reset();
  // Observe from 8 pool threads so multiple stripes receive writes.
  ScopedNumThreads guard(8);
  const int64_t n = 10000;
  ParallelFor(0, n, 1, [&](int64_t s, int64_t e) {
    for (int64_t i = s; i < e; ++i) h->Observe(i % 100);
  });
  const obs::HistogramSnapshot snap = h->Snapshot();
  EXPECT_EQ(snap.count, n);
  int64_t expected_sum = 0;
  for (int64_t i = 0; i < n; ++i) expected_sum += i % 100;
  EXPECT_EQ(snap.sum, expected_sum);
  int64_t bucket_total = 0;
  for (int64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, n);
  EXPECT_DOUBLE_EQ(snap.Mean(),
                   static_cast<double>(expected_sum) / static_cast<double>(n));
  // Values cap at 99, so every quantile's bucket bound stays below 128.
  EXPECT_LE(snap.ApproxQuantile(0.5), 128);
  EXPECT_LE(snap.ApproxQuantile(0.99), 128);
  EXPECT_GE(snap.ApproxQuantile(0.99), snap.ApproxQuantile(0.5));
}

TEST(HistogramTest, ApproxQuantileOnKnownDistribution) {
  obs::Histogram* h =
      obs::Registry::Global().GetHistogram("test.quantile_histogram_ns");
  h->Reset();
  // 90 observations of 2, 10 of 1000.
  for (int i = 0; i < 90; ++i) h->Observe(2);
  for (int i = 0; i < 10; ++i) h->Observe(1000);
  const auto snap = h->Snapshot();
  EXPECT_EQ(snap.count, 100);
  // p50 resolves within the [2,4) bucket; p99 within [1024,2048)'s bound.
  EXPECT_LE(snap.ApproxQuantile(0.5), 4);
  EXPECT_GE(snap.ApproxQuantile(0.99), 1000);
}

TEST(HistogramTest, QuantileErrorBoundsAgainstExactValues) {
  obs::Histogram* h =
      obs::Registry::Global().GetHistogram("test.quantile_bounds_ns");
  h->Reset();
  // A deterministic long-tailed sample: 1..1000 plus a sparse far tail
  // (the shape serving latencies take).
  std::vector<int64_t> values;
  for (int64_t v = 1; v <= 1000; ++v) values.push_back(v);
  for (int64_t i = 0; i < 20; ++i) values.push_back(5000 + i * 100);
  for (int64_t v : values) h->Observe(v);
  std::sort(values.begin(), values.end());
  const obs::HistogramSnapshot snap = h->Snapshot();
  ASSERT_EQ(snap.count, static_cast<int64_t>(values.size()));
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    // Exact quantile under the same rank convention ApproxQuantile uses
    // (the observation at rank floor(q * (count - 1)) + 1).
    const int64_t exact =
        values[static_cast<size_t>(q * static_cast<double>(values.size() - 1))];
    const int64_t approx = snap.ApproxQuantile(q);
    // The 40-bucket log2 scheme reports the containing bucket's upper
    // bound: for values >= 1 it never undershoots the exact quantile and
    // overshoots by strictly less than 2x.
    EXPECT_GE(approx, exact) << "q=" << q;
    EXPECT_LE(approx, 2 * exact) << "q=" << q;
  }
}

// ----------------------------------------------- Counter / Gauge merge --

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  obs::Counter* c =
      obs::Registry::Global().GetCounter("test.concurrent_counter");
  c->Reset();
  ScopedNumThreads guard(8);
  const int64_t n = 200000;
  ParallelFor(0, n, 64, [&](int64_t s, int64_t e) {
    for (int64_t i = s; i < e; ++i) c->Add(1);
  });
  EXPECT_EQ(c->Value(), n);
  // Deltas accumulate too.
  c->Add(5);
  c->Add(-2);
  EXPECT_EQ(c->Value(), n + 3);
}

TEST(GaugeTest, LastWriteWins) {
  obs::Gauge* g = obs::Registry::Global().GetGauge("test.gauge");
  g->Set(1.5);
  EXPECT_DOUBLE_EQ(g->Value(), 1.5);
  g->Set(-42.25);
  EXPECT_DOUBLE_EQ(g->Value(), -42.25);
}

TEST(RegistryTest, CollectExposesSortedText) {
  obs::Registry::Global().GetCounter("test.exposed_counter")->Add(3);
  obs::Registry::Global().GetGauge("test.exposed_gauge")->Set(2.5);
  obs::Registry::Global().GetHistogram("test.exposed_ns")->Observe(7);
  const obs::RegistrySnapshot snap = obs::Registry::Global().Collect();
  ASSERT_FALSE(snap.samples.empty());
  // Samples are sorted by name.
  for (size_t i = 1; i < snap.samples.size(); ++i) {
    EXPECT_LE(snap.samples[i - 1].name, snap.samples[i].name);
  }
  const std::string text = snap.ToText();
  EXPECT_NE(text.find("test.exposed_counter"), std::string::npos);
  EXPECT_NE(text.find("test.exposed_gauge"), std::string::npos);
  EXPECT_NE(text.find("test.exposed_ns.count"), std::string::npos);
}

TEST(RegistryTest, HistogramExpositionCarriesTailQuantiles) {
  obs::Histogram* h =
      obs::Registry::Global().GetHistogram("test.tail_quantiles_ns");
  h->Reset();
  for (int i = 0; i < 100; ++i) h->Observe(10);
  const obs::RegistrySnapshot snap = obs::Registry::Global().Collect();
  // Serving tails live past p99, so the exposition carries p90 and p999
  // alongside the original p50/p99.
  const std::string text = snap.ToText();
  for (const char* line :
       {"test.tail_quantiles_ns.p50", "test.tail_quantiles_ns.p90",
        "test.tail_quantiles_ns.p99", "test.tail_quantiles_ns.p999"}) {
    EXPECT_NE(text.find(line), std::string::npos) << line;
  }
}

// --------------------------------------------------------------- Trace --

TEST(TraceTest, DisabledTracingRecordsNothing) {
  // With the profiler (the one span consumer) disarmed, a span is a
  // relaxed load and a branch: it reaches no attribution tree.
  ASSERT_FALSE(obs::ProfilingEnabled());
  { TGCRN_TRACE_SCOPE("test.should_not_record"); }
  for (const auto& node : obs::CollectProfReport().nodes) {
    EXPECT_NE(node.name, "test.should_not_record");
  }
}

// -------------------------------------------------------------- Report --

TEST(ReportTest, EpochReportJsonRoundTrip) {
  obs::EpochReport epoch;
  epoch.epoch = 3;
  epoch.train_loss = 0.5;
  epoch.val_mae = 1.25;
  epoch.lr = 1e-3;
  epoch.grad_norm_mean = 2.0;
  epoch.grad_norm_last = 1.5;
  epoch.seconds = 0.75;
  epoch.phase_seconds[obs::kPhaseForward] = 0.4;
  epoch.phase_seconds[obs::kPhaseBackward] = 0.3;

  const obs::Json json = epoch.ToJson();
  EXPECT_EQ(json.GetString("type"), "epoch");
  const obs::EpochReport back = obs::EpochReport::FromJson(json);
  EXPECT_EQ(back.epoch, 3);
  EXPECT_DOUBLE_EQ(back.train_loss, 0.5);
  EXPECT_DOUBLE_EQ(back.val_mae, 1.25);
  EXPECT_DOUBLE_EQ(back.lr, 1e-3);
  EXPECT_DOUBLE_EQ(back.grad_norm_mean, 2.0);
  EXPECT_DOUBLE_EQ(back.grad_norm_last, 1.5);
  EXPECT_DOUBLE_EQ(back.seconds, 0.75);
  ASSERT_EQ(back.phase_seconds.size(), 2u);
  EXPECT_DOUBLE_EQ(back.phase_seconds.at(obs::kPhaseForward), 0.4);
}

TEST(JsonTest, GetDoubleTreatsNullAsNaNAndAbsentAsFallback) {
  obs::Json obj = obs::Json::Object();
  obj.Set("present", obs::Json::Number(2.5));
  obj.Set("missing_value", obs::Json::Null());
  EXPECT_DOUBLE_EQ(obj.GetDouble("present", -1.0), 2.5);
  // Present-but-null means "the producer had a non-finite number" (Dump
  // writes NaN/Inf as null), so it reads back as NaN, not the fallback.
  EXPECT_TRUE(std::isnan(obj.GetDouble("missing_value", -1.0)));
  // Absent keys still take the fallback.
  EXPECT_DOUBLE_EQ(obj.GetDouble("absent", -1.0), -1.0);
}

TEST(ReportTest, NonFiniteGradNormRoundTripsThroughNull) {
  obs::EpochReport epoch;
  epoch.epoch = 0;
  epoch.train_loss = 0.5;
  epoch.grad_norm_last = std::numeric_limits<double>::quiet_NaN();
  epoch.grad_norm_mean = std::numeric_limits<double>::infinity();

  const std::string text = epoch.ToJson().Dump();
  // JSON has no NaN/Inf literals; both serialize as null and the line must
  // stay parseable by any standard JSON consumer.
  EXPECT_EQ(text.find("nan"), std::string::npos);
  EXPECT_EQ(text.find("inf"), std::string::npos);
  obs::Json parsed;
  ASSERT_TRUE(obs::Json::Parse(text, &parsed));
  const obs::EpochReport back = obs::EpochReport::FromJson(parsed);
  EXPECT_TRUE(std::isnan(back.grad_norm_last));
  EXPECT_TRUE(std::isnan(back.grad_norm_mean));
  EXPECT_DOUBLE_EQ(back.train_loss, 0.5);
}

TEST(ReportTest, FromJsonlToleratesTruncatedFinalLine) {
  obs::EpochReport epoch;
  epoch.epoch = 0;
  epoch.train_loss = 1.5;
  // A run killed mid-write leaves a partial line with no trailing newline.
  const std::string content =
      epoch.ToJson().Dump() + "\n{\"type\":\"epoch\",\"epo";
  obs::RunReport loaded;
  ASSERT_TRUE(obs::RunReport::FromJsonl(content, &loaded));
  ASSERT_EQ(loaded.epochs.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded.epochs[0].train_loss, 1.5);
  EXPECT_FALSE(loaded.has_summary);
}

TEST(ReportTest, FromJsonlRejectsMalformedInteriorLine) {
  obs::EpochReport epoch;
  epoch.epoch = 0;
  // A broken line followed by a newline is corruption, not a live tail.
  const std::string content =
      "{\"type\":\"epoch\",\"epo\n" + epoch.ToJson().Dump() + "\n";
  obs::RunReport loaded;
  EXPECT_FALSE(obs::RunReport::FromJsonl(content, &loaded));
  obs::RunReport loaded2;
  EXPECT_FALSE(obs::RunReport::FromJsonl("not json at all\n", &loaded2));
}

TEST(ReportTest, FromJsonlSkipsUnknownTypesAndToleratesWrongTypes) {
  obs::EpochReport epoch;
  epoch.epoch = 1;
  epoch.train_loss = 2.0;
  const std::string content =
      "{\"type\":\"comment\",\"text\":\"from a future writer\"}\n" +
      epoch.ToJson().Dump() +
      "\n{\"type\":\"epoch\",\"epoch\":\"oops\",\"train_loss\":\"bad\"}\n";
  obs::RunReport loaded;
  ASSERT_TRUE(obs::RunReport::FromJsonl(content, &loaded));
  // The unknown line is skipped; the wrong-typed epoch line degrades to
  // field defaults instead of aborting.
  ASSERT_EQ(loaded.epochs.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded.epochs[0].train_loss, 2.0);
  EXPECT_EQ(loaded.epochs[1].epoch, 0);
}

// ---------------------------------------------------------------- Diff --

// A minimal two-epoch report with a summary, for diff tests.
obs::RunReport MakeDiffReport() {
  obs::RunReport report;
  report.model = "test";
  report.epochs_run = 2;
  report.total_seconds = 10.0;
  report.has_summary = true;
  for (int i = 0; i < 2; ++i) {
    obs::EpochReport epoch;
    epoch.epoch = i;
    epoch.train_loss = 2.0 - i;
    epoch.val_mae = 3.0 - i;
    epoch.seconds = 5.0;
    epoch.phase_seconds[obs::kPhaseForward] = 2.0;
    epoch.phase_seconds[obs::kPhaseBackward] = 1.5;
    report.epochs.push_back(epoch);
  }
  obs::HorizonMetricsReport avg;
  avg.mae = 1.0;
  avg.rmse = 2.0;
  avg.mape = 10.0;
  report.test_average = avg;
  report.test_per_horizon = {avg, avg};
  return report;
}

TEST(DiffTest, SelfDiffPassesEvenAtZeroThreshold) {
  const obs::RunReport report = MakeDiffReport();
  obs::ReportDiffOptions options;
  options.max_regress_pct = 0.0;
  const obs::ReportDiffResult result =
      obs::DiffReports(report, report, options);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.regressions, 0);
  ASSERT_FALSE(result.rows.empty());
  for (const auto& row : result.rows) {
    EXPECT_DOUBLE_EQ(row.delta_pct, 0.0) << row.metric;
  }
}

TEST(DiffTest, AccuracyRegressionBeyondThresholdGates) {
  const obs::RunReport baseline = MakeDiffReport();
  obs::RunReport candidate = MakeDiffReport();
  candidate.epochs.back().val_mae *= 1.2;  // +20% on a 10% threshold
  obs::ReportDiffOptions options;
  options.max_regress_pct = 10.0;
  const obs::ReportDiffResult result =
      obs::DiffReports(baseline, candidate, options);
  EXPECT_FALSE(result.ok());
  bool found = false;
  for (const auto& row : result.rows) {
    if (row.metric == "val_mae.final") {
      found = true;
      EXPECT_TRUE(row.gated);
      EXPECT_TRUE(row.regressed);
      EXPECT_NEAR(row.delta_pct, 20.0, 1e-9);
    }
  }
  EXPECT_TRUE(found);
}

TEST(DiffTest, NegativeTimeThresholdReportsWithoutGating) {
  const obs::RunReport baseline = MakeDiffReport();
  obs::RunReport candidate = MakeDiffReport();
  // Wildly slower run; should still pass when timing rows aren't gated.
  for (auto& epoch : candidate.epochs) {
    epoch.phase_seconds[obs::kPhaseForward] *= 10.0;
  }
  candidate.total_seconds *= 10.0;
  obs::ReportDiffOptions options;
  options.max_regress_pct = 10.0;
  options.max_time_regress_pct = -1.0;
  const obs::ReportDiffResult result =
      obs::DiffReports(baseline, candidate, options);
  EXPECT_TRUE(result.ok());
  bool found = false;
  for (const auto& row : result.rows) {
    if (row.metric == std::string("phase.") + obs::kPhaseForward + "_s") {
      found = true;
      EXPECT_FALSE(row.gated);
      EXPECT_FALSE(row.regressed);
    }
  }
  EXPECT_TRUE(found);
  // With the threshold inherited (NaN), the same slowdown fails.
  obs::ReportDiffOptions inherit;
  inherit.max_regress_pct = 10.0;
  EXPECT_FALSE(obs::DiffReports(baseline, candidate, inherit).ok());
}

TEST(DiffTest, NanCandidateOnGatedMetricIsRegression) {
  const obs::RunReport baseline = MakeDiffReport();
  obs::RunReport candidate = MakeDiffReport();
  candidate.epochs.back().train_loss =
      std::numeric_limits<double>::quiet_NaN();
  obs::ReportDiffOptions options;
  options.max_regress_pct = 1e9;  // even an absurdly lax threshold fails
  const obs::ReportDiffResult result =
      obs::DiffReports(baseline, candidate, options);
  EXPECT_FALSE(result.ok());
}

TEST(DiffTest, HealthCountersGateOnAnyIncrease) {
  const obs::RunReport baseline = MakeDiffReport();  // no health blocks
  obs::RunReport candidate = MakeDiffReport();
  candidate.epochs.back().has_health = true;
  obs::ModuleHealthReport module;
  module.name = "w";
  module.grad.count = 8;
  module.grad.nan_count = 1;
  candidate.epochs.back().health.modules.push_back(module);
  obs::ReportDiffOptions options;
  options.max_regress_pct = 1e9;
  const obs::ReportDiffResult result =
      obs::DiffReports(baseline, candidate, options);
  EXPECT_FALSE(result.ok());
  bool found = false;
  for (const auto& row : result.rows) {
    if (row.metric == "health.nan_elements") {
      found = true;
      EXPECT_TRUE(row.regressed);
      EXPECT_DOUBLE_EQ(row.baseline, 0.0);
      EXPECT_DOUBLE_EQ(row.candidate, 1.0);
    }
  }
  EXPECT_TRUE(found);
  // A clean candidate with health blocks passes against the same baseline.
  obs::RunReport clean = MakeDiffReport();
  clean.epochs.back().has_health = true;
  EXPECT_TRUE(obs::DiffReports(baseline, clean, options).ok());
}

// -------------------------------------------------------- Metrics dump --

TEST(MetricsDumpTest, WritesRegistrySnapshotToFile) {
  obs::Registry::Global().GetCounter("test.dump_counter")->Add(9);
  const auto path =
      (std::filesystem::temp_directory_path() / "tgcrn_obs_test_dump.txt")
          .string();
  std::filesystem::remove(path);
  ASSERT_TRUE(obs::DumpMetricsRegistry(path));
  const std::string content = ReadFile(path);
  EXPECT_NE(content.find("test.dump_counter"), std::string::npos);
  // "stderr" is the other accepted target; it must not create a file.
  EXPECT_TRUE(obs::DumpMetricsRegistry("stderr"));
  std::filesystem::remove(path);
}

// TGCRN_CHECK failures abort, which skips atexit handlers — the abort hook
// must still flush the metrics dump so post-mortem state survives.
TEST(MetricsDumpTest, CheckFailureFlushesMetricsDumpBeforeAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto path = (std::filesystem::temp_directory_path() /
                     "tgcrn_obs_test_abort_dump.txt")
                        .string();
  std::filesystem::remove(path);
  setenv("TGCRN_METRICS_DUMP", path.c_str(), 1);
  EXPECT_DEATH(
      {
        obs::Registry::Global().GetCounter("test.abort_counter")->Add(1);
        TGCRN_CHECK(false) << "boom";
      },
      "boom");
  unsetenv("TGCRN_METRICS_DUMP");
  const std::string content = ReadFile(path);
  EXPECT_NE(content.find("test.abort_counter"), std::string::npos);
  std::filesystem::remove(path);
}

class ObsTrainFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::MetroSimConfig config;
    config.num_stations = 6;
    config.num_days = 10;
    config.seed = 77;
    config.target_mean_inflow = 50.0;
    config.keep_od_ground_truth = false;
    auto sim = datagen::SimulateMetro(config);
    data::ForecastDataset::Options options;
    options.input_steps = 4;
    options.output_steps = 2;
    dataset_ = new data::ForecastDataset(std::move(sim.data), options);
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static data::ForecastDataset* dataset_;
};

data::ForecastDataset* ObsTrainFixture::dataset_ = nullptr;

TEST_F(ObsTrainFixture, RunReportJsonlRoundTripFromSmokeTrain) {
  const auto path =
      (std::filesystem::temp_directory_path() / "tgcrn_obs_test_run.jsonl")
          .string();
  std::filesystem::remove(path);

  core::TGCRNConfig model_config;
  model_config.num_nodes = 6;
  model_config.input_dim = 2;
  model_config.output_dim = 2;
  model_config.horizon = 2;
  model_config.hidden_dim = 8;
  model_config.num_layers = 1;
  model_config.node_embed_dim = 6;
  model_config.time_embed_dim = 4;
  model_config.steps_per_day = 72;
  Rng rng(12);
  core::TGCRN model(model_config, &rng);

  core::TrainConfig config;
  config.epochs = 2;
  config.max_batches_per_epoch = 10;
  config.verbose = false;
  config.report_path = path;
  const auto result = core::TrainAndEvaluate(&model, *dataset_, config);

  // In-memory report mirrors the run.
  ASSERT_EQ(result.report.epochs.size(), 2u);
  EXPECT_EQ(result.report.model, model.name());
  EXPECT_EQ(result.report.num_parameters, result.num_parameters);
  EXPECT_EQ(result.report.epochs_run, 2);
  for (const auto& epoch : result.report.epochs) {
    EXPECT_GT(epoch.seconds, 0.0);
    EXPECT_GT(epoch.grad_norm_last, 0.0);
    EXPECT_GT(epoch.lr, 0.0);
    EXPECT_GT(epoch.phase_seconds.count(obs::kPhaseForward), 0u);
    EXPECT_GT(epoch.phase_seconds.count(obs::kPhaseBackward), 0u);
    EXPECT_GT(epoch.phase_seconds.count(obs::kPhaseAdam), 0u);
    EXPECT_GT(epoch.phase_seconds.count(obs::kPhaseEval), 0u);
  }
  ASSERT_EQ(result.report.test_per_horizon.size(),
            result.per_horizon.size());
  EXPECT_DOUBLE_EQ(result.report.test_average.mae, result.average.mae);

  // The JSONL file: one valid JSON object per line, 2 epochs + 1 summary.
  const std::string content = ReadFile(path);
  ASSERT_FALSE(content.empty());
  std::istringstream lines(content);
  std::string line;
  int line_count = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    obs::Json parsed;
    std::string error;
    ASSERT_TRUE(obs::Json::Parse(line, &parsed, &error))
        << "line " << line_count << ": " << error;
    ++line_count;
  }
  EXPECT_EQ(line_count, 3);

  // Round trip through the parser reproduces the in-memory report.
  obs::RunReport loaded;
  ASSERT_TRUE(obs::RunReport::FromJsonl(content, &loaded));
  ASSERT_EQ(loaded.epochs.size(), 2u);
  EXPECT_EQ(loaded.model, result.report.model);
  EXPECT_EQ(loaded.num_parameters, result.report.num_parameters);
  EXPECT_EQ(loaded.epochs_run, 2);
  for (size_t i = 0; i < loaded.epochs.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.epochs[i].train_loss,
                     result.report.epochs[i].train_loss);
    EXPECT_DOUBLE_EQ(loaded.epochs[i].val_mae,
                     result.report.epochs[i].val_mae);
    EXPECT_DOUBLE_EQ(loaded.epochs[i].grad_norm_mean,
                     result.report.epochs[i].grad_norm_mean);
    EXPECT_EQ(loaded.epochs[i].phase_seconds.size(),
              result.report.epochs[i].phase_seconds.size());
  }
  ASSERT_EQ(loaded.test_per_horizon.size(),
            result.report.test_per_horizon.size());
  EXPECT_DOUBLE_EQ(loaded.test_average.mae, result.report.test_average.mae);
  // Phase totals accumulate across epochs.
  const auto totals = loaded.PhaseTotals();
  EXPECT_GT(totals.at(obs::kPhaseForward), 0.0);
  EXPECT_GT(totals.at(obs::kPhaseBackward), 0.0);
  std::filesystem::remove(path);
}

// Hot-path metrics wired through the substrate layers actually move when a
// model trains.
TEST_F(ObsTrainFixture, SubsystemCountersAdvanceDuringTraining) {
  // Start from a cold buffer pool: an earlier train in this process
  // (RunReportJsonlRoundTripFromSmokeTrain) would otherwise serve every
  // tensor from the free lists, and the allocation counters count misses.
  TensorBufferPool::Global().Clear();
  obs::Registry& registry = obs::Registry::Global();
  obs::Counter* fwd = registry.GetCounter("autograd.forward_ops");
  obs::Counter* bwd = registry.GetCounter("autograd.backward_ops");
  obs::Counter* allocs = registry.GetCounter("tensor.allocations");
  obs::Counter* bytes = registry.GetCounter("tensor.allocated_bytes");
  obs::Counter* batches = registry.GetCounter("data.batches_assembled");
  const int64_t fwd0 = fwd->Value(), bwd0 = bwd->Value();
  const int64_t alloc0 = allocs->Value(), bytes0 = bytes->Value();
  const int64_t batches0 = batches->Value();

  core::TGCRNConfig model_config;
  model_config.num_nodes = 6;
  model_config.input_dim = 2;
  model_config.output_dim = 2;
  model_config.horizon = 2;
  model_config.hidden_dim = 8;
  model_config.num_layers = 1;
  model_config.node_embed_dim = 6;
  model_config.time_embed_dim = 4;
  model_config.steps_per_day = 72;
  Rng rng(13);
  core::TGCRN model(model_config, &rng);
  core::TrainConfig config;
  config.epochs = 1;
  config.max_batches_per_epoch = 3;
  config.verbose = false;
  core::TrainAndEvaluate(&model, *dataset_, config);

  EXPECT_GT(fwd->Value(), fwd0);
  EXPECT_GT(bwd->Value(), bwd0);
  EXPECT_GT(allocs->Value(), alloc0);
  EXPECT_GT(bytes->Value(), bytes0);
  EXPECT_GT(batches->Value(), batches0);
}

}  // namespace
}  // namespace tgcrn
