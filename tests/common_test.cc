// Copyright 2026 TGCRN Reproduction Authors
// Tests for the common substrate: Status/Result error propagation,
// check-macro aborts, deterministic RNG statistics, leveled logging,
// table/CSV output.
#include <cmath>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table_printer.h"

namespace tgcrn {
namespace {

TEST(StatusTest, OkAndErrorStates) {
  Status ok = Status::OK();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");

  Status err = Status::InvalidArgument("bad shape");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.ToString(), "InvalidArgument: bad shape");
  EXPECT_EQ(err.message(), "bad shape");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kIOError, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

Result<int> ParsePositive(int value) {
  if (value <= 0) return Status::InvalidArgument("not positive");
  return value * 2;
}

Status UseParsed(int value, int* out) {
  TGCRN_ASSIGN_OR_RETURN(int doubled, ParsePositive(value));
  *out = doubled;
  return Status::OK();
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> good = ParsePositive(21);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.ValueOrDie(), 42);

  Result<int> bad = ParsePositive(-1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseParsed(5, &out).ok());
  EXPECT_EQ(out, 10);
  EXPECT_FALSE(UseParsed(-5, &out).ok());
  EXPECT_EQ(out, 10);  // untouched on failure
}

TEST(CheckDeathTest, FailedCheckAborts) {
  EXPECT_DEATH({ TGCRN_CHECK(1 == 2) << "impossible"; }, "impossible");
  EXPECT_DEATH({ TGCRN_CHECK_EQ(3, 4); }, "lhs=3 rhs=4");
  EXPECT_DEATH({ TGCRN_CHECK_LT(5, 5); }, "CHECK FAILED");
}

TEST(LoggingTest, SetMinLogLevelOverridesEnvLatch) {
  const LogLevel original = GetMinLogLevel();
  SetMinLogLevel(LogLevel::kError);
  EXPECT_EQ(GetMinLogLevel(), LogLevel::kError);
  SetMinLogLevel(LogLevel::kDebug);
  EXPECT_EQ(GetMinLogLevel(), LogLevel::kDebug);
  SetMinLogLevel(original);
}

TEST(LoggingTest, ShouldLogEveryNGatesPerCallSite) {
  int hits = 0;
  for (int i = 0; i < 10; ++i) {
    if (internal::ShouldLogEveryN("logging_test_site.cc", 1, 4)) ++hits;
  }
  EXPECT_EQ(hits, 3);  // calls 1, 5, 9
  // A different call site keeps an independent counter.
  EXPECT_TRUE(internal::ShouldLogEveryN("logging_test_site.cc", 2, 4));
  // n <= 1 means every call emits.
  EXPECT_TRUE(internal::ShouldLogEveryN("logging_test_site.cc", 3, 1));
  EXPECT_TRUE(internal::ShouldLogEveryN("logging_test_site.cc", 3, 1));
}

TEST(LoggingTest, LogEveryNMacroIsDanglingElseSafe) {
  const LogLevel original = GetMinLogLevel();
  SetMinLogLevel(LogLevel::kError);  // keep test output quiet
  int streamed = 0;
  for (int i = 0; i < 6; ++i)
    if (i >= 0)
      TGCRN_LOG_EVERY_N(Info, 3) << "tick " << ++streamed;
    else
      FAIL() << "dangling else bound to the wrong if";
  // The stream expression runs only on emitting iterations (0 and 3).
  EXPECT_EQ(streamed, 2);
  SetMinLogLevel(original);
}

// TGCRN_LOG_LEVEL names a level in any letter case; unset or empty means
// INFO, and anything else stops the process naming the variable (it used
// to mean INFO silently).
TEST(LoggingTest, LogLevelEnvParsesNamesInAnyCase) {
  EXPECT_EQ(internal::LogLevelOrDie(nullptr), LogLevel::kInfo);
  EXPECT_EQ(internal::LogLevelOrDie(""), LogLevel::kInfo);
  EXPECT_EQ(internal::LogLevelOrDie("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(internal::LogLevelOrDie("info"), LogLevel::kInfo);
  EXPECT_EQ(internal::LogLevelOrDie("Warning"), LogLevel::kWarning);
  EXPECT_EQ(internal::LogLevelOrDie("error"), LogLevel::kError);
}

TEST(LoggingDeathTest, UnknownLogLevelEnvAborts) {
  for (const char* bad : {"LOUD", "2", "INFO ", "warn"}) {
    EXPECT_DEATH((void)internal::LogLevelOrDie(bad),
                 "TGCRN_LOG_LEVEL=\".*\" is not one of DEBUG, INFO, "
                 "WARNING, ERROR")
        << bad;
  }
}

TEST(EnvIntOrDieTest, AcceptsWholeIntegersInRange) {
  EXPECT_EQ(EnvIntOrDie<int64_t>("X", nullptr, 7, 1, 10), 7);
  EXPECT_EQ(EnvIntOrDie<int64_t>("X", "", 7, 1, 10), 7);
  EXPECT_EQ(EnvIntOrDie<int64_t>("X", "1", 7, 1, 10), 1);
  EXPECT_EQ(EnvIntOrDie<int64_t>("X", "10", 7, 1, 10), 10);
  EXPECT_EQ(EnvIntOrDie<int64_t>("X", "-3", 7), -3);  // default: full range
}

TEST(EnvIntOrDieDeathTest, RejectsPartialAndOutOfRangeValues) {
  EXPECT_DEATH((void)EnvIntOrDie<int64_t>("KNOB", "12abc", 7, 1, 10),
               "KNOB=\"12abc\" is not an integer");
  EXPECT_DEATH((void)EnvIntOrDie<int64_t>("KNOB", "0", 7, 1, 10),
               "KNOB=\"0\" is outside \\[1, 10\\]");
  EXPECT_DEATH((void)EnvIntOrDie<int64_t>("KNOB", "11", 7, 1, 10),
               "KNOB=\"11\" is outside \\[1, 10\\]");
}

TEST(EnvBoolOrDieTest, UnsetOrEmptyIsFallbackAndZeroOneAreExact) {
  EXPECT_TRUE(EnvBoolOrDie("X", nullptr, true));
  EXPECT_FALSE(EnvBoolOrDie("X", "", false));
  EXPECT_FALSE(EnvBoolOrDie("X", "0", true));
  EXPECT_TRUE(EnvBoolOrDie("X", "1", false));
}

TEST(EnvBoolOrDieDeathTest, RejectsAnythingButZeroOrOne) {
  for (const char* bad : {"false", "true", "off", "on", "yes", "2", "01"}) {
    EXPECT_DEATH((void)EnvBoolOrDie("KNOB", bad, false),
                 "KNOB=\".*\" is not 0 or 1")
        << bad;
  }
}

TEST(RngTest, DeterministicStreams) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
  EXPECT_NE(a.NextUint64(), c.NextUint64());
  a.Seed(123);
  b.Seed(123);
  EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, UniformBoundsAndMean) {
  Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const float v = rng.Uniform(2.0f, 6.0f);
    ASSERT_GE(v, 2.0f);
    ASSERT_LT(v, 6.0f);
    sum += v;
  }
  EXPECT_NEAR(sum / 20000, 4.0, 0.05);
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(8);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, PoissonMoments) {
  Rng rng(9);
  for (double rate : {0.5, 4.0, 30.0, 200.0}) {
    double sum = 0, sq = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      const double v = static_cast<double>(rng.Poisson(rate));
      sum += v;
      sq += v * v;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, rate, 0.05 * rate + 0.1) << "rate " << rate;
    EXPECT_NEAR(var, rate, 0.15 * rate + 0.3) << "rate " << rate;
  }
}

TEST(RngTest, PoissonZeroRate) {
  Rng rng(10);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(11);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  auto sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, v);
}

TEST(TablePrinterTest, AlignmentAndContent) {
  TablePrinter table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22.5"});
  const std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("| name  | value |"), std::string::npos);
  EXPECT_NE(rendered.find("| alpha | 1     |"), std::string::npos);
}

TEST(TablePrinterTest, NumFormatting) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Num(2.0, 0), "2");
  EXPECT_EQ(TablePrinter::Num(std::nan(""), 2), "-");
}

TEST(TablePrinterTest, CsvRoundTripWithEscaping) {
  const auto path =
      std::filesystem::temp_directory_path() / "tgcrn_table_test.csv";
  TablePrinter table({"a", "b"});
  table.AddRow({"plain", "with,comma"});
  table.AddRow({"quote\"inside", "line"});
  ASSERT_TRUE(table.WriteCsv(path.string()).ok());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "plain,\"with,comma\"");
  std::getline(in, line);
  EXPECT_EQ(line, "\"quote\"\"inside\",line");
  std::filesystem::remove(path);
}

TEST(TablePrinterTest, CsvCreatesParentDirectories) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "tgcrn_csv_nested" / "deeper";
  const auto path = dir / "out.csv";
  std::filesystem::remove_all(dir.parent_path());
  TablePrinter table({"x"});
  table.AddRow({"1"});
  EXPECT_TRUE(table.WriteCsv(path.string()).ok());
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir.parent_path());
}

TEST(TablePrinterDeathTest, RowArityMismatchAborts) {
  TablePrinter table({"a", "b"});
  EXPECT_DEATH(table.AddRow({"only one"}), "CHECK FAILED");
}

}  // namespace
}  // namespace tgcrn
