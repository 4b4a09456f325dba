// Copyright 2026 TGCRN Reproduction Authors
// CSV ingestion tests: round trips, header handling, and every failure
// path (the Status-based error surface of the public API).
#include "data/csv_loader.h"

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/electricity_sim.h"

namespace tgcrn {
namespace {

std::filesystem::path TempCsv(const std::string& name,
                              const std::string& contents) {
  const auto path = std::filesystem::temp_directory_path() / name;
  std::ofstream out(path);
  out << contents;
  return path;
}

data::CsvLoadOptions SmallOptions() {
  data::CsvLoadOptions options;
  options.num_nodes = 2;
  options.num_features = 1;
  options.steps_per_day = 4;
  return options;
}

TEST(CsvLoaderTest, ParsesPlainFile) {
  const auto path = TempCsv("tgcrn_csv1.csv",
                            "0,0,0,1.5,2.5\n"
                            "1,1,0,3.5,4.5\n"
                            "2,2,0,5.5,6.5\n");
  auto result = data::LoadCsv(path.string(), SmallOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& data = result.ValueOrDie();
  EXPECT_EQ(data.num_steps(), 3);
  EXPECT_EQ(data.num_nodes(), 2);
  EXPECT_EQ(data.values.at({1, 0, 0}), 3.5f);
  EXPECT_EQ(data.values.at({2, 1, 0}), 6.5f);
  EXPECT_EQ(data.slot_of_day[2], 2);
  std::filesystem::remove(path);
}

TEST(CsvLoaderTest, SkipsHeaderLine) {
  const auto path = TempCsv("tgcrn_csv2.csv",
                            "t,slot_of_day,day_of_week,node0_f0,node1_f0\n"
                            "0,0,1,1,2\n"
                            "1,1,1,3,4\n");
  auto result = data::LoadCsv(path.string(), SmallOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ValueOrDie().num_steps(), 2);
  EXPECT_EQ(result.ValueOrDie().day_of_week[0], 1);
  std::filesystem::remove(path);
}

TEST(CsvLoaderTest, RejectsMissingFile) {
  auto result =
      data::LoadCsv("/nonexistent/definitely/not/here.csv", SmallOptions());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(CsvLoaderTest, RejectsBadOptions) {
  auto result = data::LoadCsv("whatever.csv", {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvLoaderTest, RejectsWrongColumnCount) {
  const auto path = TempCsv("tgcrn_csv3.csv", "0,0,0,1.5\n");
  auto result = data::LoadCsv(path.string(), SmallOptions());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(":1:"), std::string::npos)
      << "error should name the line";
  std::filesystem::remove(path);
}

TEST(CsvLoaderTest, RejectsOutOfRangeCalendar) {
  const auto slot_path = TempCsv("tgcrn_csv4.csv", "0,9,0,1,2\n");
  auto slot_result = data::LoadCsv(slot_path.string(), SmallOptions());
  ASSERT_FALSE(slot_result.ok());
  EXPECT_EQ(slot_result.status().code(), StatusCode::kOutOfRange);
  std::filesystem::remove(slot_path);

  const auto day_path = TempCsv("tgcrn_csv5.csv", "0,0,7,1,2\n");
  auto day_result = data::LoadCsv(day_path.string(), SmallOptions());
  ASSERT_FALSE(day_result.ok());
  EXPECT_EQ(day_result.status().code(), StatusCode::kOutOfRange);
  std::filesystem::remove(day_path);
}

TEST(CsvLoaderTest, RejectsNonNumericValue) {
  const auto path = TempCsv("tgcrn_csv6.csv", "0,0,0,1.5,oops\n");
  auto result = data::LoadCsv(path.string(), SmallOptions());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("oops"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(CsvLoaderTest, RejectsNonFiniteCells) {
  // std::from_chars parses these; one of them would train to MAE nan.
  // The error names the line and the 1-based column.
  struct Case {
    const char* contents;
    const char* where;
  };
  for (const Case& tc : {Case{"0,0,0,1.5,2.5\n1,1,0,nan,4.5\n", ":2: column 4"},
                         Case{"0,0,0,1.5,inf\n", ":1: column 5"},
                         Case{"0,0,0,-inf,2.5\n", ":1: column 4"},
                         Case{"0,0,0,1.5,1e39\n", ":1: column 5"},
                         Case{"0,0,0,1.5,-NAN\n", ":1: column 5"}}) {
    const auto path = TempCsv("tgcrn_csv8.csv", tc.contents);
    auto result = data::LoadCsv(path.string(), SmallOptions());
    ASSERT_FALSE(result.ok()) << tc.contents;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find(tc.where), std::string::npos)
        << result.status().ToString();
    EXPECT_NE(result.status().message().find("not a finite float"),
              std::string::npos)
        << result.status().ToString();
    std::filesystem::remove(path);
  }
  // Non-finite calendar fields are refused too (a NaN slot would pass
  // the range check and then be cast to an integer).
  const auto slot_path = TempCsv("tgcrn_csv9.csv", "0,nan,0,1,2\n");
  auto slot_result = data::LoadCsv(slot_path.string(), SmallOptions());
  ASSERT_FALSE(slot_result.ok());
  EXPECT_NE(slot_result.status().message().find(":1:"), std::string::npos);
  std::filesystem::remove(slot_path);
}

TEST(CsvLoaderTest, RejectsEmptyFile) {
  const auto path = TempCsv("tgcrn_csv7.csv", "header,only,line,a,b\n");
  auto result = data::LoadCsv(path.string(), SmallOptions());
  ASSERT_FALSE(result.ok());
  std::filesystem::remove(path);
}

TEST(CsvLoaderTest, SimulatorRoundTrip) {
  // Export a simulated dataset and read it back unchanged.
  datagen::ElectricitySimConfig config;
  config.num_clients = 3;
  config.num_days = 8;
  config.seed = 5;
  const auto sim = datagen::SimulateElectricity(config);
  const auto path =
      std::filesystem::temp_directory_path() / "tgcrn_roundtrip.csv";
  ASSERT_TRUE(data::SaveCsv(sim.data, path.string()).ok());

  data::CsvLoadOptions options;
  options.num_nodes = 3;
  options.num_features = 1;
  options.steps_per_day = 24;
  auto result = data::LoadCsv(path.string(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& loaded = result.ValueOrDie();
  EXPECT_EQ(loaded.num_steps(), sim.data.num_steps());
  EXPECT_TRUE(loaded.values.AllClose(sim.data.values, 1e-3f));
  EXPECT_EQ(loaded.slot_of_day, sim.data.slot_of_day);
  EXPECT_EQ(loaded.day_of_week, sim.data.day_of_week);
  std::filesystem::remove(path);
}

// --- Seeded fuzz -------------------------------------------------------------

// The loader's acceptance rules restated independently, the oracle the
// fuzz test holds LoadCsv to. A number is optional leading spaces or tabs,
// an optional '-', then a decimal mantissa with an optional exponent, or
// nan / inf / infinity in any case (std::from_chars' grammar, minus the
// exponent overflow cases the fuzz alphabet never produces).
bool ReferenceNumber(const std::string& field, double* out) {
  size_t i = 0;
  while (i < field.size() && (field[i] == ' ' || field[i] == '\t')) ++i;
  const std::string body = field.substr(i);
  static const std::regex kNumber(
      "-?((([0-9]+\\.?[0-9]*)|(\\.[0-9]+))([eE]-?[0-9]+)?|"
      "[nN][aA][nN]|[iI][nN][fF]|[iI][nN][fF][iI][nN][iI][tT][yY])");
  if (!std::regex_match(body, kNumber)) return false;
  *out = std::strtod(body.c_str(), nullptr);
  return true;
}

struct ReferenceLoad {
  int64_t bad_line = -1;  // 1-based line of the first defect; 0: no rows
  std::vector<float> values;
  std::vector<int64_t> slots, days;
};

ReferenceLoad ReferenceParse(const std::string& text,
                             const data::CsvLoadOptions& options) {
  ReferenceLoad ref;
  const size_t fields_per_row =
      static_cast<size_t>(3 + options.num_nodes * options.num_features);
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    const size_t nl = text.find('\n', start);
    const size_t end = nl == std::string::npos ? text.size() : nl;
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  bool first = true;
  for (size_t li = 0; li < lines.size(); ++li) {
    if (lines[li].empty()) continue;
    std::vector<std::string> fields;
    std::stringstream row(lines[li]);
    std::string field;
    while (std::getline(row, field, ',')) fields.push_back(field);
    if (lines[li].back() == ',') fields.emplace_back();
    double v = 0.0;
    if (first) {
      first = false;
      if (!ReferenceNumber(fields[0], &v)) continue;  // header
    }
    const int64_t line = static_cast<int64_t>(li) + 1;
    double ts = 0.0, slot = 0.0, day = 0.0;
    if (fields.size() != fields_per_row ||
        !ReferenceNumber(fields[0], &ts) || !std::isfinite(ts) ||
        !ReferenceNumber(fields[1], &slot) || !std::isfinite(slot) ||
        !ReferenceNumber(fields[2], &day) || !std::isfinite(day) ||
        slot != std::floor(slot) || day != std::floor(day) || slot < 0 ||
        slot >= options.steps_per_day || day < 0 || day >= 7) {
      ref.bad_line = line;
      return ref;
    }
    for (size_t f = 3; f < fields.size(); ++f) {
      if (!ReferenceNumber(fields[f], &v) || !std::isfinite(v) ||
          std::fabs(v) > std::numeric_limits<float>::max()) {
        ref.bad_line = line;
        return ref;
      }
      ref.values.push_back(static_cast<float>(v));
    }
    ref.slots.push_back(static_cast<int64_t>(slot));
    ref.days.push_back(static_cast<int64_t>(day));
  }
  if (ref.slots.empty()) ref.bad_line = 0;
  return ref;
}

// One seeded mutation of a valid CSV: 1-3 byte edits (replace, delete,
// insert from a small alphabet), then possibly a whole cell replaced by a
// token, a line dropped or duplicated, and a truncation at a random byte.
// Exponents enter only through the tokens, so no edit makes a literal
// overflow or underflow a double.
std::string Mutate(const std::string& base, Rng* rng) {
  static const std::string kAlphabet = "0123456789.-,\n \tx\r";
  static const std::vector<std::string> kTokens = {
      "",     "nan", "-inf", "1e39", "abc", "1.5", "-1", "7",
      "3",    "0",   "1e-3", " 2",   "2 ",  "0x1", "+1", "-0",
      "1e",   "..",  "Infinity"};
  std::string text = base;
  auto pick = [rng](size_t n) {
    return static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  const int64_t edits = rng->UniformInt(0, 3);
  for (int64_t e = 0; e < edits && !text.empty(); ++e) {
    const size_t at = pick(text.size());
    const char c = kAlphabet[pick(kAlphabet.size())];
    switch (rng->UniformInt(0, 2)) {
      case 0: text[at] = c; break;
      case 1: text.erase(at, 1); break;
      default: text.insert(text.begin() + static_cast<int64_t>(at), c);
    }
  }
  if (rng->UniformInt(0, 1) == 1 && !text.empty()) {
    // Replace the cell around a random byte (between two delimiters).
    const size_t at = pick(text.size());
    size_t lo = text.find_last_of(",\n", at);
    lo = lo == std::string::npos ? 0 : lo + 1;
    if (lo > at) lo = at;
    size_t hi = text.find_first_of(",\n", at);
    if (hi == std::string::npos) hi = text.size();
    text.replace(lo, hi - lo, kTokens[pick(kTokens.size())]);
  }
  if (rng->UniformInt(0, 3) == 0) {
    // Drop or duplicate one line.
    std::vector<std::string> lines;
    std::stringstream in(text);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    if (!lines.empty()) {
      const size_t at = pick(lines.size());
      if (rng->UniformInt(0, 1) == 0) {
        lines.erase(lines.begin() + static_cast<int64_t>(at));
      } else {
        lines.insert(lines.begin() + static_cast<int64_t>(at), lines[at]);
      }
    }
    text.clear();
    for (const std::string& line : lines) text += line + "\n";
  }
  if (rng->UniformInt(0, 2) == 0) text.resize(pick(text.size() + 1));
  return text;
}

// Seeded fuzz over mutated and truncated copies of valid CSVs (with and
// without a header): no input crashes the loader, every input the oracle
// rejects comes back as a Status error naming the first bad line, and
// every input it accepts loads to exactly the oracle's values and
// calendar.
TEST(CsvLoaderFuzzTest, MutatedFilesLoadOrFailWithStatus) {
  const data::CsvLoadOptions options = SmallOptions();
  const std::vector<std::string> bases = {
      "0,0,0,1.5,2.5\n1,1,0,3.5,4.5\n2,2,1,5.5,-6.25\n3,3,6,0,1e-3\n",
      "t,slot_of_day,day_of_week,node0_f0,node1_f0\n"
      "0,0,1,1,2\n1,1,1,3,4\n2,2,2,-0.5,.75\n",
  };
  const auto path = std::filesystem::temp_directory_path() /
                    "tgcrn_csv_fuzz.csv";
  Rng rng(2026);
  int64_t accepted = 0, rejected = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const std::string text =
        Mutate(bases[static_cast<size_t>(iter) % bases.size()], &rng);
    {
      std::ofstream out(path, std::ios::binary);
      out << text;
    }
    const ReferenceLoad ref = ReferenceParse(text, options);
    auto result = data::LoadCsv(path.string(), options);
    ASSERT_EQ(result.ok(), ref.bad_line < 0)
        << "input:\n" << text << "\nloader: "
        << (result.ok() ? "ok" : result.status().ToString());
    if (!result.ok()) {
      ++rejected;
      std::string where = "no data rows";
      if (ref.bad_line > 0) {
        where = ":";
        where += std::to_string(ref.bad_line);
        where += ":";
      }
      EXPECT_NE(result.status().message().find(where), std::string::npos)
          << "input:\n" << text << "\nloader: " << result.status().ToString();
      continue;
    }
    ++accepted;
    const auto& got = result.ValueOrDie();
    ASSERT_EQ(got.values.numel(), static_cast<int64_t>(ref.values.size()));
    for (int64_t i = 0; i < got.values.numel(); ++i) {
      ASSERT_EQ(got.values.flat(i), ref.values[static_cast<size_t>(i)])
          << "input:\n" << text;
    }
    EXPECT_EQ(got.slot_of_day, ref.slots) << "input:\n" << text;
    EXPECT_EQ(got.day_of_week, ref.days) << "input:\n" << text;
  }
  std::filesystem::remove(path);
  // Both outcomes are exercised, not just one.
  EXPECT_GT(accepted, 300);
  EXPECT_GT(rejected, 300);
}

TEST(CsvLoaderTest, RejectsNonIntegerCalendarAndBadTimestamp) {
  for (const char* contents :
       {"0,0,0,1,2\n1,1.5,0,1,2\n", "0,0,0,1,2\n1,1,2.25,1,2\n",
        "0,0,0,1,2\nabc,1,0,1,2\n", "0,0,0,1,2\nnan,1,0,1,2\n"}) {
    const auto path = TempCsv("tgcrn_csv10.csv", contents);
    auto result = data::LoadCsv(path.string(), SmallOptions());
    ASSERT_FALSE(result.ok()) << contents;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find(":2:"), std::string::npos)
        << result.status().ToString();
    std::filesystem::remove(path);
  }
}

}  // namespace
}  // namespace tgcrn
