// Copyright 2026 TGCRN Reproduction Authors
// CSV ingestion tests: round trips, header handling, and every failure
// path (the Status-based error surface of the public API).
#include "data/csv_loader.h"

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace tgcrn
