// Copyright 2026 TGCRN Reproduction Authors
#include "data/csv_loader.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <vector>

namespace tgcrn {
namespace data {

namespace {

// Splits a CSV line on commas (no quoting: the format is purely numeric).
std::vector<std::string> SplitLine(const std::string& line) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    const size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      fields.push_back(line.substr(start));
      break;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
  return fields;
}

bool ParseDouble(const std::string& field, double* out) {
  const char* begin = field.data();
  const char* end = begin + field.size();
  // Skip leading whitespace (std::from_chars does not).
  while (begin < end && (*begin == ' ' || *begin == '\t')) ++begin;
  const auto result = std::from_chars(begin, end, *out);
  return result.ec == std::errc() && result.ptr == end;
}

constexpr double kFloatMax = std::numeric_limits<float>::max();

// "path:line: column c" (1-based column), the prefix of a cell's error.
std::string CellWhere(const std::string& path, int64_t line, size_t field) {
  return path + ":" + std::to_string(line) + ": column " +
         std::to_string(field + 1);
}

}  // namespace

Result<SpatioTemporalData> LoadCsv(const std::string& path,
                                   const CsvLoadOptions& options) {
  if (options.num_nodes <= 0 || options.num_features <= 0 ||
      options.steps_per_day <= 0) {
    return Status::InvalidArgument(
        "CsvLoadOptions must set num_nodes, num_features and "
        "steps_per_day");
  }
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);

  const int64_t value_columns = options.num_nodes * options.num_features;
  const size_t expected_fields = static_cast<size_t>(3 + value_columns);

  std::vector<float> values;
  std::vector<int64_t> slots, days;
  std::string line;
  int64_t line_number = 0;
  bool first_data_line = true;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const auto fields = SplitLine(line);
    if (first_data_line) {
      first_data_line = false;
      double probe = 0.0;
      if (!ParseDouble(fields[0], &probe)) continue;  // header line
    }
    if (fields.size() != expected_fields) {
      return Status::InvalidArgument(
          path + ":" + std::to_string(line_number) + ": expected " +
          std::to_string(expected_fields) + " fields, got " +
          std::to_string(fields.size()));
    }
    // The timestamp index is not stored, but a row whose index is not a
    // number is malformed, not data.
    double timestamp = 0;
    if (!ParseDouble(fields[0], &timestamp) || !std::isfinite(timestamp)) {
      return Status::InvalidArgument(CellWhere(path, line_number, 0) +
                                     " is not a finite timestamp: '" +
                                     fields[0] + "'");
    }
    double slot = 0, day = 0;
    // std::from_chars accepts "nan" and "inf"; no cell may hold them.
    if (!ParseDouble(fields[1], &slot) || !ParseDouble(fields[2], &day) ||
        !std::isfinite(slot) || !std::isfinite(day)) {
      return Status::InvalidArgument(
          path + ":" + std::to_string(line_number) +
          ": unparsable calendar fields");
    }
    if (slot != std::floor(slot) || day != std::floor(day)) {
      return Status::InvalidArgument(
          path + ":" + std::to_string(line_number) +
          ": calendar fields must be integers: '" + fields[1] + "', '" +
          fields[2] + "'");
    }
    if (slot < 0 || slot >= options.steps_per_day) {
      return Status::OutOfRange(
          path + ":" + std::to_string(line_number) + ": slot_of_day " +
          std::to_string(static_cast<int64_t>(slot)) + " outside [0, " +
          std::to_string(options.steps_per_day) + ")");
    }
    if (day < 0 || day >= 7) {
      return Status::OutOfRange(path + ":" + std::to_string(line_number) +
                                ": day_of_week outside [0, 7)");
    }
    slots.push_back(static_cast<int64_t>(slot));
    days.push_back(static_cast<int64_t>(day));
    for (size_t f = 3; f < fields.size(); ++f) {
      double v = 0.0;
      if (!ParseDouble(fields[f], &v)) {
        return Status::InvalidArgument(CellWhere(path, line_number, f) +
                                       " is not numeric: '" + fields[f] +
                                       "'");
      }
      // Checked before the float conversion: 1e39 parses as a double but
      // is out of float range.
      if (!std::isfinite(v) || std::fabs(v) > kFloatMax) {
        return Status::InvalidArgument(CellWhere(path, line_number, f) +
                                       " is not a finite float: '" +
                                       fields[f] + "'");
      }
      values.push_back(static_cast<float>(v));
    }
  }
  if (slots.empty()) {
    return Status::InvalidArgument(path + ": no data rows");
  }

  SpatioTemporalData data;
  const int64_t total = static_cast<int64_t>(slots.size());
  data.values = Tensor::FromVector(
      {total, options.num_nodes, options.num_features}, std::move(values));
  data.slot_of_day = std::move(slots);
  data.day_of_week = std::move(days);
  data.steps_per_day = options.steps_per_day;
  return data;
}

Status SaveCsv(const SpatioTemporalData& data, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << "t,slot_of_day,day_of_week";
  for (int64_t i = 0; i < data.num_nodes(); ++i) {
    for (int64_t c = 0; c < data.num_features(); ++c) {
      out << ",node" << i << "_f" << c;
    }
  }
  out << "\n";
  const float* v = data.values.data();
  const int64_t per_step = data.num_nodes() * data.num_features();
  for (int64_t t = 0; t < data.num_steps(); ++t) {
    out << t << "," << data.slot_of_day[t] << "," << data.day_of_week[t];
    for (int64_t k = 0; k < per_step; ++k) {
      out << "," << v[t * per_step + k];
    }
    out << "\n";
  }
  if (!out.good()) return Status::IOError("write failed for " + path);
  return Status::OK();
}

}  // namespace data
}  // namespace tgcrn
