// Copyright 2026 TGCRN Reproduction Authors
// The forecast response writer of the NDJSON server: one response line
// appended straight into a connection's out buffer, with no JSON DOM
// (docs/SERVING.md "Number format"). Every other response goes through
// obs::Json.
#ifndef TGCRN_SERVE_WIRE_H_
#define TGCRN_SERVE_WIRE_H_

#include <cstdint>
#include <string>

namespace tgcrn {
namespace serve {

// Appends `value` as the shortest text that reads back to the same float
// both through strtof and through strtod then a cast to float, or
// "null" when it is not finite. The shortest round-trip text of a float
// (std::to_chars) reads back through strtof by construction; when the
// strtod route rounds it twice to a neighbouring float, 9 significant
// digits are written instead, which every route reads back exactly.
void AppendFloat32(float value, std::string* out);

// One forecast response, keys in obs::Json's sorted order:
//   {"entity":E,"forecast":[[[..D..]..N..]..Q..],"id":I,"ok":true,
//    "op":"forecast","steps":S}
// with "id" only when `with_id`. `grid` is the [Q, N, D] forecast.
struct ForecastLine {
  std::string entity;  // already escaped (obs::Json::Escape)
  const float* grid = nullptr;
  int64_t horizon = 0;
  int64_t nodes = 0;
  int64_t dims = 0;
  int64_t steps = 0;
  bool with_id = false;
  int64_t id = 0;
};

// An upper bound on the bytes AppendForecastLine writes for `line`
// (without the newline).
size_t ForecastLineBound(const ForecastLine& line);

// Appends `line` (no newline) to `out`.
void AppendForecastLine(const ForecastLine& line, std::string* out);

}  // namespace serve
}  // namespace tgcrn

#endif  // TGCRN_SERVE_WIRE_H_
