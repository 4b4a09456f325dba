// Copyright 2026 TGCRN Reproduction Authors
#include "serve/wire.h"

#include <charconv>
#include <cmath>

namespace tgcrn {
namespace serve {
namespace {

// Longest value text: "-1.17549435e-38" (9 digits, sign, point, exponent).
constexpr size_t kMaxFloatChars = 16;
// Longest int64 text.
constexpr size_t kMaxIntChars = 20;

void AppendInt(int64_t value, std::string* out) {
  char buf[kMaxIntChars + 1];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, r.ptr);
}

}  // namespace

void AppendFloat32(float value, std::string* out) {
  if (!std::isfinite(value)) {
    out->append("null");
    return;
  }
  char buf[kMaxFloatChars];
  std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
  // The text read as a double (correctly rounded, as strtod reads it),
  // then cast to float.
  double as_double = 0.0;
  std::from_chars(buf, r.ptr, as_double);
  if (static_cast<float>(as_double) != value) {
    r = std::to_chars(buf, buf + sizeof(buf), value,
                      std::chars_format::general, 9);
  }
  out->append(buf, r.ptr);
}

size_t ForecastLineBound(const ForecastLine& line) {
  // Each value carries at most its text, a comma and the two brackets of
  // its innermost array; the keys, literals and two integers stay under
  // 128 bytes.
  const size_t values =
      static_cast<size_t>(line.horizon * line.nodes * line.dims);
  return 128 + line.entity.size() + 2 * kMaxIntChars +
         values * (kMaxFloatChars + 3) + 2 * static_cast<size_t>(line.horizon);
}

void AppendForecastLine(const ForecastLine& line, std::string* out) {
  out->append("{\"entity\":\"");
  out->append(line.entity);
  out->append("\",\"forecast\":[");
  const float* v = line.grid;
  for (int64_t q = 0; q < line.horizon; ++q) {
    out->append(q > 0 ? ",[" : "[");
    for (int64_t node = 0; node < line.nodes; ++node) {
      out->append(node > 0 ? ",[" : "[");
      for (int64_t f = 0; f < line.dims; ++f) {
        if (f > 0) out->push_back(',');
        AppendFloat32(*v++, out);
      }
      out->push_back(']');
    }
    out->push_back(']');
  }
  out->push_back(']');
  if (line.with_id) {
    out->append(",\"id\":");
    AppendInt(line.id, out);
  }
  out->append(",\"ok\":true,\"op\":\"forecast\",\"steps\":");
  AppendInt(line.steps, out);
  out->push_back('}');
}

}  // namespace serve
}  // namespace tgcrn
