// Copyright 2026 TGCRN Reproduction Authors
#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>
#include <cstdio>
#include <cstdlib>

namespace tgcrn {
namespace obs {

namespace {

const Json& NullSentinel() {
  static const Json* null = new Json();
  return *null;
}

// Formats a double the way the exposition formats expect: integers without
// a trailing ".0", everything else with enough digits to round-trip.
std::string FormatNumber(double d) {
  char buf[32];
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 9.0e15) {
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof(buf), static_cast<long long>(d));
    return std::string(buf, r.ptr);
  }
  if (!std::isfinite(d)) return "null";  // JSON has no Inf/NaN
  // The shortest text that parses back to exactly `d`.
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), d);
  return std::string(buf, r.ptr);
}

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool ParseDocument(Json* out) {
    SkipWhitespace();
    if (!ParseValue(out)) return false;
    SkipWhitespace();
    if (pos_ != text_.size()) return Fail("trailing characters");
    return true;
  }

 private:
  bool Fail(const std::string& message) {
    if (error_ != nullptr) {
      *error_ = message + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(Json* out) {
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        return ParseString(out);
      case 't':
      case 'f':
        return ParseBool(out);
      case 'n':
        return ParseNull(out);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseLiteral(const char* literal) {
    const size_t len = std::string(literal).size();
    if (text_.compare(pos_, len, literal) != 0) {
      return Fail(std::string("expected '") + literal + "'");
    }
    pos_ += len;
    return true;
  }

  bool ParseNull(Json* out) {
    if (!ParseLiteral("null")) return false;
    *out = Json::Null();
    return true;
  }

  bool ParseBool(Json* out) {
    if (text_[pos_] == 't') {
      if (!ParseLiteral("true")) return false;
      *out = Json::Bool(true);
    } else {
      if (!ParseLiteral("false")) return false;
      *out = Json::Bool(false);
    }
    return true;
  }

  bool ParseNumber(Json* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("invalid value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Fail("invalid number");
    *out = Json::Number(d);
    return true;
  }

  bool ParseString(Json* out) {
    std::string s;
    if (!ParseStringBody(&s)) return false;
    *out = Json::Str(std::move(s));
    return true;
  }

  bool ParseStringBody(std::string* s) {
    if (!Consume('"')) return Fail("expected '\"'");
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Fail("truncated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': s->push_back('"'); break;
          case '\\': s->push_back('\\'); break;
          case '/': s->push_back('/'); break;
          case 'b': s->push_back('\b'); break;
          case 'f': s->push_back('\f'); break;
          case 'n': s->push_back('\n'); break;
          case 'r': s->push_back('\r'); break;
          case 't': s->push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= h - '0';
              else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
              else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
              else return Fail("invalid \\u escape");
            }
            // UTF-8 encode the code point (BMP only; surrogate pairs are
            // not emitted by our writer and decode as replacement bytes).
            if (code < 0x80) {
              s->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              s->push_back(static_cast<char>(0xC0 | (code >> 6)));
              s->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              s->push_back(static_cast<char>(0xE0 | (code >> 12)));
              s->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              s->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Fail("invalid escape");
        }
      } else {
        s->push_back(c);
      }
    }
    return Fail("unterminated string");
  }

  bool ParseArray(Json* out) {
    Consume('[');
    Json array = Json::Array();
    SkipWhitespace();
    if (Consume(']')) {
      *out = std::move(array);
      return true;
    }
    while (true) {
      Json element;
      SkipWhitespace();
      if (!ParseValue(&element)) return false;
      array.Append(std::move(element));
      SkipWhitespace();
      if (Consume(']')) break;
      if (!Consume(',')) return Fail("expected ',' or ']'");
    }
    *out = std::move(array);
    return true;
  }

  bool ParseObject(Json* out) {
    Consume('{');
    Json object = Json::Object();
    SkipWhitespace();
    if (Consume('}')) {
      *out = std::move(object);
      return true;
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      if (!ParseStringBody(&key)) return false;
      SkipWhitespace();
      if (!Consume(':')) return Fail("expected ':'");
      Json value;
      SkipWhitespace();
      if (!ParseValue(&value)) return false;
      object.Set(key, std::move(value));
      SkipWhitespace();
      if (Consume('}')) break;
      if (!Consume(',')) return Fail("expected ',' or '}'");
    }
    *out = std::move(object);
    return true;
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
};

}  // namespace

Json Json::Bool(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}

Json Json::Number(double d) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = d;
  return j;
}

Json Json::Str(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = std::move(s);
  return j;
}

Json Json::Array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::Object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

bool Json::AsBool() const { return bool_; }
double Json::AsDouble() const { return number_; }
int64_t Json::AsInt() const {
  // Saturates outside int64's range, where the cast would be undefined
  // (a request may carry any number, e.g. "slot":1e308).
  constexpr double kTwoTo63 = 9223372036854775808.0;
  if (!(number_ < kTwoTo63)) return std::numeric_limits<int64_t>::max();
  if (number_ < -kTwoTo63) return std::numeric_limits<int64_t>::min();
  return static_cast<int64_t>(number_);
}
const std::string& Json::AsString() const { return string_; }
const std::vector<Json>& Json::AsArray() const { return array_; }
const std::map<std::string, Json>& Json::AsObject() const { return object_; }

void Json::Append(Json value) {
  type_ = Type::kArray;
  array_.push_back(std::move(value));
}

size_t Json::size() const { return array_.size(); }

const Json& Json::at(size_t index) const { return array_.at(index); }

void Json::Set(const std::string& key, Json value) {
  type_ = Type::kObject;
  object_[key] = std::move(value);
}

bool Json::Has(const std::string& key) const {
  return object_.find(key) != object_.end();
}

const Json& Json::operator[](const std::string& key) const {
  const auto it = object_.find(key);
  return it == object_.end() ? NullSentinel() : it->second;
}

double Json::GetDouble(const std::string& key, double fallback) const {
  const Json& v = (*this)[key];
  if (v.is_number()) return v.AsDouble();
  // Round-trip the serializer's non-finite encoding: Dump() writes NaN/Inf
  // as null (JSON has neither), so a key that is *present but null* parses
  // back as NaN rather than silently coercing to the fallback. An absent
  // key still returns the fallback.
  if (v.is_null() && Has(key)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return fallback;
}

int64_t Json::GetInt(const std::string& key, int64_t fallback) const {
  const Json& v = (*this)[key];
  return v.is_number() ? v.AsInt() : fallback;
}

std::string Json::GetString(const std::string& key,
                            const std::string& fallback) const {
  const Json& v = (*this)[key];
  return v.is_string() ? v.AsString() : fallback;
}

std::string Json::Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string Json::Dump() const {
  switch (type_) {
    case Type::kNull:
      return "null";
    case Type::kBool:
      return bool_ ? "true" : "false";
    case Type::kNumber:
      return FormatNumber(number_);
    case Type::kString:
      return '"' + Escape(string_) + '"';
    case Type::kArray: {
      std::string out = "[";
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ",";
        out += array_[i].Dump();
      }
      out += "]";
      return out;
    }
    case Type::kObject: {
      std::string out = "{";
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out += ",";
        first = false;
        out += '"' + Escape(key) + "\":" + value.Dump();
      }
      out += "}";
      return out;
    }
  }
  return "null";
}

bool Json::Parse(const std::string& text, Json* out, std::string* error) {
  Parser parser(text, error);
  return parser.ParseDocument(out);
}

}  // namespace obs
}  // namespace tgcrn
