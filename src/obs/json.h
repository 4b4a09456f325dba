// Copyright 2026 TGCRN Reproduction Authors
// Minimal JSON value type for the observability layer: enough to emit
// metric expositions, profiles and run reports, and to parse
// them back for round-trip tests and report tooling. Deliberately
// dependency-free (std only) so every layer of the system — including
// src/common — can include obs headers without cycles.
//
// Numbers are stored as double; integers up to 2^53 round-trip exactly,
// which covers every counter and timestamp the system emits.
#ifndef TGCRN_OBS_JSON_H_
#define TGCRN_OBS_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace tgcrn {
namespace obs {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  static Json Null() { return Json(); }
  static Json Bool(bool b);
  static Json Number(double d);
  static Json Int(int64_t i) { return Number(static_cast<double>(i)); }
  static Json Str(std::string s);
  static Json Array();
  static Json Object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // Accessors abort (via assert-like checks) on type mismatch in debug
  // terms; in practice callers test the type first or use Get* helpers.
  bool AsBool() const;
  double AsDouble() const;
  int64_t AsInt() const;
  const std::string& AsString() const;
  const std::vector<Json>& AsArray() const;
  const std::map<std::string, Json>& AsObject() const;

  // Array building.
  void Append(Json value);
  size_t size() const;
  const Json& at(size_t index) const;

  // Object building / lookup.
  void Set(const std::string& key, Json value);
  bool Has(const std::string& key) const;
  // Null reference if absent (a static sentinel).
  const Json& operator[](const std::string& key) const;
  // Typed lookups with defaults, for tolerant report parsing.
  double GetDouble(const std::string& key, double fallback = 0.0) const;
  int64_t GetInt(const std::string& key, int64_t fallback = 0) const;
  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const;

  // Serializes compactly (no insignificant whitespace). Object keys are
  // emitted in sorted (std::map) order, so output is deterministic.
  std::string Dump() const;

  // Parses a complete JSON document. Returns false (and fills *error with
  // an offset-tagged message) on malformed input or trailing garbage.
  static bool Parse(const std::string& text, Json* out,
                    std::string* error = nullptr);

  // Escapes a string body per JSON rules (no surrounding quotes).
  static std::string Escape(const std::string& s);

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::map<std::string, Json> object_;
};

}  // namespace obs
}  // namespace tgcrn

#endif  // TGCRN_OBS_JSON_H_
