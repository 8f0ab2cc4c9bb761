// Minimal JSON value with parsing and serialization.
//
// Supports the subset the scoring API needs: objects, arrays, strings,
// doubles, booleans, null; UTF-8 passthrough with standard escape handling.
// Written in-repo to keep the build dependency-free.
#ifndef SRC_SERVER_JSON_H_
#define SRC_SERVER_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/common/status.h"

namespace prefillonly {

class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}          // NOLINT
  Json(bool b) : value_(b) {}                        // NOLINT
  Json(double d) : value_(d) {}                      // NOLINT
  Json(int i) : value_(static_cast<double>(i)) {}    // NOLINT
  Json(int64_t i) : value_(static_cast<double>(i)) {}  // NOLINT
  Json(const char* s) : value_(std::string(s)) {}    // NOLINT
  Json(std::string s) : value_(std::move(s)) {}      // NOLINT
  Json(Array a) : value_(std::move(a)) {}            // NOLINT
  Json(Object o) : value_(std::move(o)) {}           // NOLINT

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  bool AsBool() const { return std::get<bool>(value_); }
  double AsDouble() const { return std::get<double>(value_); }
  int64_t AsInt() const { return static_cast<int64_t>(std::get<double>(value_)); }
  const std::string& AsString() const { return std::get<std::string>(value_); }
  const Array& AsArray() const { return std::get<Array>(value_); }
  const Object& AsObject() const { return std::get<Object>(value_); }
  Array& MutableArray() { return std::get<Array>(value_); }
  Object& MutableObject() { return std::get<Object>(value_); }

  // Object field lookup; nullptr when absent or not an object.
  const Json* Find(const std::string& key) const;

  // Human-readable type name ("number", "string", ...) for validation
  // error messages.
  std::string_view TypeName() const;

  std::string Serialize() const;
  // Deepest array/object nesting Parse accepts. The parser recurses once
  // per level, so an unbounded depth lets a body of '[' bytes overflow the
  // stack; deeper input is kInvalidArgument like any other malformed JSON.
  static constexpr int kMaxDepth = 256;
  static Result<Json> Parse(std::string_view text);

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value_;
};

}  // namespace prefillonly

#endif  // SRC_SERVER_JSON_H_
