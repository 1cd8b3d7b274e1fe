// The library's one JSON module: a reader and a writer, no dependencies.
//
// JsonValue parses a document into an immutable tree: objects, arrays,
// strings (with escapes), numbers, booleans, null.  It keeps neither key
// order nor number formatting, and it bounds nesting so hostile input is a
// JsonError rather than a stack overflow.  JsonWriter builds one compact
// document into a string: it places the commas, escapes strings per
// RFC 8259, prints doubles as their shortest round-trip form (non-finite
// ones as null) and integers exactly.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace midrr {

/// Thrown on malformed input; carries a byte offset for error messages.
struct JsonError : std::runtime_error {
  JsonError(const std::string& what, std::size_t at)
      : std::runtime_error(what + " (at byte " + std::to_string(at) + ")") {}
};

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses one JSON document; trailing non-whitespace is an error.
  static JsonValue parse(std::string_view text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  /// Typed accessors; throw JsonError-free std::runtime_error on kind
  /// mismatch (schema errors, reported with the offending key by callers).
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;

  /// Object lookup; nullptr when the key is absent (callers decide whether
  /// that is an error or a default).
  const JsonValue* find(const std::string& key) const;

  /// Keys present in an object (schema validation: reject unknown keys so
  /// a typo'd "duraton_ms" fails loudly instead of silently defaulting).
  std::vector<std::string> keys() const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;

  friend class JsonParser;
};

/// Streaming writer.  Call key() before each value inside an object;
/// field(k, v) is key(k).value(v).
class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) { return raw(b ? "true" : "false"); }
  JsonWriter& value(double v);
  template <std::integral T>
  JsonWriter& value(T v) {
    char buf[24];
    return raw({buf, std::to_chars(buf, buf + sizeof buf, v).ptr});
  }
  /// Splices an already-rendered JSON value.
  JsonWriter& raw(std::string_view json);

  template <class T>
  JsonWriter& field(std::string_view name, const T& v) {
    return key(name).value(v);
  }

  const std::string& str() const { return out_; }

 private:
  JsonWriter& open(char bracket);
  JsonWriter& close(char bracket);
  void separate();

  std::string out_;
  bool need_comma_ = false;
};

}  // namespace midrr
