#pragma once

// Minimal JSON reader for the machine-readable artifacts this repo emits
// (BENCH_*.json, metrics.json, figure dumps), plus the one string escaper all
// of their writers share. Strict enough for round-trip use by
// tools/mmd_perf_diff and the tests; not a general-purpose library —
// numbers are always doubles, objects preserve insertion order so diffs stay
// stable against the writers' ordering.

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace mmd::util::json {

class Value;
using Array = std::vector<Value>;
/// Insertion-ordered object (the writers emit deterministic key order and the
/// readers want to report in the same order).
using Object = std::vector<std::pair<std::string, Value>>;

/// Parse/shape violations surface as this exception (what + byte offset).
class Error : public std::exception {
 public:
  Error(std::string what, std::size_t offset = 0);
  const char* what() const noexcept override { return what_.c_str(); }
  std::size_t offset() const { return offset_; }

 private:
  std::string what_;
  std::size_t offset_;
};

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}
  Value(bool b) : v_(b) {}
  Value(double d) : v_(d) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(Array a) : v_(std::move(a)) {}
  Value(Object o) : v_(std::move(o)) {}

  Type type() const { return static_cast<Type>(v_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  // Typed accessors; throw json::Error on type mismatch.
  bool boolean() const;
  double number() const;
  const std::string& str() const;
  const Array& array() const;
  const Object& object() const;

  /// Object member lookup; nullptr when absent or when this is not an object.
  const Value* find(std::string_view key) const;
  /// Object member lookup; throws json::Error when absent.
  const Value& at(std::string_view key) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// Parse a complete JSON document (trailing garbage is an error).
Value parse(std::string_view text);

/// Parse the file's whole contents; throws json::Error (unreadable file or
/// malformed content, the message names the path).
Value parse_file(const std::string& path);

/// Write `s` as a JSON string literal: quote, backslash and every control
/// character escaped, so parse() (and any strict reader) reads `s` back.
void write_string(std::ostream& os, std::string_view s);

}  // namespace mmd::util::json
