// The one JSON module. Every artifact the project writes or reads as JSON
// goes through here: report.json (obs/report.h), golden validation sets
// (validate/golden.h), fuzz regression artifacts (validate/fuzz.h), the
// Chrome trace (obs/trace_buffer.h) and the HTTP exporter's error bodies.
//
// Writing: JsonWriter owns string escaping, separators and the number
// formats (%.6g doubles, fixed-decimal doubles, 64-bit integers, and
// integers as decimal strings for ids that may exceed 2^53). Output is
// compact; Newline() puts the next element on its own line, which is how
// the line-oriented artifacts (golden sets, fuzz artifacts, traces) stay
// diffable.
//
// Reading: ParseJson accepts strict JSON (RFC 8259 numbers, parsed
// without the locale) with two limits the writer never reaches: nesting
// deeper than kMaxJsonDepth and \u escapes above 00FF are rejected with a
// named error. Typed getters turn a JsonValue into integers and strings
// with "<artifact>: field \"key\" ..." errors, rejecting fractions,
// negative unsigned values, non-decimal strings and out-of-range values.
#ifndef SNB_UTIL_JSON_H_
#define SNB_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace snb::util {

// ---- Values and parsing --------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// kString: the decoded string. kNumber: the literal as written, so the
  /// integer getters read 64-bit values exactly.
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
  /// As Find, but also nullptr when the member is not of `kind`.
  const JsonValue* Find(std::string_view key, Kind kind) const;
  /// Numeric member, or `fallback` when absent or not a number.
  double NumberOr(std::string_view key, double fallback) const;
};

/// Deepest array/object nesting ParseJson accepts. The deepest artifact
/// nests about five levels; the bound keeps recursion off the stack limit.
inline constexpr int kMaxJsonDepth = 64;

/// Parses a complete JSON document. On failure returns false and describes
/// the problem in *error (reason + byte offset).
bool ParseJson(const std::string& text, JsonValue* out, std::string* error);

// ---- Typed reads ---------------------------------------------------------

/// Converts an unsigned integer stored as a JSON number or a decimal
/// string. Only plain decimal digits in range are accepted; the error
/// message says what was wrong ("is not a decimal integer", "is
/// negative", "is out of range").
util::Status ToU64(const JsonValue& v, uint64_t* out);

/// Member reads with ToU64's rules (GetI64 also takes a leading '-').
/// `what` names the artifact for error messages.
util::Status GetU64(const JsonValue& obj, const char* key, uint64_t* out,
                    const char* what);
util::Status GetI64(const JsonValue& obj, const char* key, int64_t* out,
                    const char* what);
util::Status GetString(const JsonValue& obj, const char* key,
                       std::string* out, const char* what);

/// Reads the schema tag and requires it to equal `want`; any other tag is
/// an "unsupported schema" error.
util::Status CheckSchema(const JsonValue& root, const char* want,
                         const char* what);

// ---- Writing -------------------------------------------------------------

class JsonWriter {
 public:
  JsonWriter() = default;
  explicit JsonWriter(size_t reserve) { out_.reserve(reserve); }

  /// Containers. A Begin* call is a value: inside an array or after Key()
  /// it gets its separator like any scalar.
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  /// Names the next value inside an object.
  JsonWriter& Key(std::string_view key);

  /// Scalars.
  JsonWriter& String(std::string_view s);
  /// printf %.6g; non-finite values (which JSON cannot hold) write 0.
  JsonWriter& Double(double v);
  /// printf %.<decimals>f; non-finite values write 0.
  JsonWriter& Fixed(double v, int decimals);
  JsonWriter& U64(uint64_t v);
  JsonWriter& I64(int64_t v);
  /// A decimal string ("123"): for ids that may exceed 2^53, which a JSON
  /// number cannot carry through double-based readers. GetU64 reads both.
  JsonWriter& U64String(uint64_t v);
  JsonWriter& Bool(bool v);

  /// Starts the next element, key or closing bracket on a new line (after
  /// its separating comma).
  JsonWriter& Newline();

  /// The document written so far; the writer is empty afterwards.
  std::string Take();

 private:
  void Separate();  // Comma and pending newline before a key or value.
  void Number(const char* begin, const char* end);

  std::string out_;
  std::vector<bool> first_;  // Per open container: no element yet.
  bool after_key_ = false;
  bool newline_ = false;
};

// ---- Files ---------------------------------------------------------------

/// Reads an entire file into `*out`.
util::Status ReadWholeFile(const std::string& path, std::string* out);

/// Writes `content` to `path` (truncate + write + close).
util::Status WriteWholeFile(const std::string& path,
                            const std::string& content);

}  // namespace snb::util

#endif  // SNB_UTIL_JSON_H_
