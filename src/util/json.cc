#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <type_traits>

namespace snb::util {
namespace {

// ---- Escaping ------------------------------------------------------------

/// Appends `s` as a quoted JSON string: quote, backslash and the control
/// characters are escaped; every other byte passes through.
void AppendEscaped(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

// ---- Parsing -------------------------------------------------------------

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool ParseDocument(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out, 0)) return false;
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing characters");
    return true;
  }

 private:
  bool Fail(const std::string& why) {
    if (error_ != nullptr) *error_ = why + " at byte " + std::to_string(pos_);
    return false;
  }

  // JSON whitespace only (no \v or \f, no locale).
  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\n' && c != '\r' && c != '\t') break;
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

  bool ParseValue(JsonValue* out, int depth) {
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
      case '[':
        if (depth >= kMaxJsonDepth) {
          return Fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
                      " levels");
        }
        return c == '{' ? ParseObject(out, depth + 1)
                        : ParseArray(out, depth + 1);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string);
      case 't':
        return ParseLiteral("true", JsonValue::Kind::kBool, out);
      case 'f':
        return ParseLiteral("false", JsonValue::Kind::kBool, out);
      case 'n':
        return ParseLiteral("null", JsonValue::Kind::kNull, out);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseLiteral(std::string_view lit, JsonValue::Kind kind,
                    JsonValue* out) {
    if (text_.compare(pos_, lit.size(), lit) != 0) return Fail("bad literal");
    pos_ += lit.size();
    out->kind = kind;
    out->boolean = lit == "true";
    return true;
  }

  // RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, converted
  // with from_chars (locale-independent, round-trips %.17g exactly).
  bool ParseNumber(JsonValue* out) {
    size_t start = pos_;
    auto digits = [this] {
      size_t from = pos_;
      while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
      return pos_ - from;
    };
    Consume('-');
    if (Consume('0')) {
      if (pos_ < text_.size() && IsDigit(text_[pos_])) {
        return Fail("leading zero in number");
      }
    } else if (digits() == 0) {
      pos_ = start;
      return Fail("expected a value");
    }
    if (Consume('.') && digits() == 0) return Fail("bad number fraction");
    if (Consume('e') || Consume('E')) {
      if (!Consume('+')) Consume('-');
      if (digits() == 0) return Fail("bad number exponent");
    }
    const char* begin = text_.data() + start;
    const char* end = text_.data() + pos_;
    double v = 0.0;
    // The grammar is checked, so from_chars can only fail on range.
    if (std::from_chars(begin, end, v).ec != std::errc()) {
      pos_ = start;
      return Fail("number out of range");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = v;
    out->string.assign(begin, end);
    return true;
  }

  bool ParseHex4(unsigned* code) {
    if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
    *code = 0;
    for (int i = 0; i < 4; ++i) {
      char h = text_[pos_++];
      *code <<= 4;
      if (IsDigit(h)) {
        *code |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        *code |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        *code |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        return Fail("bad \\u escape");
      }
    }
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return Fail("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out->push_back(esc);
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'u': {
          // The writer emits \u only for control bytes; a code point above
          // one byte would need UTF-8 encoding no artifact asks for.
          unsigned code = 0;
          if (!ParseHex4(&code)) return false;
          if (code > 0xff) {
            pos_ -= 6;
            return Fail("\\u escape above 00FF is not supported");
          }
          out->push_back(static_cast<char>(code));
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseObject(JsonValue* out, int depth) {
    Consume('{');
    out->kind = JsonValue::Kind::kObject;
    SkipWs();
    if (Consume('}')) return true;
    for (;;) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (!Consume(':')) return Fail("expected ':'");
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value, depth)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return true;
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    Consume('[');
    out->kind = JsonValue::Kind::kArray;
    SkipWs();
    if (Consume(']')) return true;
    for (;;) {
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value, depth)) return false;
      out->array.push_back(std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return true;
      return Fail("expected ',' or ']'");
    }
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
};

// ---- Typed reads ---------------------------------------------------------

/// Reads `v` (a number's literal or a string's contents) as a decimal
/// integer of type T: an optional '-' (then rejected for unsigned T)
/// followed by digits only.
template <typename T>
util::Status ToInteger(const JsonValue& v, T* out) {
  if (v.kind != JsonValue::Kind::kNumber &&
      v.kind != JsonValue::Kind::kString) {
    return util::Status::InvalidArgument("is not a number");
  }
  const std::string& text = v.string;
  size_t sign = !text.empty() && text[0] == '-' ? 1 : 0;
  if (text.size() == sign ||
      text.find_first_not_of("0123456789", sign) != std::string::npos) {
    return util::Status::InvalidArgument("is not a decimal integer: \"" +
                                         text + "\"");
  }
  if (sign == 1 && std::is_unsigned_v<T>) {
    return util::Status::InvalidArgument("is negative: " + text);
  }
  // Digits only, so the one way left to fail is overflow.
  const char* end = text.data() + text.size();
  if (std::from_chars(text.data(), end, *out).ec != std::errc()) {
    return util::Status::InvalidArgument("is out of range: " + text);
  }
  return util::Status::Ok();
}

util::Status FieldError(const char* what, const char* key,
                        const std::string& problem) {
  return util::Status::InvalidArgument(std::string(what) + ": field \"" + key +
                                       "\" " + problem);
}

template <typename T>
util::Status GetInteger(const JsonValue& obj, const char* key, T* out,
                        const char* what) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return FieldError(what, key, "is missing");
  util::Status st = ToInteger(*v, out);
  if (!st.ok()) return FieldError(what, key, st.message());
  return util::Status::Ok();
}

}  // namespace

// ---- JsonValue -----------------------------------------------------------

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue* JsonValue::Find(std::string_view key, Kind want) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->kind == want ? v : nullptr;
}

double JsonValue::NumberOr(std::string_view key, double fallback) const {
  const JsonValue* v = Find(key, Kind::kNumber);
  return v != nullptr ? v->number : fallback;
}

bool ParseJson(const std::string& text, JsonValue* out, std::string* error) {
  return Parser(text, error).ParseDocument(out);
}

util::Status ToU64(const JsonValue& v, uint64_t* out) {
  return ToInteger(v, out);
}

util::Status GetU64(const JsonValue& obj, const char* key, uint64_t* out,
                    const char* what) {
  return GetInteger(obj, key, out, what);
}

util::Status GetI64(const JsonValue& obj, const char* key, int64_t* out,
                    const char* what) {
  return GetInteger(obj, key, out, what);
}

util::Status GetString(const JsonValue& obj, const char* key,
                       std::string* out, const char* what) {
  const JsonValue* v = obj.Find(key, JsonValue::Kind::kString);
  if (v == nullptr) return FieldError(what, key, "is missing or not a string");
  *out = v->string;
  return util::Status::Ok();
}

util::Status CheckSchema(const JsonValue& root, const char* want,
                         const char* what) {
  std::string tag;
  SNB_RETURN_IF_ERROR(GetString(root, "schema", &tag, what));
  if (tag != want) {
    return util::Status::InvalidArgument(std::string(what) +
                                         ": unsupported schema \"" + tag +
                                         "\" (want " + want + ")");
  }
  return util::Status::Ok();
}

// ---- JsonWriter ----------------------------------------------------------

void JsonWriter::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_.push_back(',');
    first_.back() = false;
  }
  if (newline_) {
    out_.push_back('\n');
    newline_ = false;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  Separate();
  out_.push_back('{');
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  if (newline_) out_.push_back('\n');
  newline_ = false;
  out_.push_back('}');
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Separate();
  out_.push_back('[');
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  if (newline_) out_.push_back('\n');
  newline_ = false;
  out_.push_back(']');
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  Separate();
  AppendEscaped(&out_, key);
  out_.push_back(':');
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view s) {
  Separate();
  AppendEscaped(&out_, s);
  return *this;
}

void JsonWriter::Number(const char* begin, const char* end) {
  Separate();
  out_.append(begin, end);
}

JsonWriter& JsonWriter::Double(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  auto res = std::to_chars(buf, buf + sizeof(buf), v,
                           std::chars_format::general, 6);
  Number(buf, res.ptr);
  return *this;
}

JsonWriter& JsonWriter::Fixed(double v, int decimals) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[400];  // DBL_MAX has 309 integer digits.
  auto res = std::to_chars(buf, buf + sizeof(buf), v,
                           std::chars_format::fixed, decimals);
  Number(buf, res.ptr);
  return *this;
}

JsonWriter& JsonWriter::U64(uint64_t v) {
  char buf[24];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  Number(buf, res.ptr);
  return *this;
}

JsonWriter& JsonWriter::I64(int64_t v) {
  char buf[24];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  Number(buf, res.ptr);
  return *this;
}

JsonWriter& JsonWriter::U64String(uint64_t v) {
  char buf[24];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return String(std::string_view(buf, static_cast<size_t>(res.ptr - buf)));
}

JsonWriter& JsonWriter::Bool(bool v) {
  Separate();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Newline() {
  newline_ = true;
  return *this;
}

std::string JsonWriter::Take() {
  std::string out = std::move(out_);
  out_.clear();
  first_.clear();
  after_key_ = false;
  newline_ = false;
  return out;
}

// ---- Files ---------------------------------------------------------------

util::Status ReadWholeFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return util::Status::NotFound("cannot open " + path);
  }
  out->clear();
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return util::Status::Internal("read error on " + path);
  return util::Status::Ok();
}

util::Status WriteWholeFile(const std::string& path,
                            const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return util::Status::Internal("cannot open " + path + " for writing");
  }
  size_t written = std::fwrite(content.data(), 1, content.size(), f);
  int rc = std::fclose(f);
  if (written != content.size() || rc != 0) {
    return util::Status::Internal("short write to " + path);
  }
  return util::Status::Ok();
}

}  // namespace snb::util
