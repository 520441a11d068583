#include "service/json.hpp"

#include <cctype>
#include <charconv>

#include "runner/emit.hpp"

namespace dtop::service {
namespace {

// Hand-rolled recursive-descent-without-the-recursion parser: the grammar is
// one flat object of scalar fields, so a cursor and a handful of helpers
// cover it. Positions in errors are 0-based byte offsets into the line.
class Cursor {
 public:
  explicit Cursor(const std::string& s) : s_(s) {}

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  bool done() const { return pos_ >= s_.size(); }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  char take() {
    if (done()) fail("unexpected end of input");
    return s_[pos_++];
  }
  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }
  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("json: " + what + " at offset " + std::to_string(pos_));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (done()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (done()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // The protocol's payloads are ASCII + UTF-8 pass-through; encode
          // the code point as UTF-8 (no surrogate-pair handling — reject).
          if (code >= 0xD800 && code <= 0xDFFF) fail("surrogate escapes unsupported");
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_scalar() {
    JsonValue v;
    skip_ws();
    const char c = peek();
    if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      v.text = parse_string();
      return v;
    }
    if (c == '{' || c == '[') {
      fail("nested objects/arrays are not part of the dtopd protocol "
           "(pass lists as strings, e.g. \"8..32:8\")");
    }
    // true / false / null / number.
    const std::size_t start = pos_;
    while (!done() && peek() != ',' && peek() != '}' &&
           !std::isspace(static_cast<unsigned char>(peek()))) {
      ++pos_;
    }
    const std::string tok = s_.substr(start, pos_ - start);
    if (tok == "true" || tok == "false") {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = (tok == "true");
      return v;
    }
    if (tok == "null") return v;
    double num = 0.0;
    const char* b = tok.data();
    const char* e = b + tok.size();
    auto [ptr, ec] = std::from_chars(b, e, num);
    if (ec != std::errc() || ptr != e || tok.empty()) {
      pos_ = start;
      fail("bad token '" + tok + "'");
    }
    v.kind = JsonValue::Kind::kNumber;
    v.number = num;
    v.text = tok;
    return v;
  }

 private:
  const std::string& s_;
  std::size_t pos_ = 0;
};

[[noreturn]] void type_error(const std::string& key, const char* want) {
  throw JsonError("field \"" + key + "\" must be a " + want);
}

}  // namespace

const JsonValue* JsonObject::find(const std::string& key) const {
  const auto it = fields_.find(key);
  return it == fields_.end() ? nullptr : &it->second;
}

std::string JsonObject::get_string(const std::string& key,
                                   const std::string& fallback) const {
  const JsonValue* v = find(key);
  if (!v || v->kind == JsonValue::Kind::kNull) return fallback;
  if (v->kind != JsonValue::Kind::kString) type_error(key, "string");
  return v->text;
}

std::string JsonObject::require_string(const std::string& key) const {
  const JsonValue* v = find(key);
  if (!v || v->kind != JsonValue::Kind::kString || v->text.empty()) {
    throw JsonError("request needs a non-empty string field \"" + key + "\"");
  }
  return v->text;
}

std::uint64_t JsonObject::get_u64(const std::string& key,
                                  std::uint64_t fallback) const {
  const JsonValue* v = find(key);
  if (!v || v->kind == JsonValue::Kind::kNull) return fallback;
  if (v->kind != JsonValue::Kind::kNumber) type_error(key, "number");
  // Integers arrive as their exact decimal token; re-parse it so 64-bit
  // seeds survive (a double round trip would clip above 2^53).
  std::uint64_t out = 0;
  const char* b = v->text.data();
  const char* e = b + v->text.size();
  auto [ptr, ec] = std::from_chars(b, e, out);
  if (ec != std::errc() || ptr != e) {
    type_error(key, "non-negative integer");
  }
  return out;
}

std::int64_t JsonObject::get_i64(const std::string& key,
                                 std::int64_t fallback) const {
  const JsonValue* v = find(key);
  if (!v || v->kind == JsonValue::Kind::kNull) return fallback;
  if (v->kind != JsonValue::Kind::kNumber) type_error(key, "number");
  std::int64_t out = 0;
  const char* b = v->text.data();
  const char* e = b + v->text.size();
  auto [ptr, ec] = std::from_chars(b, e, out);
  if (ec != std::errc() || ptr != e) type_error(key, "integer");
  return out;
}

bool JsonObject::get_bool(const std::string& key, bool fallback) const {
  const JsonValue* v = find(key);
  if (!v || v->kind == JsonValue::Kind::kNull) return fallback;
  if (v->kind != JsonValue::Kind::kBool) type_error(key, "boolean");
  return v->boolean;
}

std::string JsonObject::raw_token(const std::string& key) const {
  const JsonValue* v = find(key);
  if (!v) return "";
  switch (v->kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return v->boolean ? "true" : "false";
    case JsonValue::Kind::kNumber: return v->text;
    case JsonValue::Kind::kString: {
      // Appended piecewise: `"\"" + s + "\""` trips GCC 12's -Wrestrict.
      const std::string body = json_escape(v->text);
      std::string out;
      out.reserve(body.size() + 2);
      out += '"';
      out += body;
      out += '"';
      return out;
    }
  }
  return "";
}

void JsonObject::set(std::string key, JsonValue v) {
  fields_[std::move(key)] = std::move(v);
}

std::vector<std::string> JsonObject::keys() const {
  std::vector<std::string> out;
  out.reserve(fields_.size());
  for (const auto& [k, v] : fields_) out.push_back(k);
  return out;
}

JsonObject parse_json_object(const std::string& line) {
  Cursor c(line);
  c.skip_ws();
  c.expect('{');
  JsonObject obj;
  c.skip_ws();
  if (!c.consume('}')) {
    for (;;) {
      c.skip_ws();
      if (c.peek() != '"') c.fail("expected a field name");
      std::string key = c.parse_string();
      if (obj.has(key)) c.fail("duplicate field \"" + key + "\"");
      c.skip_ws();
      c.expect(':');
      obj.set(std::move(key), c.parse_scalar());
      c.skip_ws();
      if (c.consume(',')) continue;
      c.expect('}');
      break;
    }
  }
  c.skip_ws();
  if (!c.done()) c.fail("trailing characters after object");
  return obj;
}

std::string json_escape(const std::string& s) {
  // One escaping implementation for the whole repo: the campaign emitters
  // own it, and daemon responses must escape byte-identically to them.
  return runner::json_escape(s);
}

std::string balanced_object(const std::string& s, std::size_t open) {
  DTOP_REQUIRE(open < s.size() && s[open] == '{',
               "malformed response: expected '{'");
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = open; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') ++depth;
    else if (c == '}' && --depth == 0) return s.substr(open, i - open + 1);
  }
  throw Error("malformed response: unbalanced object");
}

std::string extract_object(const std::string& line, const std::string& key) {
  const std::string marker = "\"" + key + "\": {";
  const std::size_t at = line.find(marker);
  if (at == std::string::npos) return "";
  return balanced_object(line, at + marker.size() - 1);
}

void JsonWriter::key(const std::string& k) {
  if (!first_) out_ += ", ";
  first_ = false;
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\": ";
}

JsonWriter& JsonWriter::field(const std::string& k, const std::string& value) {
  key(k);
  out_ += '"';
  out_ += json_escape(value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& k, const char* value) {
  return field(k, std::string(value));
}

JsonWriter& JsonWriter::field(const std::string& k, std::uint64_t value) {
  key(k);
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& k, std::int64_t value) {
  key(k);
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& k, bool value) {
  key(k);
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::field_raw(const std::string& k,
                                  const std::string& token) {
  key(k);
  out_ += token;
  return *this;
}

std::string JsonWriter::str() {
  out_ += "}";
  return std::move(out_);
}

}  // namespace dtop::service
