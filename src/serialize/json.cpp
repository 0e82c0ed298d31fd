#include "serialize/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/error.hpp"

namespace rex::serialize {

bool Json::as_bool() const {
  REX_REQUIRE(is_bool(), "json value is not a bool");
  return bool_;
}

double Json::as_number() const {
  REX_REQUIRE(is_number(), "json value is not a number");
  return number_;
}

std::int64_t Json::as_int() const {
  REX_REQUIRE(is_number(), "json value is not a number");
  return static_cast<std::int64_t>(number_);
}

const std::string& Json::as_string() const {
  REX_REQUIRE(is_string(), "json value is not a string");
  return string_;
}

const JsonArray& Json::as_array() const {
  REX_REQUIRE(is_array(), "json value is not an array");
  return array_;
}

const JsonObject& Json::as_object() const {
  REX_REQUIRE(is_object(), "json value is not an object");
  return object_;
}

Json& Json::operator[](const std::string& key) {
  REX_REQUIRE(is_object(), "json operator[] on non-object");
  return object_[key];
}

const Json& Json::at(const std::string& key) const {
  REX_REQUIRE(is_object(), "json at() on non-object");
  const auto it = object_.find(key);
  REX_REQUIRE(it != object_.end(), "json key missing: " + key);
  return it->second;
}

bool Json::contains(const std::string& key) const {
  return is_object() && object_.count(key) > 0;
}

void Json::push_back(Json v) {
  REX_REQUIRE(is_array(), "json push_back on non-array");
  array_.push_back(std::move(v));
}

std::size_t Json::size() const {
  if (is_array()) return array_.size();
  if (is_object()) return object_.size();
  if (is_string()) return string_.size();
  return 0;
}

bool operator==(const Json& a, const Json& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Json::Type::kNull: return true;
    case Json::Type::kBool: return a.bool_ == b.bool_;
    case Json::Type::kNumber: return a.number_ == b.number_;
    case Json::Type::kString: return a.string_ == b.string_;
    case Json::Type::kArray: return a.array_ == b.array_;
    case Json::Type::kObject: return a.object_ == b.object_;
  }
  return false;
}

namespace {

void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
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
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void dump_number(double n, std::string& out) {
  REX_REQUIRE(std::isfinite(n), "json cannot represent non-finite numbers");
  if (n == static_cast<double>(static_cast<std::int64_t>(n)) &&
      std::fabs(n) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld",
                  static_cast<long long>(static_cast<std::int64_t>(n)));
    out += buf;
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", n);
    out += buf;
  }
}

void dump_value(const Json& v, std::string& out);

void dump_array(const JsonArray& a, std::string& out) {
  out.push_back('[');
  bool first = true;
  for (const Json& item : a) {
    if (!first) out.push_back(',');
    first = false;
    dump_value(item, out);
  }
  out.push_back(']');
}

void dump_object(const JsonObject& o, std::string& out) {
  out.push_back('{');
  bool first = true;
  for (const auto& [key, value] : o) {
    if (!first) out.push_back(',');
    first = false;
    dump_string(key, out);
    out.push_back(':');
    dump_value(value, out);
  }
  out.push_back('}');
}

void dump_value(const Json& v, std::string& out) {
  switch (v.type()) {
    case Json::Type::kNull: out += "null"; break;
    case Json::Type::kBool: out += v.as_bool() ? "true" : "false"; break;
    case Json::Type::kNumber: dump_number(v.as_number(), out); break;
    case Json::Type::kString: dump_string(v.as_string(), out); break;
    case Json::Type::kArray: dump_array(v.as_array(), out); break;
    case Json::Type::kObject: dump_object(v.as_object(), out); break;
  }
}

/// Arrays and objects nested deeper than this are refused. The parser
/// recurses once per level, so a peer's 100,000 opening brackets would
/// otherwise exhaust the stack; the deepest JSON REX reads (the loopback
/// cluster configs) nests 3 levels.
constexpr std::size_t kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_whitespace();
    REX_REQUIRE(pos_ == text_.size(), "trailing characters after json value");
    return v;
  }

 private:
  Json parse_value() {
    skip_whitespace();
    REX_REQUIRE(pos_ < text_.size(), "unexpected end of json input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        REX_REQUIRE(depth_ < kMaxDepth, "json nested deeper than 64 levels");
        ++depth_;
        Json v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return Json(parse_string());
      case 't': expect("true"); return Json(true);
      case 'f': expect("false"); return Json(false);
      case 'n': expect("null"); return Json(nullptr);
      default: return parse_number();
    }
  }

  Json parse_object() {
    ++pos_;  // '{'
    JsonObject obj;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    for (;;) {
      skip_whitespace();
      REX_REQUIRE(peek() == '"', "expected json object key");
      std::string key = parse_string();
      skip_whitespace();
      REX_REQUIRE(peek() == ':', "expected ':' in json object");
      ++pos_;
      obj[std::move(key)] = parse_value();
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      REX_REQUIRE(c == '}', "expected ',' or '}' in json object");
      ++pos_;
      return Json(std::move(obj));
    }
  }

  Json parse_array() {
    ++pos_;  // '['
    JsonArray arr;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      REX_REQUIRE(c == ']', "expected ',' or ']' in json array");
      ++pos_;
      return Json(std::move(arr));
    }
  }

  std::string parse_string() {
    ++pos_;  // '"'
    std::string out;
    for (;;) {
      REX_REQUIRE(pos_ < text_.size(), "unterminated json string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      REX_REQUIRE(pos_ < text_.size(), "unterminated json escape");
      c = text_[pos_++];
      switch (c) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          REX_REQUIRE(pos_ + 4 <= text_.size(), "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else REX_REQUIRE(false, "invalid \\u escape digit");
          }
          // Encode as UTF-8 (basic multilingual plane; surrogate pairs are
          // not needed by attestation payloads but are handled as two
          // independent code units for robustness).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: REX_REQUIRE(false, "invalid json escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    REX_REQUIRE(pos_ > start, "invalid json number");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    REX_REQUIRE(end == token.c_str() + token.size(), "invalid json number");
    return Json(value);
  }

  void expect(std::string_view word) {
    REX_REQUIRE(text_.substr(pos_, word.size()) == word,
                "invalid json literal");
    pos_ += word.size();
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // arrays and objects open at pos_
};

}  // namespace

std::string Json::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace rex::serialize
