#include "json.hpp"

#include <cctype>
#include <cstdlib>

#include "common/error.hpp"

namespace pac::obs {

bool JsonValue::as_bool() const {
  PAC_CHECK(is_bool(), "JSON value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  PAC_CHECK(is_number(), "JSON value is not a number");
  return number_;
}

std::int64_t JsonValue::as_int() const {
  return static_cast<std::int64_t>(as_number());
}

const std::string& JsonValue::as_string() const {
  PAC_CHECK(is_string(), "JSON value is not a string");
  return string_;
}

const JsonArray& JsonValue::as_array() const {
  PAC_CHECK(is_array(), "JSON value is not an array");
  return *array_;
}

const JsonObject& JsonValue::as_object() const {
  PAC_CHECK(is_object(), "JSON value is not an object");
  return *object_;
}

bool JsonValue::has(const std::string& key) const {
  return is_object() && object_->count(key) > 0;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonObject& obj = as_object();
  auto it = obj.find(key);
  PAC_CHECK(it != obj.end(), "missing JSON member \"" << key << "\"");
  return it->second;
}

JsonValue JsonValue::make_null() { return JsonValue(); }

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.type_ = Type::Bool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  v.type_ = Type::Number;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.type_ = Type::String;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(JsonArray a) {
  JsonValue v;
  v.type_ = Type::Array;
  v.array_ = std::make_shared<JsonArray>(std::move(a));
  return v;
}

JsonValue JsonValue::make_object(JsonObject o) {
  JsonValue v;
  v.type_ = Type::Object;
  v.object_ = std::make_shared<JsonObject>(std::move(o));
  return v;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    PAC_CHECK(pos_ == text_.size(),
              "trailing garbage in JSON at offset " << pos_);
    return v;
  }

 private:
  char peek() {
    PAC_CHECK(pos_ < text_.size(), "unexpected end of JSON input");
    return text_[pos_];
  }

  char next() {
    char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    PAC_CHECK(next() == c, "expected '" << c << "' at offset " << pos_ - 1);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        PAC_CHECK(consume_literal("true"), "bad literal at " << pos_);
        return JsonValue::make_bool(true);
      case 'f':
        PAC_CHECK(consume_literal("false"), "bad literal at " << pos_);
        return JsonValue::make_bool(false);
      case 'n':
        PAC_CHECK(consume_literal("null"), "bad literal at " << pos_);
        return JsonValue::make_null();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      char c = next();
      if (c == '}') break;
      PAC_CHECK(c == ',', "expected ',' or '}' at offset " << pos_ - 1);
    }
    return JsonValue::make_object(std::move(obj));
  }

  JsonValue parse_array() {
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      char c = next();
      if (c == ']') break;
      PAC_CHECK(c == ',', "expected ',' or ']' at offset " << pos_ - 1);
    }
    return JsonValue::make_array(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      char c = next();
      if (c == '"') break;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      char esc = next();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          PAC_CHECK(pos_ + 4 <= text_.size(), "truncated \\u escape");
          unsigned code = static_cast<unsigned>(
              std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16));
          pos_ += 4;
          // ASCII-only decoding; the obs emitters only escape controls.
          PAC_CHECK(code < 0x80, "non-ASCII \\u escape unsupported");
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          PAC_CHECK(false, "bad escape '\\" << esc << "'");
      }
    }
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
          c == 'e' || c == 'E' || c == '-' || c == '+') {
        ++pos_;
      } else {
        break;
      }
    }
    PAC_CHECK(pos_ > start, "expected a JSON value at offset " << start);
    char* end = nullptr;
    const std::string token = text_.substr(start, pos_ - start);
    double d = std::strtod(token.c_str(), &end);
    PAC_CHECK(end != nullptr && *end == '\0',
              "malformed number \"" << token << "\"");
    return JsonValue::make_number(d);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace pac::obs
