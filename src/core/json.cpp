#include "core/json.hpp"

#include <bit>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace rmp::core {

namespace {

void write_escaped(std::string& out, const std::string& s) {
  out += '"';
  std::size_t plain = 0;  // start of the pending run that needs no escaping
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) continue;
    out.append(s, plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(s, plain, std::string::npos);
  out += '"';
}

void write_double(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no NaN/Inf
    out += "null";
    return;
  }
  // to_chars: the shortest decimal representation that round-trips to the
  // same bits, independent of the embedder's LC_NUMERIC.
  char buf[40];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;  // cannot fail: 40 bytes covers every shortest double
  out.append(buf, ptr);
}

/// Recursive-descent RFC 8259 reader over an in-memory document.  Depth is
/// bounded so a hostile "[[[[..." cannot overflow the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json run() {
    skip_whitespace();
    Json doc = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing garbage after the document");
    return doc;
  }

 private:
  static constexpr int kMaxDepth = 256;

  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("JSON parse error at byte " + std::to_string(pos_) + ": " + what);
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  char take() {
    if (eof()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void expect(char c) {
    if (eof() || text_[pos_] != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  void skip_whitespace() {
    while (!eof()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume_keyword(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting deeper than 256 levels");
    if (eof()) fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Json(parse_string());
      case 't':
        if (!consume_keyword("true")) fail("invalid literal");
        return Json(true);
      case 'f':
        if (!consume_keyword("false")) fail("invalid literal");
        return Json(false);
      case 'n':
        if (!consume_keyword("null")) fail("invalid literal");
        return Json();
      default: return parse_number();
    }
  }

  Json parse_object(int depth) {
    expect('{');
    Json obj = Json::object();
    skip_whitespace();
    if (!eof() && peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_whitespace();
      if (eof() || peek() != '"') fail("expected a string key");
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      skip_whitespace();
      if (obj.find(key) != nullptr) fail("duplicate key \"" + key + "\"");
      obj.set(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      const char c = take();
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  Json parse_array(int depth) {
    expect('[');
    Json arr = Json::array();
    skip_whitespace();
    if (!eof() && peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      skip_whitespace();
      arr.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char c = take();
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  /// Appends the UTF-8 encoding of a code point.
  void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint32_t>(c - 'A' + 10);
      else fail("invalid \\u escape");
    }
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // Copy the run of plain characters up to the next quote or backslash
      // in one append.
      std::size_t end = pos_;
      while (end < text_.size() && text_[end] != '"' && text_[end] != '\\') {
        if (static_cast<unsigned char>(text_[end]) < 0x20) {
          pos_ = end + 1;
          fail("unescaped control character");
        }
        ++end;
      }
      out.append(text_.data() + pos_, end - pos_);
      pos_ = end;
      if (take() == '"') return out;
      const char esc = take();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: pair required
            if (take() != '\\' || take() != 'u') fail("unpaired surrogate");
            const std::uint32_t low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("invalid escape sequence");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    // Integer part: "0" or a nonzero-led digit run (RFC forbids "01").
    if (eof() || peek() < '0' || peek() > '9') fail("invalid number");
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    bool integral = true;
    if (!eof() && peek() == '.') {
      integral = false;
      ++pos_;
      if (eof() || peek() < '0' || peek() > '9') fail("digits required after '.'");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      integral = false;
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || peek() < '0' || peek() > '9') fail("digits required in exponent");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (integral) {
      std::int64_t v = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), v);
      if (ec == std::errc() && ptr == token.data() + token.size()) return Json(v);
      // Out of int64 range: fall through to the double representation.
    }
    // from_chars, not strtod: locale-independent (an embedder's LC_NUMERIC
    // must not change what "0.05" parses to).
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), v);
    if (ec == std::errc::result_out_of_range) fail("number out of double range");
    if (ec != std::errc() || ptr != token.data() + token.size()) fail("invalid number");
    return Json(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

[[noreturn]] void type_error(std::string_view want, std::string_view got) {
  throw JsonError("JSON type error: wanted " + std::string(want) + ", value is " +
                  std::string(got));
}

}  // namespace

Json::Json(std::uint64_t v) {
  if (v > static_cast<std::uint64_t>(INT64_MAX)) {
    // Not representable as a JSON number without precision loss — fall back
    // to the hex() string encoding rather than silently wrapping negative.
    *this = hex(v);
    return;
  }
  kind_ = Kind::kInt;
  int_ = static_cast<std::int64_t>(v);
}

Json Json::hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return Json(std::string(buf));
}

Json Json::bits(double v) { return hex(std::bit_cast<std::uint64_t>(v)); }

Json Json::parse(std::string_view text) { return Parser(text).run(); }

Json& Json::push_back(Json v) {
  assert(kind_ == Kind::kArray);
  array_.push_back(std::move(v));
  return *this;
}

Json& Json::set(std::string key, Json v) {
  assert(kind_ == Kind::kObject);
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  object_.emplace_back(std::move(key), std::move(v));
  return *this;
}

std::string_view Json::kind_name() const {
  switch (kind_) {
    case Kind::kNull: return "null";
    case Kind::kBool: return "bool";
    case Kind::kInt: return "int";
    case Kind::kDouble: return "double";
    case Kind::kString: return "string";
    case Kind::kArray: return "array";
    case Kind::kObject: return "object";
  }
  return "unknown";
}

bool Json::as_bool() const {
  if (kind_ != Kind::kBool) type_error("bool", kind_name());
  return bool_;
}

std::int64_t Json::as_int() const {
  if (kind_ != Kind::kInt) type_error("int", kind_name());
  return int_;
}

std::size_t Json::as_size() const {
  if (kind_ != Kind::kInt) type_error("non-negative int", kind_name());
  if (int_ < 0) throw JsonError("JSON type error: wanted non-negative int, got " +
                                std::to_string(int_));
  return static_cast<std::size_t>(int_);
}

std::uint64_t Json::as_u64() const {
  if (kind_ == Kind::kInt) {
    if (int_ < 0) throw JsonError("JSON type error: wanted u64, got " +
                                  std::to_string(int_));
    return static_cast<std::uint64_t>(int_);
  }
  if (kind_ == Kind::kString && string_.starts_with("0x")) {
    std::uint64_t v = 0;
    const char* first = string_.data() + 2;
    const char* last = string_.data() + string_.size();
    const auto [ptr, ec] = std::from_chars(first, last, v, 16);
    if (ec == std::errc() && ptr == last && last != first) return v;
    throw JsonError("JSON type error: malformed hex string \"" + string_ + "\"");
  }
  type_error("u64 (non-negative int or \"0x...\" string)", kind_name());
}

double Json::as_double() const {
  if (kind_ == Kind::kInt) return static_cast<double>(int_);
  if (kind_ != Kind::kDouble) type_error("number", kind_name());
  return double_;
}

double Json::as_double_bits() const { return std::bit_cast<double>(as_u64()); }

const std::string& Json::as_string() const {
  if (kind_ != Kind::kString) type_error("string", kind_name());
  return string_;
}

std::size_t Json::size() const {
  if (kind_ == Kind::kArray) return array_.size();
  if (kind_ == Kind::kObject) return object_.size();
  return 0;
}

std::span<const Json> Json::items() const {
  if (kind_ != Kind::kArray) type_error("array", kind_name());
  return array_;
}

std::span<const std::pair<std::string, Json>> Json::entries() const {
  if (kind_ != Kind::kObject) type_error("object", kind_name());
  return object_;
}

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::kObject) type_error("object", kind_name());
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* v = find(key);
  if (v == nullptr) throw JsonError("JSON lookup error: missing key \"" +
                                    std::string(key) + "\"");
  return *v;
}

const Json& Json::at(std::size_t index) const {
  if (kind_ != Kind::kArray) type_error("array", kind_name());
  if (index >= array_.size()) {
    throw JsonError("JSON lookup error: index " + std::to_string(index) +
                    " out of range (size " + std::to_string(array_.size()) + ")");
  }
  return array_[index];
}

void Json::write(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kInt: out += std::to_string(int_); break;
    case Kind::kDouble: write_double(out, double_); break;
    case Kind::kString: write_escaped(out, string_); break;
    case Kind::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i != 0) out += ',';
        newline(depth + 1);
        array_[i].write(out, indent, depth + 1);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i != 0) out += ',';
        newline(depth + 1);
        write_escaped(out, object_[i].first);
        out += indent > 0 ? ": " : ":";
        object_[i].second.write(out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

bool write_json_file(const std::string& path, const Json& doc, int indent) {
  std::ofstream f(path);
  if (!f) return false;
  f << doc.dump(indent) << '\n';
  return static_cast<bool>(f);
}

Json load_json_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw JsonError("cannot open " + path);
  std::ostringstream buffer;
  buffer << f.rdbuf();
  if (!f.good() && !f.eof()) throw JsonError("cannot read " + path);
  return Json::parse(buffer.str());
}

}  // namespace rmp::core
