#include "server/protocol.hpp"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

namespace memstress::server {

// ---------------------------------------------------------------------------
// Accessors.

namespace {

const char* type_name(Json::Type type) {
  switch (type) {
    case Json::Type::Null: return "null";
    case Json::Type::Bool: return "bool";
    case Json::Type::Number: return "number";
    case Json::Type::String: return "string";
    case Json::Type::Array: return "array";
    case Json::Type::Object: return "object";
  }
  return "?";
}

[[noreturn]] void type_error(const char* wanted, Json::Type got) {
  throw ProtocolError(std::string("expected ") + wanted + ", got " +
                      type_name(got));
}

}  // namespace

bool Json::as_bool() const {
  if (type_ != Type::Bool) type_error("bool", type_);
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::Number) type_error("number", type_);
  return number_;
}

const std::string& Json::as_string() const {
  if (type_ != Type::String) type_error("string", type_);
  return string_;
}

const std::vector<Json>& Json::items() const {
  if (type_ != Type::Array) type_error("array", type_);
  return array_;
}

const std::vector<Json::Member>& Json::members() const {
  if (type_ != Type::Object) type_error("object", type_);
  return object_;
}

void Json::push_back(Json value) {
  if (type_ == Type::Null) type_ = Type::Array;
  if (type_ != Type::Array) type_error("array", type_);
  array_.push_back(std::move(value));
}

void Json::set(std::string key, Json value) {
  if (type_ == Type::Null) type_ = Type::Object;
  if (type_ != Type::Object) type_error("object", type_);
  object_.emplace_back(std::move(key), std::move(value));
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::Object) type_error("object", type_);
  const Json* hit = nullptr;
  for (const auto& [name, value] : object_)
    if (name == key) hit = &value;
  return hit;
}

const Json& Json::at(const std::string& key) const {
  const Json* hit = find(key);
  if (!hit) throw ProtocolError("missing field \"" + key + "\"");
  return *hit;
}

double Json::number_or(const std::string& key, double fallback) const {
  const Json* hit = find(key);
  return hit ? hit->as_number() : fallback;
}

long long Json::int_or(const std::string& key, long long fallback) const {
  const Json* hit = find(key);
  if (!hit) return fallback;
  const double value = hit->as_number();
  const long long as_int = static_cast<long long>(value);
  if (static_cast<double>(as_int) != value)
    throw ProtocolError("field \"" + key + "\" must be an integer");
  return as_int;
}

std::string Json::string_or(const std::string& key,
                            const std::string& fallback) const {
  const Json* hit = find(key);
  return hit ? hit->as_string() : fallback;
}

// ---------------------------------------------------------------------------
// Serialization.

std::string format_number(double value) {
  // Integral doubles in the exactly-representable range print as integers —
  // ids, counts and grid sizes stay readable and stable.
  constexpr double kExact = 9007199254740992.0;  // 2^53
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) <= kExact) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%lld",
                  static_cast<long long>(value));
    return buffer;
  }
  if (!std::isfinite(value))
    // JSON has no Infinity/NaN; clamp to null like common lenient encoders.
    return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

namespace {

void append_escaped(const std::string& text, std::string& out) {
  out += '"';
  for (const unsigned char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
}

void append_value(const Json& value, std::string& out) {
  switch (value.type()) {
    case Json::Type::Null: out += "null"; return;
    case Json::Type::Bool: out += value.as_bool() ? "true" : "false"; return;
    case Json::Type::Number: out += format_number(value.as_number()); return;
    case Json::Type::String: append_escaped(value.as_string(), out); return;
    case Json::Type::Array: {
      out += '[';
      bool first = true;
      for (const auto& item : value.items()) {
        if (!first) out += ',';
        first = false;
        append_value(item, out);
      }
      out += ']';
      return;
    }
    case Json::Type::Object: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : value.members()) {
        if (!first) out += ',';
        first = false;
        append_escaped(key, out);
        out += ':';
        append_value(member, out);
      }
      out += '}';
      return;
    }
  }
}

}  // namespace

std::string Json::dump() const {
  std::string out;
  append_value(*this, out);
  return out;
}

// ---------------------------------------------------------------------------
// Parser.

namespace {

std::atomic<ParseTraceFn>& parse_trace_hook() {
  static std::atomic<ParseTraceFn> hook{nullptr};
  return hook;
}

inline void trace_parse(ParseEvent event, std::size_t pos) {
  if (ParseTraceFn fn = parse_trace_hook().load(std::memory_order_relaxed))
    fn(event, pos);
}

}  // namespace

void set_parse_trace(ParseTraceFn hook) {
  parse_trace_hook().store(hook, std::memory_order_relaxed);
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    skip_whitespace();
    Json value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    trace_parse(ParseEvent::Fail, pos_);
    throw ProtocolError(message + " at byte " + std::to_string(pos_));
  }

  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  char next() {
    if (at_end()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void expect(char c) {
    if (at_end() || text_[pos_] != c)
      fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  void skip_whitespace() {
    while (!at_end()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos_;
      else
        break;
    }
  }

  bool consume_literal(const char* literal) {
    const std::size_t n = std::strlen(literal);
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value() {
    if (at_end()) fail("unexpected end of input");
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) {
          trace_parse(ParseEvent::Literal, pos_);
          return Json(true);
        }
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) {
          trace_parse(ParseEvent::Literal, pos_);
          return Json(false);
        }
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) {
          trace_parse(ParseEvent::Literal, pos_);
          return Json(nullptr);
        }
        fail("invalid literal");
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        // Render non-printable/non-ASCII offenders as hex: the raw byte
        // would make the *error response* invalid UTF-8 (found by the
        // regression corpus — see seed-bom-garbage.txt).
        if (c >= 0x20 && c < 0x7f) {
          fail(std::string("unexpected character '") + c + "'");
        } else {
          char hex[16];
          std::snprintf(hex, sizeof hex, "0x%02x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          fail(std::string("unexpected byte ") + hex);
        }
    }
  }

  Json parse_object() {
    expect('{');
    trace_parse(ParseEvent::Object, pos_);
    Json object = Json::object();
    skip_whitespace();
    if (!at_end() && peek() == '}') {
      ++pos_;
      return object;
    }
    for (;;) {
      skip_whitespace();
      if (at_end() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      trace_parse(ParseEvent::Key, pos_);
      skip_whitespace();
      expect(':');
      skip_whitespace();
      object.set(std::move(key), parse_value());
      skip_whitespace();
      const char c = next();
      if (c == '}') return object;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
  }

  Json parse_array() {
    expect('[');
    trace_parse(ParseEvent::Array, pos_);
    Json array = Json::array();
    skip_whitespace();
    if (!at_end() && peek() == ']') {
      ++pos_;
      return array;
    }
    for (;;) {
      skip_whitespace();
      array.push_back(parse_value());
      skip_whitespace();
      const char c = next();
      if (c == ']') return array;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    while (!at_end() && std::isdigit(static_cast<unsigned char>(peek())))
      ++pos_;
    if (!at_end() && peek() == '.') {
      ++pos_;
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek())))
        ++pos_;
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek())))
        ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || token.empty() ||
        token == "-") {
      pos_ = start;
      fail("malformed number");
    }
    if (errno == ERANGE && !std::isfinite(value)) {
      pos_ = start;
      fail("number out of range");
    }
    trace_parse(ParseEvent::Number, pos_);
    return Json(value);
  }

  /// Validate one UTF-8 sequence starting at pos_ (first byte already known
  /// to be >= 0x80) and append it verbatim.
  void consume_utf8(std::string& out) {
    const unsigned char lead = static_cast<unsigned char>(peek());
    int extra;
    unsigned min_code;
    if ((lead & 0xE0) == 0xC0) {
      extra = 1;
      min_code = 0x80;
    } else if ((lead & 0xF0) == 0xE0) {
      extra = 2;
      min_code = 0x800;
    } else if ((lead & 0xF8) == 0xF0) {
      extra = 3;
      min_code = 0x10000;
    } else {
      fail("invalid UTF-8 lead byte in string");
    }
    unsigned code = lead & (0x3F >> extra);
    const std::size_t start = pos_;
    ++pos_;
    for (int i = 0; i < extra; ++i) {
      if (at_end()) fail("truncated UTF-8 sequence in string");
      const unsigned char cont = static_cast<unsigned char>(peek());
      if ((cont & 0xC0) != 0x80) fail("invalid UTF-8 continuation byte");
      code = (code << 6) | (cont & 0x3F);
      ++pos_;
    }
    if (code < min_code) fail("overlong UTF-8 sequence");
    if (code > 0x10FFFF || (code >= 0xD800 && code <= 0xDFFF))
      fail("invalid UTF-8 code point");
    trace_parse(ParseEvent::Utf8, pos_);
    out.append(text_, start, pos_ - start);
  }

  void append_utf8(unsigned code, std::string& out) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = next();
      value <<= 4;
      if (c >= '0' && c <= '9')
        value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        value |= static_cast<unsigned>(c - 'A' + 10);
      else {
        --pos_;
        fail("invalid \\u escape digit");
      }
    }
    return value;
  }

  std::string parse_string() {
    expect('"');
    trace_parse(ParseEvent::String, pos_);
    std::string out;
    for (;;) {
      if (at_end()) fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(peek());
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\\') {
        ++pos_;
        trace_parse(ParseEvent::Escape, pos_);
        const char esc = next();
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
            unsigned code = parse_hex4();
            if (code >= 0xD800 && code <= 0xDBFF) {
              // High surrogate: must pair with a following \uDC00..\uDFFF.
              if (at_end() || peek() != '\\') fail("unpaired surrogate");
              ++pos_;
              if (at_end() || peek() != 'u') fail("unpaired surrogate");
              ++pos_;
              const unsigned low = parse_hex4();
              if (low < 0xDC00 || low > 0xDFFF) fail("unpaired surrogate");
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else if (code >= 0xDC00 && code <= 0xDFFF) {
              fail("unpaired surrogate");
            }
            append_utf8(code, out);
            break;
          }
          default:
            --pos_;
            fail("invalid escape character");
        }
        continue;
      }
      if (c < 0x20) fail("unescaped control character in string");
      if (c < 0x80) {
        out += static_cast<char>(c);
        ++pos_;
        continue;
      }
      consume_utf8(out);
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

// ---------------------------------------------------------------------------
// Envelope.

Request parse_request(const std::string& line) {
  const Json doc = Json::parse(line);
  if (!doc.is_object()) throw ProtocolError("request must be a JSON object");
  const Json* version = doc.find("v");
  if (!version || !version->is_number() ||
      version->as_number() != static_cast<double>(kProtocolVersion))
    throw ProtocolError("unsupported protocol version (want \"v\":" +
                        std::to_string(kProtocolVersion) + ")");
  Request request;
  request.id = doc.int_or("id", 0);
  const Json* type = doc.find("type");
  if (!type || !type->is_string() || type->as_string().empty())
    throw ProtocolError("request needs a non-empty string \"type\"");
  request.type = type->as_string();
  if (const Json* params = doc.find("params")) {
    if (!params->is_object())
      throw ProtocolError("\"params\" must be an object");
    request.params = *params;
  }
  return request;
}

std::string make_response(long long id, const Json& result) {
  Json envelope = Json::object();
  envelope.set("v", Json(kProtocolVersion));
  envelope.set("id", Json(id));
  envelope.set("ok", Json(true));
  envelope.set("result", result);
  return envelope.dump();
}

std::string make_response_from_payload(long long id,
                                       const std::string& result_payload) {
  // Splice an already-serialized result into a fresh envelope without
  // reparsing it. The id is rendered with format_number, exactly as
  // make_response does through Json::dump(), so for any (id, result) the
  // two functions produce byte-identical frames — the invariant that lets
  // the server cache serialized results.
  std::string out = "{\"v\":";
  out += format_number(static_cast<double>(kProtocolVersion));
  out += ",\"id\":";
  out += format_number(static_cast<double>(id));
  out += ",\"ok\":true,\"result\":";
  out += result_payload;
  out += '}';
  return out;
}

std::string make_error(long long id, const std::string& code,
                       const std::string& message) {
  Json error = Json::object();
  error.set("code", Json(code));
  error.set("message", Json(message));
  Json envelope = Json::object();
  envelope.set("v", Json(kProtocolVersion));
  envelope.set("id", Json(id));
  envelope.set("ok", Json(false));
  envelope.set("error", std::move(error));
  return envelope.dump();
}

Response parse_response(const std::string& line) {
  const Json doc = Json::parse(line);
  if (!doc.is_object()) throw ProtocolError("response must be a JSON object");
  Response response;
  response.id = doc.int_or("id", 0);
  response.ok = doc.at("ok").as_bool();
  if (response.ok) {
    response.result = doc.at("result");
  } else {
    const Json& error = doc.at("error");
    response.error_code = error.at("code").as_string();
    response.error_message = error.string_or("message", "");
  }
  return response;
}

// ---------------------------------------------------------------------------
// Framing.

Frame LineReader::read_line() {
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      // A whole line may land in one recv, so the limit must be enforced
      // here too, not only while accumulating below.
      if (overflowed_ || newline > max_frame_) {
        buffer_.clear();
        overflowed_ = true;
        return {Frame::Status::Overflow, {}};
      }
      Frame frame{Frame::Status::Line, buffer_.substr(0, newline)};
      buffer_.erase(0, newline + 1);
      return frame;
    }
    if (buffer_.size() > max_frame_) {
      // Stop accumulating: the line already exceeds the limit. Drop what we
      // have (keeps memory bounded even against a hostile writer) and report
      // overflow; the connection cannot be resynchronized.
      buffer_.clear();
      overflowed_ = true;
      return {Frame::Status::Overflow, {}};
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      Frame frame{Frame::Status::Eof, buffer_};
      buffer_.clear();
      return frame;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return {Frame::Status::Timeout, {}};
    return {Frame::Status::Error, {}};
  }
}

bool write_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace memstress::server
