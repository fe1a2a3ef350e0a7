// memstressd wire protocol: newline-delimited JSON with a versioned
// envelope.
//
// One frame = one line = one complete JSON document; the terminating '\n' is
// the frame boundary and frames longer than the configured limit are a
// protocol error (there is no way to resynchronize inside an unbounded
// line, so the connection closes after the structured error response).
//
//   request:  {"v":1,"id":7,"type":"coverage","params":{...}}
//   response: {"v":1,"id":7,"ok":true,"result":{...}}
//             {"v":1,"id":7,"ok":false,"error":{"code":"busy","message":"..."}}
//   shards:   the distributed request types `characterize_range` and
//             `study_shard` (see server/shard_codec.hpp for the spec/config
//             documents) execute one shard of the canonical grid or study
//             population and return positional verdicts/masks; they are
//             dispatched by the coordinator (server/coordinator.hpp), never
//             cached, and byte-deterministic like everything else.
//
// Everything here is deterministic: Json::dump() emits objects in insertion
// order with a fixed number format, so a payload serialized twice — or once
// by the server and once by a test calling the library directly — is
// byte-identical. Parse errors carry the byte offset, and the server
// prefixes them with the request's ordinal on the connection
// ("request:3: ..."), the same row-numbered style as DetectabilityDb CSV
// errors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace memstress::server {

/// Envelope version spoken by this build. A request with any other "v" is
/// answered with code "unsupported_version".
inline constexpr long long kProtocolVersion = 1;

/// Default per-frame byte limit (request and response lines alike).
/// ServerConfig can lower it; tests do, to exercise the overflow path
/// without megabyte writes.
inline constexpr std::size_t kMaxFrameBytes = 1 << 20;

/// Malformed wire data: JSON syntax errors, invalid UTF-8, envelope
/// violations, oversized frames. Maps to the "bad_request"/"parse_error"
/// response codes.
class ProtocolError : public Error {
 public:
  explicit ProtocolError(const std::string& what) : Error(what) {}
};

// ---------------------------------------------------------------------------
// Json: a minimal self-contained JSON document model.

class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  /// Object members keep insertion order so dump() is deterministic.
  using Member = std::pair<std::string, Json>;

  Json() = default;
  Json(std::nullptr_t) {}
  Json(bool value) : type_(Type::Bool), bool_(value) {}
  Json(double value) : type_(Type::Number), number_(value) {}
  Json(int value) : Json(static_cast<double>(value)) {}
  Json(long value) : Json(static_cast<double>(value)) {}
  Json(long long value) : Json(static_cast<double>(value)) {}
  Json(std::size_t value) : Json(static_cast<double>(value)) {}
  Json(const char* value) : type_(Type::String), string_(value) {}
  Json(std::string value) : type_(Type::String), string_(std::move(value)) {}

  static Json array() {
    Json j;
    j.type_ = Type::Array;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::Object;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_number() const { return type_ == Type::Number; }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  /// Typed accessors throw ProtocolError on a type mismatch so handler code
  /// can validate params by just reading them.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Json>& items() const;
  const std::vector<Member>& members() const;

  /// Array append.
  void push_back(Json value);

  /// Object field append (no duplicate check; last one wins on lookup like
  /// every mainstream parser).
  void set(std::string key, Json value);

  /// Object lookup: null when missing.
  const Json* find(const std::string& key) const;
  /// Object lookup with a ProtocolError naming the missing key.
  const Json& at(const std::string& key) const;

  /// Member with a fallback when the key is absent (type-checked when
  /// present).
  double number_or(const std::string& key, double fallback) const;
  long long int_or(const std::string& key, long long fallback) const;
  std::string string_or(const std::string& key,
                        const std::string& fallback) const;

  /// Compact deterministic serialization (insertion order, "%.17g"-style
  /// shortest-round-trip numbers, integral doubles without an exponent).
  std::string dump() const;

  /// Strict parse of exactly one document (trailing non-whitespace is an
  /// error). Errors carry the byte offset; string contents are validated as
  /// UTF-8.
  static Json parse(const std::string& text);

 private:
  Type type_ = Type::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<Member> object_;
};

/// The fixed number rendering used by dump(): integral values in
/// [-2^53, 2^53] print as integers, everything else as %.17g. Exposed so
/// tests and the bench can pin the format.
std::string format_number(double value);

// ---------------------------------------------------------------------------
// Parser instrumentation seam.
//
// The coverage-guided fuzzer (tests/fuzz/) needs a signal for "this input
// drove the parser somewhere new". When a build has SanitizerCoverage it
// uses edge coverage; otherwise it installs this hook and buckets on the
// (event, position) pairs the parser reports. Uninstalled (the production
// state) the seam costs one relaxed atomic load per structural event.

/// One structural step inside Json::parse().
enum class ParseEvent : int {
  Object = 0,   ///< entered an object
  Key,          ///< finished an object key
  Array,        ///< entered an array
  String,       ///< entered a string value
  Escape,       ///< decoded a backslash escape
  Utf8,         ///< validated a multi-byte UTF-8 sequence
  Number,       ///< parsed a number token
  Literal,      ///< parsed true/false/null
  Fail,         ///< about to throw a ProtocolError
};

using ParseTraceFn = void (*)(ParseEvent event, std::size_t pos);

/// Install (or with nullptr remove) the process-wide parse trace hook. The
/// hook must be cheap and reentrant-safe; it runs inside the parser.
void set_parse_trace(ParseTraceFn hook);

// ---------------------------------------------------------------------------
// Envelope.

struct Request {
  long long id = 0;
  std::string type;
  Json params = Json::object();
};

/// Parse one request line. Throws ProtocolError for JSON or envelope
/// violations; the caller prefixes the message with the connection-local
/// request ordinal.
Request parse_request(const std::string& line);

/// Serialize a success / error response (no trailing newline; the framing
/// layer appends it).
std::string make_response(long long id, const Json& result);
std::string make_error(long long id, const std::string& code,
                       const std::string& message);

/// Splice an already-serialized result payload (the Json::dump() of the
/// result) into a success envelope. Byte-identical to
/// make_response(id, result) for result_payload == result.dump() — the
/// serving result cache stores payloads and rebuilds frames with this.
std::string make_response_from_payload(long long id,
                                       const std::string& result_payload);

/// Decoded response, as the client sees it.
struct Response {
  long long id = 0;
  bool ok = false;
  Json result;          ///< valid when ok
  std::string error_code;
  std::string error_message;
};

/// Parse a response line (throws ProtocolError on malformed data).
Response parse_response(const std::string& line);

// ---------------------------------------------------------------------------
// Framing over a socket / pipe fd.

/// Outcome of one read_line() call.
struct Frame {
  enum class Status {
    Line,      ///< `text` holds one complete line (without the '\n')
    Eof,       ///< orderly close; `text` holds any unterminated trailing
               ///< bytes (a truncated frame when nonempty)
    Overflow,  ///< the line exceeded the limit; connection unusable
    Timeout,   ///< no data before the socket's receive timeout
    Error,     ///< read error (ECONNRESET and friends)
  };
  Status status = Status::Error;
  std::string text;
};

/// Buffered reader that cuts '\n'-terminated frames from an fd and enforces
/// the frame-size limit while reading (an oversized line is rejected after
/// `max_frame` bytes, not buffered in full).
class LineReader {
 public:
  explicit LineReader(int fd, std::size_t max_frame = kMaxFrameBytes)
      : fd_(fd), max_frame_(max_frame) {}

  Frame read_line();

 private:
  int fd_;
  std::size_t max_frame_;
  std::string buffer_;
  bool overflowed_ = false;
};

/// Write the whole buffer (handles short writes; suppresses SIGPIPE).
/// Returns false on any write error.
bool write_all(int fd, const std::string& data);

}  // namespace memstress::server
