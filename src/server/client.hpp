// Blocking client for memstressd: connect, send one NDJSON request per
// call, read the one-line response.
//
// The only piece with policy in it is request()'s retry handling:
//   * "busy" is the server's backpressure signal. The reactor keeps the
//     connection open after an in-flight-cap or queue-depth shed and closes
//     it only after a shed at the max_connections door; request() reconnects
//     either way (the door needs it) and retries with exponential backoff
//     up to ClientConfig::max_retries before surfacing the error.
//   * "idle_timeout" is the farewell the server left on a connection that
//     sat idle past its keep-alive lifetime, read as the answer to the next
//     request. The server read nothing after it, so request() resends once
//     on a fresh connection.
// Every other error response is thrown as ServerError immediately — the
// server already said something structured; retrying would not change it.
#pragma once

#include <string>
#include <vector>

#include "server/protocol.hpp"

namespace memstress::server {

/// An error *response* (ok:false) from the server, carrying the structured
/// code ("busy", "timeout", "bad_request", ...). Transport-level failures
/// (connect refused, read timeout, mid-frame close) throw plain Error.
class ServerError : public Error {
 public:
  ServerError(std::string code, const std::string& message)
      : Error(code + ": " + message), code_(std::move(code)) {}
  const std::string& code() const { return code_; }

 private:
  std::string code_;
};

/// The transport died underneath a call: connect refused, ECONNRESET/EPIPE
/// on send, or the connection closing mid-frame before a full response
/// line arrived. Distinct from a receive *timeout* (plain Error) on
/// purpose — a coordinator treats a lost connection as "worker died,
/// requeue its shards now" while a timeout only means "worker slow, maybe
/// hedge". The client always disconnects before throwing, so the next
/// call reconnects from scratch.
class ConnectionLost : public Error {
 public:
  using Error::Error;
};

struct ClientConfig {
  std::string address = "127.0.0.1";
  int port = 0;
  int timeout_ms = 10000;      ///< connect + per-response receive timeout
  int max_retries = 6;         ///< busy-retry attempts before giving up
  int backoff_initial_ms = 5;  ///< doubles per retry: 5, 10, 20, ...
  int backoff_max_ms = 250;    ///< per-sleep ceiling for the doubling
  /// Hard wall-clock budget for one request() call including every busy
  /// retry and backoff sleep. When the budget would be exceeded the busy
  /// error surfaces instead of another retry — under sustained overload a
  /// caller is throttled, never wedged. 0 disables the cap.
  int retry_budget_ms = 30000;
};

class Client {
 public:
  explicit Client(ClientConfig config);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send `params` as a `type` request and return the result document.
  /// Retries (with reconnect + backoff) while the server answers "busy" and
  /// resends once after a stale "idle_timeout" farewell; throws ServerError
  /// for any other error response and Error for transport failures.
  Json request(const std::string& type, const Json& params = Json::object());

  /// Raw exchange for tests: send exactly `line` (plus the newline) on a
  /// fresh-or-existing connection and return the raw response line. No
  /// retries, no envelope handling.
  std::string roundtrip(const std::string& line);

  /// Pipelining: write every raw `line` back-to-back without waiting, then
  /// collect exactly lines.size() response lines, interleaving sends and
  /// reads so neither side's socket buffer can deadlock the exchange.
  /// Responses are returned **in arrival order**, which the reactor may
  /// permute relative to the requests — correlate by the echoed "id".
  /// The receive timeout applies per unit of progress (any byte moved
  /// resets it), not to the pipeline as a whole. No envelope handling and
  /// no busy retries: the raw response lines (including structured "busy"
  /// sheds) come back as-is.
  std::vector<std::string> pipeline(const std::vector<std::string>& lines);

  /// Drop the connection (the next request reconnects).
  void disconnect();

 private:
  void ensure_connected();
  std::string exchange(const std::string& line);

  ClientConfig config_;
  int fd_ = -1;
  long long next_id_ = 1;
};

}  // namespace memstress::server
