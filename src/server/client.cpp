#include "server/client.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace memstress::server {

Client::Client(ClientConfig config) : config_(std::move(config)) {}

Client::~Client() { disconnect(); }

void Client::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::ensure_connected() {
  if (fd_ >= 0) return;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  require(fd_ >= 0, "Client: socket() failed");

  timeval tv{};
  tv.tv_sec = config_.timeout_ms / 1000;
  tv.tv_usec = (config_.timeout_ms % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.address.c_str(), &addr.sin_addr) != 1) {
    disconnect();
    throw Error("Client: invalid address \"" + config_.address + "\"");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string reason = std::strerror(errno);
    disconnect();
    throw ConnectionLost("Client: cannot connect to " + config_.address + ":" +
                         std::to_string(config_.port) + ": " + reason);
  }
}

std::string Client::exchange(const std::string& line) {
  ensure_connected();
  if (!write_all(fd_, line + "\n")) {
    // EPIPE/ECONNRESET on send: the peer is gone, not slow.
    disconnect();
    throw ConnectionLost("Client: send failed (connection lost)");
  }
  LineReader reader(fd_, kMaxFrameBytes);
  const Frame frame = reader.read_line();
  switch (frame.status) {
    case Frame::Status::Line:
      return frame.text;
    case Frame::Status::Timeout:
      disconnect();
      throw Error("Client: timed out after " +
                  std::to_string(config_.timeout_ms) +
                  " ms waiting for a response");
    case Frame::Status::Eof:
      // The peer closed (possibly mid-frame, short read) before a full
      // response line arrived — a died-while-serving signal.
      disconnect();
      throw ConnectionLost(
          "Client: connection closed before a response arrived");
    default:
      disconnect();
      throw ConnectionLost("Client: receive failed (connection lost)");
  }
}

std::string Client::roundtrip(const std::string& line) {
  return exchange(line);
}

std::vector<std::string> Client::pipeline(const std::vector<std::string>& lines) {
  if (lines.empty()) return {};
  ensure_connected();

  std::string outgoing;
  for (const std::string& line : lines) {
    outgoing += line;
    outgoing += '\n';
  }
  std::size_t sent = 0;

  // Nonblocking for the duration: the whole point of pipelining is that
  // sends and reads interleave, so a blocking send that fills the server's
  // receive window while the server waits for us to drain responses must
  // not deadlock the exchange.
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  struct RestoreFlags {
    int fd;
    int flags;
    ~RestoreFlags() { ::fcntl(fd, F_SETFL, flags); }
  } restore{fd_, flags};

  std::vector<std::string> responses;
  responses.reserve(lines.size());
  std::string incoming;
  const auto fail = [&](const char* what) -> ConnectionLost {
    disconnect();
    return ConnectionLost(std::string("Client: pipeline ") + what +
                          " after " + std::to_string(responses.size()) +
                          " of " + std::to_string(lines.size()) +
                          " responses");
  };

  while (responses.size() < lines.size()) {
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    if (sent < outgoing.size()) pfd.events |= POLLOUT;
    const int ready = ::poll(&pfd, 1, config_.timeout_ms);
    if (ready < 0 && errno == EINTR) continue;
    if (ready == 0) {
      disconnect();
      throw Error("Client: pipeline timed out after " +
                  std::to_string(config_.timeout_ms) + " ms with " +
                  std::to_string(responses.size()) + " of " +
                  std::to_string(lines.size()) + " responses");
    }
    if (ready < 0) throw fail("poll failed");

    if ((pfd.revents & POLLOUT) != 0 && sent < outgoing.size()) {
      const ssize_t n = ::send(fd_, outgoing.data() + sent,
                               outgoing.size() - sent, MSG_NOSIGNAL);
      if (n > 0) sent += static_cast<std::size_t>(n);
      else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
               errno != EINTR)
        throw fail("send failed");
    }
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      char chunk[16384];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n > 0) {
        incoming.append(chunk, static_cast<std::size_t>(n));
        std::size_t newline;
        while (responses.size() < lines.size() &&
               (newline = incoming.find('\n')) != std::string::npos) {
          responses.push_back(incoming.substr(0, newline));
          incoming.erase(0, newline + 1);
        }
      } else if (n == 0) {
        throw fail("connection closed");
      } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        throw fail("receive failed");
      }
    }
  }
  return responses;
}

Json Client::request(const std::string& type, const Json& params) {
  Json envelope = Json::object();
  envelope.set("v", Json(kProtocolVersion));
  envelope.set("id", Json(next_id_++));
  envelope.set("type", Json(type));
  envelope.set("params", params);
  const std::string line = envelope.dump();

  const auto started = std::chrono::steady_clock::now();
  const auto budget_exhausted = [&](int upcoming_sleep_ms) {
    if (config_.retry_budget_ms <= 0) return false;
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - started);
    return elapsed.count() + upcoming_sleep_ms >= config_.retry_budget_ms;
  };
  int backoff_ms = config_.backoff_initial_ms;
  for (int attempt = 0;; ++attempt) {
    Response response = parse_response(exchange(line));
    if (!response.ok && response.error_code == "idle_timeout") {
      // A stale farewell: the server timed this connection out while it sat
      // idle, queued the notice and closed. It only does that with nothing
      // in flight and reads nothing after the notice, so `line` was never
      // seen — resend it once on a fresh connection.
      disconnect();
      response = parse_response(exchange(line));
    }
    if (response.ok) return response.result;
    if (response.error_code == "busy" && attempt < config_.max_retries &&
        !budget_exhausted(backoff_ms)) {
      // Back off, then reconnect and try again: a shed at the
      // max_connections door closed the connection (an in-flight-cap or
      // queue-depth shed leaves it open). The backoff doubles up to
      // backoff_max_ms, and the whole retry loop is bounded by
      // retry_budget_ms — overload throttles the caller, never wedges it.
      disconnect();
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2,
                            std::max(config_.backoff_max_ms,
                                     config_.backoff_initial_ms));
      continue;
    }
    throw ServerError(response.error_code, response.error_message);
  }
}

}  // namespace memstress::server
