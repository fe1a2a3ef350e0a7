#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "server/protocol.hpp"

namespace perfbench {

namespace ms = memstress;

LoadGenerator::LoadGenerator(int port, int connections) {
  for (int c = 0; c < connections; ++c) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw ms::Error("perfbench: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      throw ms::Error("perfbench: connect to the server failed");
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    Conn conn;
    conn.fd = fd;
    conns_.push_back(std::move(conn));
  }
}

LoadGenerator::~LoadGenerator() {
  for (const Conn& c : conns_) ::close(c.fd);
}

namespace {

long long response_id(const std::string& line) {
  const std::size_t at = line.find("\"id\":");
  if (at == std::string::npos || at > 16) return -1;
  return std::strtoll(line.c_str() + at + 5, nullptr, 10);
}

}  // namespace

void LoadGenerator::flush(Conn& c) {
  while (!c.dead && c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      c.dead = true;
    }
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  }
}

std::vector<double> Phase::latency_with_failures_ms() const {
  std::vector<double> all = latency_ms;
  all.insert(all.end(), static_cast<std::size_t>(failed()),
             std::numeric_limits<double>::infinity());
  return all;
}

Phase LoadGenerator::run(const std::vector<Item>& items,
                         const std::vector<std::size_t>& order, double rate,
                         double drain_s, SpanRecorder& spans, std::int64_t parent) {
  return drive(items, order, rate, 0, drain_s, spans, parent);
}

Phase LoadGenerator::run_closed(const std::vector<Item>& items,
                                const std::vector<std::size_t>& order, int window,
                                double drain_s, SpanRecorder& spans, std::int64_t parent) {
  return drive(items, order, 0.0, std::max(1, window), drain_s, spans, parent);
}

Phase LoadGenerator::drive(const std::vector<Item>& items,
                           const std::vector<std::size_t>& order, double rate, int window,
                           double drain_s, SpanRecorder& spans, std::int64_t parent) {
  const std::size_t n = order.size();
  const bool closed = window > 0;
  Phase phase;
  phase.rate = rate;
  phase.first_id = next_id_;
  next_id_ += static_cast<long long>(n);
  phase.late_ms.assign(n, 0.0);
  std::vector<double> latency(n, std::numeric_limits<double>::quiet_NaN());
  std::vector<char> answered(n, 0);
  std::vector<Clock::time_point> sent_at(n);  // due time, open loop
  std::vector<std::pair<std::size_t, std::string>> answers;
  answers.reserve(n);
  std::size_t accounted = 0;

  const double cpu0 = cpu_seconds();
  const double steal0 = steal_seconds();
  const Clock::time_point start =
      Clock::now() + (closed ? Clock::duration::zero() : std::chrono::milliseconds(2));
  const auto interval = std::chrono::duration<double>(closed ? 0.0 : 1.0 / rate);
  const auto due = [&](std::size_t k) {
    return start + std::chrono::duration_cast<Clock::duration>(interval * static_cast<double>(k));
  };
  const auto drain =
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(drain_s));
  // Open loop: drain_s after the last due time. Closed loop: drain_s after
  // the last send or answer.
  Clock::time_point deadline = due(n == 0 ? 0 : n - 1) + drain;
  Clock::time_point last_answer = start;

  // Load shed by a healthy server under overload; any other error is a
  // wrong answer, because the oracle answers every request sent.
  const auto shed = [](const std::string& code) {
    return code == "busy" || code == "shutting_down" || code == "timeout";
  };
  const auto on_line = [&](std::string line, Clock::time_point now) {
    const long long id = response_id(line);
    const long long k = id - phase.first_id;
    if (k < 0 || k >= static_cast<long long>(n) || answered[static_cast<std::size_t>(k)]) {
      if (phase.mismatched++ == 0)
        std::printf("MISMATCH response id %lld answers no outstanding request\n", id);
      ++phase.error_codes["unmatched_response"];
      return;
    }
    const std::size_t i = static_cast<std::size_t>(k);
    answered[i] = 1;
    ++accounted;
    last_answer = now;
    if (closed) deadline = now + drain;
    const Item& item = items[order[i]];
    if (spans.enabled()) spans.add("request." + item.type, parent, id, sent_at[i], now);
    const std::size_t ok_at = line.find(",\"ok\":");
    if (ok_at == std::string::npos || line.compare(ok_at, 10, ",\"ok\":true") != 0) {
      std::string code = "unparsable";
      try {
        code = ms::server::parse_response(line).error_code;
      } catch (const ms::Error&) {
      }
      ++phase.error_codes[code];
      if (shed(code)) {
        ++phase.errors;
      } else if (phase.mismatched++ == 0) {
        std::printf("MISMATCH %s response %lld is error '%s'; MemstressService::handle "
                    "answers it\n", item.type.c_str(), id, code.c_str());
      }
      return;
    }
    ++phase.ok;
    latency[i] = 1e3 * seconds_between(sent_at[i], now);
    answers.emplace_back(i, std::move(line));
  };

  std::vector<pollfd> fds(conns_.size());
  std::size_t next = 0;
  char buffer[1 << 16];
  while (accounted < n) {
    Clock::time_point now = Clock::now();
    while (next < n &&
           (closed ? next - accounted < static_cast<std::size_t>(window) : due(next) <= now)) {
      Conn& c = conns_[next % conns_.size()];
      c.out += request_line(items[order[next]], phase.first_id + static_cast<long long>(next));
      c.out += '\n';
      if (closed) {
        sent_at[next] = now;
        deadline = now + drain;
      } else {
        sent_at[next] = due(next);
        phase.late_ms[next] = 1e3 * seconds_between(due(next), now);
      }
      ++next;
      ++phase.sent;
    }
    for (Conn& c : conns_) flush(c);
    if ((closed || next >= n) && now >= deadline) break;

    const Clock::time_point wake = !closed && next < n ? due(next) : deadline;
    const auto wait = std::max(Clock::duration::zero(), wake - now);
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(std::chrono::duration_cast<std::chrono::seconds>(wait).count());
    ts.tv_nsec = static_cast<long>((wait - std::chrono::seconds(ts.tv_sec)).count());
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      fds[c].fd = conns_[c].dead ? -1 : conns_[c].fd;
      fds[c].events = static_cast<short>(POLLIN | (conns_[c].out.empty() ? 0 : POLLOUT));
      fds[c].revents = 0;
    }
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Conn& conn = conns_[c];
      while (true) {
        const ssize_t got = ::recv(conn.fd, buffer, sizeof buffer, MSG_DONTWAIT);
        if (got > 0) {
          conn.in.append(buffer, static_cast<std::size_t>(got));
          continue;
        }
        if (got < 0 && errno == EINTR) continue;
        if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) conn.dead = true;
        break;
      }
      now = Clock::now();
      std::size_t begin = 0;
      for (std::size_t nl; (nl = conn.in.find('\n', begin)) != std::string::npos;
           begin = nl + 1)
        on_line(conn.in.substr(begin, nl - begin), now);
      conn.in.erase(0, begin);
    }
  }

  phase.transport = static_cast<long long>(n - accounted);
  phase.wall_s = seconds_between(start, last_answer);
  phase.cpu_s = cpu_seconds() - cpu0;
  phase.steal_s = steal0 < 0.0 ? 0.0 : steal_seconds() - steal0;

  // The byte check, after the phase's clocks stopped.
  for (auto& [i, line] : answers) {
    const Item& item = items[order[i]];
    if (!item.has_expected) {
      phase.unchecked.emplace_back(i, std::move(line));
      continue;
    }
    const long long id = phase.first_id + static_cast<long long>(i);
    if (line != ms::server::make_response_from_payload(id, item.expected)) {
      if (phase.mismatched++ == 0)
        std::printf("MISMATCH %s response %lld differs from MemstressService::handle\n",
                    item.type.c_str(), id);
      --phase.ok;
      latency[i] = std::numeric_limits<double>::quiet_NaN();
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    if (!std::isnan(latency[i])) phase.latency_ms.push_back(latency[i]);
  return phase;
}

}  // namespace perfbench
