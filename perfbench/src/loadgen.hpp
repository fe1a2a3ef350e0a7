// The benchmark's load generator: one thread over a few pipelined
// loopback connections. Open loop, request k of a phase is due at
// start + k / rate whatever the server does; its latency counts from that
// due time, so a stall also delays every request queued behind it, and the
// generator's own lateness is recorded per request. Closed loop, a fixed
// number of requests is kept outstanding and the phase lasts as long as the
// server takes to answer them all.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// One completed phase of open-loop traffic.
struct Phase {
  double rate = 0.0;
  long long sent = 0;
  long long ok = 0;
  long long errors = 0;      ///< load shed: busy, shutting_down, timeout
  long long transport = 0;   ///< no response before the drain deadline
  /// Responses that differ from MemstressService::handle's, including any
  /// other error: the oracle answers every request the benchmark sends.
  long long mismatched = 0;
  std::map<std::string, long long> error_codes;
  std::vector<double> latency_ms;  ///< successful requests, in send order
  std::vector<double> late_ms;     ///< send lateness (0 in closed loop)
  double wall_s = 0.0;             ///< first send or due time to last response
  double cpu_s = 0.0;
  double steal_s = 0.0;            ///< host steal while the phase ran
  /// Response lines whose expected payload was not known at send time
  /// (serve_cold), keyed by position in the phase; checked afterwards.
  std::vector<std::pair<std::size_t, std::string>> unchecked;
  long long first_id = 0;

  long long failed() const { return errors + transport + mismatched; }

  /// Latencies with every failed request counted as infinitely slow, for
  /// percentiles that a fast error must not improve.
  std::vector<double> latency_with_failures_ms() const;

  /// True when the host stole more than 1% of the phase's CPU capacity
  /// (and more than two 10 ms ticks): the phase measured other guests.
  bool disturbed(int threads) const {
    return steal_s > std::max(0.02, 0.01 * wall_s * threads);
  }
};

class LoadGenerator {
 public:
  /// Connects `connections` sockets to the server on loopback `port`.
  LoadGenerator(int port, int connections);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Sends items[order[k]] at start + k / rate (open loop) and collects the
  /// responses, waiting at most `drain_s` after the last send. Responses are
  /// byte-checked after the last one arrived, off the send path and outside
  /// the phase's wall and CPU time; those whose item has no expected payload
  /// yet are kept in Phase::unchecked.
  Phase run(const std::vector<Item>& items, const std::vector<std::size_t>& order,
            double rate, double drain_s, SpanRecorder& spans, std::int64_t parent);

  /// Closed loop: keeps `window` requests outstanding (spread round-robin
  /// over the connections) until items[order[...]] are all answered, waiting
  /// at most `drain_s` for any one response.
  Phase run_closed(const std::vector<Item>& items, const std::vector<std::size_t>& order,
                   int window, double drain_s, SpanRecorder& spans, std::int64_t parent);

 private:
  Phase drive(const std::vector<Item>& items, const std::vector<std::size_t>& order,
              double rate, int window, double drain_s, SpanRecorder& spans,
              std::int64_t parent);

  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    bool dead = false;
  };

  void flush(Conn& c);
  std::vector<Conn> conns_;
  long long next_id_ = 1;
};

}  // namespace perfbench
