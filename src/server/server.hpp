// memstressd transport: a nonblocking edge-triggered epoll reactor serving
// the newline-delimited JSON protocol (server/protocol.hpp) to tens of
// thousands of keep-alive connections without pinning a thread per
// connection.
//
// Threading model:
//   * One reactor thread owns the listen socket, every connection's state
//     machine and all socket I/O. Connections are nonblocking; reads
//     accumulate bytes until a '\n' frame boundary, writes go through a
//     per-connection buffered queue flushed with scatter/gather sendmsg
//     (MSG_NOSIGNAL: a peer resetting mid-flush is an EPIPE, not a
//     process-killing SIGPIPE).
//     No other thread ever touches a socket.
//   * A worker pool pulls *parsed requests* (not connections) from a
//     bounded queue, runs MemstressService::handle_serialized — the compute
//     seam, untouched by the transport — and posts the finished frame back
//     to the reactor through a completion queue + eventfd wakeup. A
//     connection with three pipelined requests in flight occupies three
//     queue slots and zero threads; an idle keep-alive connection occupies
//     nothing but its fd.
//
// Pipelining: a client may write many request frames back-to-back. Each is
// admitted independently and completions are written as they finish —
// responses can arrive OUT OF ORDER relative to the requests and are
// correlated by the echoed "id" (still framed one per line). A client that
// sends one request and waits (server/client.hpp's request()) observes the
// classic in-order behavior.
//
// Admission control (every rejection is structured and echoes the request
// id when the frame parsed):
//   * queue_depth bounds the requests queued for the worker pool across all
//     connections; an admission past the bound answers "busy".
//   * max_inflight bounds one connection's unfinished requests, so a single
//     pipelining client cannot monopolize the queue: over the cap is "busy"
//     too, and well-behaved connections keep being served.
//   * max_connections bounds accepted sockets; over it the acceptor
//     answers "busy" and closes (load-shed before fd exhaustion).
//
// Timeout taxonomy (three independent clocks; see ServerConfig):
//   * request_timeout_ms — the compute deadline. A request whose handler
//     (or queue wait) overruns it answers "timeout".
//   * idle_timeout_ms — keep-alive lifetime. A connection with no requests
//     in flight and no buffered output is told "idle_timeout" and closed;
//     idle clients never occupy a worker, so they cannot starve anything.
//   * write_timeout_ms — the send deadline. Buffered output that makes no
//     progress for this long (a client that stopped reading) closes the
//     connection; per-connection output is additionally capped at
//     max_output_bytes, past which the reactor stops *reading* from that
//     connection (backpressure) until the buffer drains.
//
// Lifecycle: stop() (or SIGINT via serve_until_cancelled()) stops
// accepting, lets every in-flight request finish and deliver its response,
// answers queued-but-unstarted requests with "shutting_down" (echoing their
// ids), flushes every write buffer (still under the write deadline), then
// joins. The memstressd binary exits 130 after a SIGINT drain.
//
// Every handler failure path is structured: bad JSON / envelope -> a
// row-numbered "parse_error"/"bad_request" (prefixed "request:<n>:" with
// the request's ordinal on its connection), deadline overrun -> "timeout",
// injected MEMSTRESS_CHAOS faults -> "injected", library Error ->
// "internal". The connection survives everything except framing damage
// (oversized or truncated frames, where no resynchronization is possible).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/service.hpp"
#include "util/metrics.hpp"

namespace memstress::server {

/// Deployment knobs, each with a MEMSTRESS_* environment override
/// (from_env(); util/env semantics: invalid values warn once and fall back).
struct ServerConfig {
  std::string address = "127.0.0.1";  ///< MEMSTRESS_ADDR
  int port = 0;                       ///< MEMSTRESS_PORT (0 = ephemeral)
  int workers = 0;       ///< MEMSTRESS_SERVER_WORKERS (0 = thread default)
  /// Pending *requests* admitted for the worker pool, across every
  /// connection (MEMSTRESS_QUEUE_DEPTH). Admission past the bound sheds a
  /// structured "busy" instead of queueing without bound.
  int queue_depth = 64;
  int request_timeout_ms = 10000;  ///< MEMSTRESS_REQUEST_TIMEOUT_MS
  /// Keep-alive idle lifetime (MEMSTRESS_IDLE_TIMEOUT_MS). Distinct from
  /// the request deadline: an idle connection costs no worker, so it may
  /// far outlive request_timeout_ms; when it expires the client is told
  /// "idle_timeout" before the close, never silently dropped.
  int idle_timeout_ms = 300000;
  /// Send deadline (MEMSTRESS_WRITE_TIMEOUT_MS): buffered output making no
  /// progress for this long means the client stopped reading; the
  /// connection is closed instead of wedging anything.
  int write_timeout_ms = 5000;
  /// Per-connection unfinished-request cap (MEMSTRESS_MAX_INFLIGHT).
  int max_inflight = 64;
  /// Per-connection buffered-output cap in bytes
  /// (MEMSTRESS_MAX_OUTPUT_BYTES). Past it the reactor pauses reading from
  /// that connection until the buffer drains below half the cap.
  std::size_t max_output_bytes = 8u << 20;
  /// Accepted-connection cap (MEMSTRESS_MAX_CONNECTIONS; 0 = derive from
  /// the fd budget: RLIMIT_NOFILE minus headroom after start() raises the
  /// soft limit to the hard one).
  int max_connections = 0;
  /// SO_SNDBUF for accepted sockets (MEMSTRESS_SEND_BUFFER_BYTES; 0 keeps
  /// the kernel default). Tests and the high-concurrency bench shrink it to
  /// exercise the buffered-write path without megabyte responses.
  int send_buffer_bytes = 0;
  std::size_t max_frame_bytes = kMaxFrameBytes;  ///< per-line byte cap
  /// NDJSON metrics snapshot period when MEMSTRESS_METRICS_STREAM is set
  /// (MEMSTRESS_METRICS_STREAM_MS). The server then also force-enables
  /// metrics — a stream of empty reports helps nobody.
  int metrics_stream_ms = 1000;
  /// Result-cache entries (MEMSTRESS_CACHE_ENTRIES, 0 disables the cache).
  int cache_entries = 1024;
  /// Bounded bind retry for EADDRINUSE on a pinned port
  /// (MEMSTRESS_BIND_RETRIES / MEMSTRESS_BIND_RETRY_MS). A restart can race
  /// the kernel's release of the old listener even with SO_REUSEADDR (the
  /// old fd may still be closing, or a previous process just exited);
  /// start() retries the bind every bind_retry_ms up to bind_retries times
  /// — warning once, not per attempt — before giving up. Ephemeral ports
  /// (port == 0) never retry: a fresh bind cannot collide with itself.
  int bind_retries = 20;
  int bind_retry_ms = 50;

  static ServerConfig from_env();

  /// The ServiceInfo slice of this configuration, for constructing the
  /// MemstressService the server will front.
  ServiceInfo service_info() const {
    return ServiceInfo{workers, queue_depth, cache_entries};
  }
};

/// Raise RLIMIT_NOFILE's soft limit toward `want` (capped at the hard
/// limit) and return the resulting soft limit. Callers that need a known fd
/// budget — the server at start(), bench_server --connections — check the
/// return value and report a clear "fd budget short" error instead of
/// failing later with EMFILE.
std::size_t ensure_fd_budget(std::size_t want);

class Server {
 public:
  Server(ServerConfig config, std::shared_ptr<const MemstressService> service);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + spawn the reactor and worker pool. Throws Error when
  /// the address cannot be bound.
  void start();

  /// The actually bound port (resolves config.port == 0).
  int port() const { return port_; }
  const ServerConfig& config() const { return config_; }

  /// Graceful shutdown; safe to call twice. Drains as described above.
  void stop();

  /// Block until the process-wide SIGINT token trips, then stop(). The
  /// caller (memstressd) turns that into exit code 130.
  void serve_until_cancelled();

 private:
  using Clock = std::chrono::steady_clock;

  /// One parsed request handed from the reactor to the worker pool.
  struct Task {
    int fd = -1;
    std::uint64_t conn_id = 0;  ///< generation guard against fd reuse
    Request request;
    long long line_number = 0;
    Clock::time_point deadline;
  };

  /// One finished frame handed back from a worker to the reactor.
  struct Completion {
    int fd = -1;
    std::uint64_t conn_id = 0;
    std::string frame;  ///< response line, without the trailing '\n'
  };

  /// Bounded MPMC handoff between the reactor and the worker pool.
  /// try_push never blocks (a full or closed queue returns false — the
  /// load-shed signal); pop blocks until a task arrives or the queue is
  /// closed and drained.
  class TaskQueue {
   public:
    explicit TaskQueue(std::size_t capacity) : capacity_(capacity) {}
    bool try_push(Task task);
    std::optional<Task> pop();
    void close();

   private:
    mutable std::mutex mutex_;
    std::condition_variable ready_;
    std::deque<Task> items_;
    std::size_t capacity_;
    bool closed_ = false;
  };

  /// Per-connection state machine; owned and touched by the reactor thread
  /// only.
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    std::string read_buffer;
    std::size_t scan_from = 0;  ///< resume point for the newline scan
    std::deque<std::string> write_queue;
    std::size_t write_offset = 0;  ///< sent bytes of write_queue.front()
    std::size_t buffered_bytes = 0;
    int in_flight = 0;
    long long line_number = 0;
    Clock::time_point last_activity;
    Clock::time_point write_deadline = Clock::time_point::max();
    bool want_write = false;   ///< EPOLLOUT currently armed
    bool paused_read = false;  ///< output cap reached; not reading
    bool eof_seen = false;     ///< no more requests; close once drained
  };

  void reactor_loop();
  void worker_loop();
  std::string execute(const Task& task) const;

  // Reactor-thread helpers. Every helper that can reach
  // destroy_connection — a flush hitting EPIPE, a drained close — returns
  // false when the connection was destroyed and true while `conn` is still
  // safe to touch. Callers must stop using the reference the moment they
  // see false; only destroy_connection itself is void, and nothing may
  // touch the connection after calling it.
  void accept_ready();
  bool connection_readable(Connection& conn);
  bool process_read_buffer(Connection& conn);
  bool handle_line(Connection& conn, const std::string& line);
  bool enqueue_frame(Connection& conn, std::string frame);
  bool flush_writes(Connection& conn);
  void update_write_interest(Connection& conn, bool want);
  void apply_completions();
  void sweep_timers(Clock::time_point now);
  void destroy_connection(Connection& conn);
  bool maybe_close_drained(Connection& conn);

  bool stopping() const;
  void wake_reactor();

  ServerConfig config_;
  std::shared_ptr<const MemstressService> service_;
  TaskQueue queue_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> workers_done_{false};
  mutable std::atomic<std::uint64_t> request_counter_{0};
  std::uint64_t next_conn_id_ = 1;
  int total_inflight_ = 0;  ///< reactor-thread view, admissions minus done
  std::size_t effective_max_connections_ = 0;
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;

  std::mutex completions_mutex_;
  std::vector<Completion> completions_;

  std::thread reactor_;
  std::vector<std::thread> workers_;
  std::mutex stop_mutex_;  ///< serializes stop() against itself
  /// Periodic NDJSON metrics emitter; null unless MEMSTRESS_METRICS_STREAM
  /// (or metrics::set_stream_target) configured a target before start().
  std::unique_ptr<metrics::SnapshotStreamer> metrics_streamer_;
};

}  // namespace memstress::server
