// The copift_serve core: accept loop, fair request queue, batch scheduler
// and graceful shutdown, tying the net / protocol / cache layers onto the
// existing SimEngine pool.
//
// Threading model:
//   - one accept thread (poll on listener + wake pipe),
//   - one reader thread per connection (parses line-delimited requests;
//     answers health/stats inline so observability stays responsive while
//     sweeps run; enqueues run requests),
//   - one scheduler thread that drains the queue in *epochs*: all requests
//     queued at that moment are ordered round-robin across clients, their
//     grid points are resolved against the ResultCache (deduping identical
//     points within and across requests), and the remaining misses run as a
//     single SimEngine::parallel_for batch. Responses — including per-point
//     progress events — stream back as entries complete.
//
// Shutdown: request_shutdown() is async-signal-safe (atomic flag + self-pipe
// write). The listener closes, readers stop consuming input, the scheduler
// drains every queued request and flushes every pending response, then all
// threads join. request_abort() additionally fires the engine CancelToken so
// in-flight sweeps stop between grid points; requests with unfinished points
// then receive error events instead of silently vanishing.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "serve/cache.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"

namespace copift::serve {

struct ServerConfig {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (see Server::port()).
  std::uint16_t port = 0;
  /// SimEngine worker threads; 0 = hardware concurrency.
  unsigned engine_threads = 0;
  /// ResultCache capacity (completed grid points kept resident).
  std::size_t cache_entries = 4096;
  /// Close connections idle longer than this; <= 0 disables the timeout.
  int idle_timeout_ms = 120000;
  /// Reject run requests expanding to more grid points than this.
  std::size_t max_grid_points = 65536;
  /// Reject request lines longer than this (protocol violation).
  std::size_t max_line_bytes = 1 << 20;
  /// Persist the ResultCache here: reload at start(), write back after the
  /// shutdown drain in wait(). Empty disables persistence. A missing file is
  /// a fresh start; a stale or corrupt one logs a warning and starts empty.
  std::string cache_file;
};

struct ServerStats {
  std::uint64_t uptime_ms = 0;
  std::uint64_t connections_accepted = 0;
  std::uint64_t active_connections = 0;
  std::uint64_t requests_received = 0;  // run requests accepted into the queue
  std::uint64_t requests_served = 0;    // result events sent
  std::uint64_t requests_failed = 0;    // error events sent for run requests
  std::uint64_t inflight = 0;           // queued or currently scheduled
  std::uint64_t points_requested = 0;   // grid points across all run requests
  std::uint64_t points_simulated = 0;   // points that actually ran a simulation
  CacheStats cache;
};

class Server {
 public:
  explicit Server(ServerConfig config = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen and spawn the accept and scheduler threads.
  void start();

  /// The bound TCP port (the actual one when config.port was 0).
  [[nodiscard]] std::uint16_t port() const;

  /// Resolved SimEngine worker count (>= 1; includes the scheduler thread's
  /// own participation in each batch).
  [[nodiscard]] unsigned engine_threads() const noexcept { return engine_.threads(); }

  /// Graceful shutdown: stop accepting, drain queued sweeps, flush every
  /// pending response. Async-signal-safe (atomic store + pipe write).
  void request_shutdown() noexcept;
  /// Shutdown + cancel the in-flight engine batch between grid points.
  /// Async-signal-safe.
  void request_abort() noexcept;

  /// Block until every thread has exited and every response is flushed.
  void wait();

  [[nodiscard]] ServerStats stats() const;

 private:
  struct Client {
    explicit Client(int fd) : conn(fd) {}
    std::uint64_t id = 0;
    Connection conn;
    std::uint64_t next_seq = 0;  // per-client request counter (reader thread only)
  };

  struct PendingRequest {
    std::shared_ptr<Client> client;
    Request request;
    std::vector<engine::ParamGrid> grids;  // one per workload (request_grid)
    std::size_t points = 0;                // total over the grids
    std::uint64_t client_seq = 0;  // fairness: round-robin key across clients
  };

  void accept_loop();
  void reader_loop(std::shared_ptr<Client> client);
  void scheduler_loop();
  void run_epoch(std::vector<PendingRequest> epoch);
  bool handle_line(const std::shared_ptr<Client>& client, const std::string& line);
  [[nodiscard]] std::string stats_json(std::uint64_t id, const char* event) const;
  void load_cache_file();
  void save_cache_file();

  ServerConfig config_;
  engine::SimEngine engine_;
  ResultCache cache_;
  std::unique_ptr<Listener> listener_;
  WakePipe wake_;

  std::atomic<bool> shutdown_{false};
  std::atomic<bool> cache_saved_{false};  // wait() persists at most once
  engine::CancelToken cancel_;
  std::chrono::steady_clock::time_point start_time_{};

  /// A per-connection reader thread plus its exit flag, so the accept loop
  /// can reap finished readers instead of accumulating joinable threads for
  /// the lifetime of the daemon.
  struct Reader {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  std::thread accept_thread_;
  std::thread scheduler_thread_;
  std::mutex readers_mutex_;
  std::vector<Reader> reader_threads_;  // guarded by readers_mutex_
  std::atomic<std::uint64_t> active_readers_{0};

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<PendingRequest> queue_;  // guarded by queue_mutex_

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> active_connections_{0};
  std::atomic<std::uint64_t> requests_received_{0};
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> requests_failed_{0};
  std::atomic<std::uint64_t> inflight_{0};
  std::atomic<std::uint64_t> points_requested_{0};
  std::atomic<std::uint64_t> points_simulated_{0};
};

}  // namespace copift::serve
