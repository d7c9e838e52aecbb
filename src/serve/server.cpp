#include "serve/server.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sys/socket.h>
#include <sys/time.h>
#include <unordered_map>

namespace copift::serve {

namespace {

std::string event_prefix(std::uint64_t id, const char* event) {
  return "{\"id\":" + std::to_string(id) + ",\"event\":\"" + event + "\"";
}

std::string error_event(std::uint64_t id, std::string_view message) {
  std::string out = event_prefix(id, "error") + ",\"message\":";
  Json::append_quoted(out, message);
  out += '}';
  return out;
}

/// Best-effort id recovery from a line that failed full request validation,
/// so the client can still correlate the error event.
std::uint64_t peek_id(const std::string& line) {
  try {
    const Json doc = Json::parse(line);
    if (doc.is_object()) {
      if (const Json* id = doc.find("id"); id != nullptr) return id->as_u64();
    }
  } catch (const Error&) {
  }
  return 0;
}

std::string describe(const ResultKey& key) {
  return key.workload + "/" + workload::variant_name(static_cast<workload::Variant>(key.variant)) +
         " n=" + std::to_string(key.n) + " block=" + std::to_string(key.block) +
         " cores=" + std::to_string(key.cores) + " tile=" + std::to_string(key.tile) +
         " seed=" + std::to_string(key.seed);
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(config), engine_(config.engine_threads), cache_(config.cache_entries) {}

Server::~Server() {
  request_shutdown();
  wait();
}

void Server::start() {
  load_cache_file();
  listener_ = std::make_unique<Listener>(config_.port);
  start_time_ = std::chrono::steady_clock::now();
  accept_thread_ = std::thread([this] { accept_loop(); });
  scheduler_thread_ = std::thread([this] { scheduler_loop(); });
}

std::uint16_t Server::port() const {
  if (listener_ == nullptr) throw Error("Server::port called before start()");
  return listener_->port();
}

void Server::request_shutdown() noexcept {
  shutdown_.store(true, std::memory_order_relaxed);
  wake_.wake();
}

void Server::request_abort() noexcept {
  cancel_.request_stop();
  request_shutdown();
}

void Server::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard lock(readers_mutex_);
    for (auto& reader : reader_threads_) {
      if (reader.thread.joinable()) reader.thread.join();
    }
    reader_threads_.clear();
  }
  if (scheduler_thread_.joinable()) scheduler_thread_.join();
  // Every queued sweep has drained and published by now, so the snapshot is
  // complete: a restart with the same --cache-file answers repeats instantly.
  if (!cache_saved_.exchange(true)) save_cache_file();
}

// --- accept / read ----------------------------------------------------------

void Server::accept_loop() {
  std::uint64_t next_client_id = 1;
  while (!shutdown_.load(std::memory_order_relaxed)) {
    const int fd = listener_->accept_client(wake_.read_fd());
    if (fd < 0) continue;  // woken (shutdown) or transient accept failure
    // Bound blocking writes to unresponsive clients so shutdown can always
    // drain: a peer that stops reading for 30s forfeits its responses.
    timeval tv{30, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    auto client = std::make_shared<Client>(fd);
    client->id = next_client_id++;
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    active_readers_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(readers_mutex_);
    // Reap readers whose connection already ended (their done flag is set, so
    // join() returns immediately); without this a long-running daemon keeps
    // one joinable thread's stack and descriptor per connection ever served.
    for (auto it = reader_threads_.begin(); it != reader_threads_.end();) {
      if (it->done->load(std::memory_order_acquire)) {
        it->thread.join();
        it = reader_threads_.erase(it);
      } else {
        ++it;
      }
    }
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::thread thread([this, client = std::move(client), done]() mutable {
      reader_loop(std::move(client));
      done->store(true, std::memory_order_release);
    });
    reader_threads_.push_back(Reader{std::move(thread), std::move(done)});
  }
  listener_->close();
  // The scheduler's exit predicate watches shutdown_ + active_readers_; kick
  // it from thread context (a signal handler cannot notify a cv).
  queue_cv_.notify_all();
}

void Server::reader_loop(std::shared_ptr<Client> client) {
  std::string line;
  while (!shutdown_.load(std::memory_order_relaxed)) {
    const auto status = client->conn.read_line(line, wake_.read_fd(), config_.idle_timeout_ms,
                                               config_.max_line_bytes);
    if (status == Connection::ReadStatus::kLine) {
      if (line.empty()) continue;
      if (!handle_line(client, line)) break;
      continue;
    }
    if (status == Connection::ReadStatus::kIdleTimeout) {
      client->conn.send_line(error_event(
          0, "closing connection: idle for " + std::to_string(config_.idle_timeout_ms) + " ms"));
    } else if (status == Connection::ReadStatus::kOverflow) {
      client->conn.send_line(error_event(
          0, "request line exceeds " + std::to_string(config_.max_line_bytes) + " bytes"));
    }
    break;  // closed, idle, overflow or wake: stop consuming input
  }
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
  active_readers_.fetch_sub(1, std::memory_order_relaxed);
  // Queued requests from this client keep the Connection alive through their
  // shared_ptr; their responses still flush before the socket closes.
  queue_cv_.notify_all();
}

bool Server::handle_line(const std::shared_ptr<Client>& client, const std::string& line) {
  Request request;
  try {
    request = parse_request(line, config_.max_grid_points);
  } catch (const std::exception& e) {
    client->conn.send_line(error_event(peek_id(line), e.what()));
    return true;  // validation errors are per-request; the connection survives
  }

  if (request.type == Request::Type::kHealth || request.type == Request::Type::kStats) {
    return client->conn.send_line(
        stats_json(request.id, request.type == Request::Type::kHealth ? "health" : "stats"));
  }

  PendingRequest pending;
  pending.client = client;
  for (const auto& name : request.workloads) {
    pending.points += pending.grids.emplace_back(request_grid(request, name)).size();
  }
  pending.request = std::move(request);
  pending.client_seq = client->next_seq++;

  // Send 'accepted' before the request becomes visible to the scheduler:
  // once it is enqueued the sweep can complete and its 'result' line go out
  // on this connection, and the documented accepted -> progress -> result
  // order must hold. A failed send means the client is gone, so the request
  // is dropped instead of simulated for nobody.
  const std::string accepted = event_prefix(pending.request.id, "accepted") +
                               ",\"points\":" + std::to_string(pending.points) + "}";
  if (!client->conn.send_line(accepted)) return false;

  requests_received_.fetch_add(1, std::memory_order_relaxed);
  points_requested_.fetch_add(pending.points, std::memory_order_relaxed);
  inflight_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lock(queue_mutex_);
    queue_.push_back(std::move(pending));
  }
  queue_cv_.notify_all();
  return true;
}

// --- scheduling -------------------------------------------------------------

void Server::scheduler_loop() {
  while (true) {
    std::vector<PendingRequest> epoch;
    {
      std::unique_lock lock(queue_mutex_);
      // The 100 ms timeout is a shutdown fallback: request_shutdown() runs in
      // signal context and cannot notify the cv itself.
      queue_cv_.wait_for(lock, std::chrono::milliseconds(100), [&] {
        return !queue_.empty() || shutdown_.load(std::memory_order_relaxed);
      });
      if (queue_.empty()) {
        if (shutdown_.load(std::memory_order_relaxed) &&
            active_readers_.load(std::memory_order_relaxed) == 0) {
          return;  // drained: nothing queued and nobody left to enqueue
        }
        continue;
      }
      epoch.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(queue_.end()));
      queue_.clear();
    }
    // Fair scheduling across clients: order the epoch so every client's
    // first queued request runs before any client's second one (stable, so
    // arrival order breaks ties).
    std::stable_sort(epoch.begin(), epoch.end(),
                     [](const PendingRequest& a, const PendingRequest& b) {
                       return a.client_seq < b.client_seq;
                     });
    run_epoch(std::move(epoch));
  }
}

void Server::run_epoch(std::vector<PendingRequest> epoch) {
  struct ReqState {
    PendingRequest* req = nullptr;
    std::vector<std::pair<ResultKey, ResultCache::EntryPtr>> points;
    std::atomic<std::uint64_t> done{0};
    std::uint64_t hits = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t owned = 0;
    std::chrono::steady_clock::time_point t0;
  };
  struct Job {
    ResultKey key;
    engine::GridPoint point;
    bool verify = true;
    ResultCache::EntryPtr entry;
  };

  std::vector<std::unique_ptr<ReqState>> states;
  std::vector<std::vector<Job>> jobs_per_request;
  // Progress subscribers: every request (same-epoch) waiting on an entry.
  std::unordered_map<ResultCache::Entry*, std::vector<ReqState*>> subscribers;

  for (auto& pending : epoch) {
    auto state = std::make_unique<ReqState>();
    state->req = &pending;
    state->t0 = std::chrono::steady_clock::now();
    jobs_per_request.emplace_back();
    const bool verify = pending.request.verify;
    state->points.reserve(pending.points);
    for (const engine::ParamGrid& grid : pending.grids) {
      for (std::size_t i = 0; i < grid.size(); ++i) {
        engine::GridPoint point = grid.point(i);
        ResultKey key = result_key(point, verify);
        ResultCache::EntryPtr entry;
        switch (cache_.lookup_or_claim(key, entry)) {
          case ResultCache::Claim::kHit:
            ++state->hits;
            state->done.fetch_add(1, std::memory_order_relaxed);
            break;
          case ResultCache::Claim::kOwned:
            ++state->owned;
            subscribers[entry.get()].push_back(state.get());
            jobs_per_request.back().push_back(Job{key, std::move(point), verify, entry});
            break;
          case ResultCache::Claim::kShared:
            // The owner is earlier in this same epoch (the scheduler fully
            // drains each epoch before starting the next, so no entry stays
            // in flight across epochs).
            ++state->coalesced;
            subscribers[entry.get()].push_back(state.get());
            break;
        }
        state->points.emplace_back(std::move(key), std::move(entry));
      }
    }
    states.push_back(std::move(state));
  }

  // Interleave the owned jobs round-robin across requests so a small request
  // queued behind a huge sweep still sees its points (and progress events)
  // early in the batch.
  std::vector<Job> jobs;
  std::size_t widest = 0;
  for (const auto& per_req : jobs_per_request) widest = std::max(widest, per_req.size());
  for (std::size_t k = 0; k < widest; ++k) {
    for (auto& per_req : jobs_per_request) {
      if (k < per_req.size()) jobs.push_back(std::move(per_req[k]));
    }
  }

  const auto notify_progress = [&](ResultCache::Entry* entry) {
    const auto it = subscribers.find(entry);
    if (it == subscribers.end()) return;
    for (ReqState* state : it->second) {
      const std::uint64_t done = state->done.fetch_add(1, std::memory_order_relaxed) + 1;
      const std::uint64_t total = state->points.size();
      if (state->req->request.progress && total > 1 && done < total) {
        state->req->client->conn.send_line(event_prefix(state->req->request.id, "progress") +
                                           ",\"done\":" + std::to_string(done) +
                                           ",\"total\":" + std::to_string(total) + "}");
      }
    }
  };

  if (!jobs.empty()) {
    engine::ProgramCache programs;  // assemble-once within the epoch
    engine_.parallel_for(
        jobs.size(),
        [&](std::size_t i) {
          Job& job = jobs[i];
          try {
            auto row = engine::run_point(job.point, job.verify, programs);
            points_simulated_.fetch_add(1, std::memory_order_relaxed);
            cache_.publish(job.entry, std::move(row));
          } catch (const std::exception& e) {
            cache_.fail(job.key, job.entry, e.what());
          }
          notify_progress(job.entry.get());
        },
        &cancel_);
    // A cancelled batch leaves claimed-but-never-run entries unpublished;
    // fail them so same-epoch waiters and the response pass below see a
    // definite state instead of hanging.
    for (const auto& job : jobs) {
      bool ready;
      {
        std::lock_guard lock(job.entry->mutex);
        ready = job.entry->ready;
      }
      if (!ready) cache_.fail(job.key, job.entry, "cancelled by server shutdown");
    }
  }

  // Respond in the fair epoch order. Every entry is ready (published or
  // failed) by now, so none of this blocks on simulation.
  for (const auto& state : states) {
    const PendingRequest& pending = *state->req;
    std::vector<engine::ResultRow> rows;
    rows.reserve(state->points.size());
    std::string failure;
    for (std::size_t i = 0; i < state->points.size() && failure.empty(); ++i) {
      const auto& [key, entry] = state->points[i];
      std::lock_guard lock(entry->mutex);
      if (!entry->ready) {
        failure = "internal error: grid point " + describe(key) + " was never scheduled";
      } else if (entry->failed) {
        failure = "grid point " + describe(key) + " failed: " + entry->error;
      } else {
        rows.push_back(entry->row);
        rows.back().point.index = i;  // re-key to this request's own grid
      }
    }
    if (!failure.empty()) {
      requests_failed_.fetch_add(1, std::memory_order_relaxed);
      pending.client->conn.send_line(error_event(pending.request.id, failure));
    } else {
      const auto elapsed = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - state->t0)
                               .count();
      std::string msg = event_prefix(pending.request.id, "result");
      msg += ",\"rows\":";
      engine::ResultTable(std::move(rows)).append_json(msg, /*one_line=*/true);
      char elapsed_buf[40];
      std::snprintf(elapsed_buf, sizeof(elapsed_buf), ",\"elapsed_ms\":%.3f", elapsed);
      msg += elapsed_buf;
      msg += ",\"cache\":{\"hits\":" + std::to_string(state->hits) +
             ",\"coalesced\":" + std::to_string(state->coalesced) +
             ",\"simulated\":" + std::to_string(state->owned) + "}}";
      requests_served_.fetch_add(1, std::memory_order_relaxed);
      pending.client->conn.send_line(msg);
    }
    inflight_.fetch_sub(1, std::memory_order_relaxed);
  }
}

// --- stats ------------------------------------------------------------------

void Server::load_cache_file() {
  if (config_.cache_file.empty()) return;
  std::ifstream in(config_.cache_file);
  if (!in.is_open()) return;  // first run: nothing persisted yet
  try {
    const std::size_t restored = cache_.load(
        in, [](const std::string& name) { return workload::WorkloadRegistry::instance().find(name); });
    std::fprintf(stderr, "copift_serve: reloaded %zu cached result(s) from %s\n", restored,
                 config_.cache_file.c_str());
  } catch (const Error& e) {
    std::fprintf(stderr, "copift_serve: ignoring cache file %s: %s\n", config_.cache_file.c_str(),
                 e.what());
  }
}

void Server::save_cache_file() {
  if (config_.cache_file.empty()) return;
  // A server that never started never loaded the previous snapshot; writing
  // here would clobber it with an empty cache.
  if (listener_ == nullptr) return;
  // Write-then-rename so a crash mid-write never corrupts the previous
  // snapshot (load() would reject a torn file, losing the whole cache).
  const std::string tmp = config_.cache_file + ".tmp";
  std::size_t written = 0;
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.is_open()) {
      std::fprintf(stderr, "copift_serve: cannot write cache file %s\n", tmp.c_str());
      return;
    }
    written = cache_.save(out);
    out.flush();
    if (!out) {
      std::fprintf(stderr, "copift_serve: short write to cache file %s\n", tmp.c_str());
      std::remove(tmp.c_str());
      return;
    }
  }
  if (std::rename(tmp.c_str(), config_.cache_file.c_str()) != 0) {
    std::fprintf(stderr, "copift_serve: cannot rename %s into place\n", tmp.c_str());
    std::remove(tmp.c_str());
    return;
  }
  std::fprintf(stderr, "copift_serve: persisted %zu cached result(s) to %s\n", written,
               config_.cache_file.c_str());
}

ServerStats Server::stats() const {
  ServerStats s;
  s.uptime_ms = static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                               std::chrono::steady_clock::now() - start_time_)
                                               .count());
  s.connections_accepted = connections_accepted_.load(std::memory_order_relaxed);
  s.active_connections = active_connections_.load(std::memory_order_relaxed);
  s.requests_received = requests_received_.load(std::memory_order_relaxed);
  s.requests_served = requests_served_.load(std::memory_order_relaxed);
  s.requests_failed = requests_failed_.load(std::memory_order_relaxed);
  s.inflight = inflight_.load(std::memory_order_relaxed);
  s.points_requested = points_requested_.load(std::memory_order_relaxed);
  s.points_simulated = points_simulated_.load(std::memory_order_relaxed);
  s.cache = cache_.stats();
  return s;
}

std::string Server::stats_json(std::uint64_t id, const char* event) const {
  const ServerStats s = stats();
  std::string out = event_prefix(id, event);
  out += ",\"status\":\"ok\"";
  out += ",\"uptime_ms\":" + std::to_string(s.uptime_ms);
  out += ",\"inflight\":" + std::to_string(s.inflight);
  out += ",\"served_requests\":" + std::to_string(s.requests_served);
  if (std::string_view(event) == "stats") {
    out += ",\"connections_accepted\":" + std::to_string(s.connections_accepted);
    out += ",\"active_connections\":" + std::to_string(s.active_connections);
    out += ",\"requests_received\":" + std::to_string(s.requests_received);
    out += ",\"requests_failed\":" + std::to_string(s.requests_failed);
    out += ",\"points_requested\":" + std::to_string(s.points_requested);
    out += ",\"points_simulated\":" + std::to_string(s.points_simulated);
    out += ",\"engine_threads\":" + std::to_string(engine_.threads());
  }
  const double lookups = static_cast<double>(s.cache.hits + s.cache.misses + s.cache.coalesced);
  char rate[32];
  std::snprintf(rate, sizeof(rate), "%.4f",
                lookups > 0.0 ? static_cast<double>(s.cache.hits) / lookups : 0.0);
  out += ",\"cache\":{\"hits\":" + std::to_string(s.cache.hits) +
         ",\"misses\":" + std::to_string(s.cache.misses) +
         ",\"coalesced\":" + std::to_string(s.cache.coalesced) +
         ",\"evictions\":" + std::to_string(s.cache.evictions) +
         ",\"reloaded\":" + std::to_string(s.cache.reloaded) +
         ",\"entries\":" + std::to_string(s.cache.entries) +
         ",\"capacity\":" + std::to_string(s.cache.capacity) + ",\"hit_rate\":" + rate + "}}";
  return out;
}

}  // namespace copift::serve
