// serve_mix: an in-process serve::Server, started fresh for every run so its
// cache starts cold, driven over two loopback connections by one generator
// thread in an open loop at a fixed offered rate. Each request is timed from
// the moment it was due, so a stall also charges the requests queued behind
// it. No recorded production traffic exists, so the mix is an assumption
// modelled on tools/serve_loadtest: its shared 6-point exp sweep and its
// unique-seed axpy point, in its 1:1 shared-to-unique ratio, plus a duplicate
// pair that serve_loadtest does not send. Per block of ten requests:
//   4 reads   - the same 6-point sweep every time: cache hits with large replies
//   4 misses  - single points with a fresh seed: simulated and inserted
//   1 pair    - one fresh point sent on both connections at the same due time:
//               coalesced in flight (or a hit when the first copy already landed)
#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/error.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace copift;
using serve::Json;

namespace {

/// Requests per second: about half the capacity measured for this mix on a
/// 4-vCPU Xeon VM (about 7000 req/s), fixed so runs stay comparable across
/// commits. A host that loses half its speed to its neighbours pushes this
/// open loop into overload, and p50/p99 then grow without bound.
constexpr double kOfferedRate = 3000.0;
constexpr unsigned kEngineThreads = 2;
constexpr unsigned kConnections = 2;
constexpr std::size_t kBlock = 10;
/// p50_ms and p99_ms are medians over slices of this many seconds of due
/// times: a host stall of tens of ms then moves one slice's p99, not the
/// run's. Each slice holds 1200 requests (0.4 s x 3000), so its p99 has 12
/// samples beyond it.
constexpr double kSliceSeconds = 0.4;
/// Replies still missing this long after the last send count as failures.
constexpr double kDrainSeconds = 30.0;

enum class Kind { kRead, kMiss, kDup };

struct Planned {
  Kind kind = Kind::kRead;
  unsigned conn = 0;
  std::uint32_t seed = 0;
  double due_s = 0.0;  // offset from the start of the window
};

struct Record {
  Clock::time_point due{};
  Clock::time_point sent{};
  Clock::time_point accepted{};
  Clock::time_point result{};
  bool got_accepted = false;
  bool done = false;
  bool ok = false;
  std::size_t reply_bytes = 0;
  std::vector<std::uint64_t> cycles;  // per row, for the cross-reply checks
  std::vector<std::string> digest;
  std::uint64_t hart_cycles = 0;
};

/// Position k of a block of kBlock requests: its kind and connection. Each
/// connection carries 2 reads, 2 misses and one copy of the pair.
/// Positions 3 and 4 are the duplicate pair and share a due time.
constexpr std::pair<Kind, unsigned> kPattern[kBlock] = {
    {Kind::kRead, 0}, {Kind::kMiss, 1}, {Kind::kRead, 1}, {Kind::kDup, 0}, {Kind::kDup, 1},
    {Kind::kMiss, 0}, {Kind::kRead, 0}, {Kind::kMiss, 1}, {Kind::kRead, 1}, {Kind::kMiss, 0},
};

/// `seconds` of requests at kOfferedRate. Request k is due at k / rate, except
/// that the pair's second copy is due with its first, so the rate is exact
/// and the window lasts `seconds`.
std::vector<Planned> plan(std::uint32_t seed, double seconds) {
  const auto count = static_cast<std::size_t>(std::ceil(kOfferedRate * seconds));
  std::vector<Planned> out;
  out.reserve(count);
  std::uint32_t next_seed = seed * 1000003U + 17U;
  for (std::size_t k = 0; k < count; ++k) {
    const auto [kind, conn] = kPattern[k % kBlock];
    Planned p;
    p.kind = kind;
    p.conn = conn;
    if (k % kBlock == 4) {  // second copy of the pair: same point, same due time
      p.seed = out.back().seed;
      p.due_s = out.back().due_s;
    } else {
      p.due_s = static_cast<double>(k) / kOfferedRate;
      p.seed = kind == Kind::kRead ? seed : next_seed++;
    }
    out.push_back(p);
  }
  return out;
}

std::string request_line(const Planned& p, std::uint64_t id) {
  const std::string head = "{\"id\":" + std::to_string(id) + ",\"type\":\"run\",\"progress\":false,";
  switch (p.kind) {
    case Kind::kRead:
      return head +
             "\"workloads\":[\"exp\"],\"variants\":[\"copift\",\"baseline\"],"
             "\"n\":[384],\"block\":[16,32,64],\"seeds\":[" + std::to_string(p.seed) + "]}";
    case Kind::kMiss:
      return head + "\"workloads\":[\"axpy\"],\"variants\":[\"copift\"],\"n\":[256],"
                    "\"seeds\":[" + std::to_string(p.seed) + "]}";
    case Kind::kDup:
      return head + "\"workloads\":[\"axpy\"],\"variants\":[\"baseline\"],\"n\":[256],"
                    "\"seeds\":[" + std::to_string(p.seed) + "]}";
  }
  return {};
}

std::size_t expected_rows(Kind kind) { return kind == Kind::kRead ? 6 : 1; }

struct ClientConn {
  int fd = -1;  // owned by `conn`
  std::unique_ptr<serve::Connection> conn;
  std::string buffer;
};

ClientConn connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw Error("socket: " + std::string(std::strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string what = std::strerror(errno);
    ::close(fd);
    throw Error("connect: " + what);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ClientConn c;
  c.fd = fd;
  c.conn = std::make_unique<serve::Connection>(fd);
  return c;
}

/// A started server plus its connected clients, both answering health.
struct Rig {
  std::unique_ptr<serve::Server> server;
  std::vector<ClientConn> clients;

  void stop() {
    clients.clear();
    if (server != nullptr) {
      server->request_shutdown();
      server->wait();
      server.reset();
    }
  }
};

Rig start_rig() {
  Rig rig;
  serve::ServerConfig config;
  config.port = 0;
  config.engine_threads = kEngineThreads;
  rig.server = std::make_unique<serve::Server>(config);
  rig.server->start();
  for (unsigned c = 0; c < kConnections; ++c) {
    rig.clients.push_back(connect_to(rig.server->port()));
    auto& client = rig.clients.back();
    if (!client.conn->send_line("{\"id\":0,\"type\":\"health\"}")) throw Error("health: send failed");
    std::string reply;
    if (client.conn->read_line(reply, -1, 10000, 1 << 20) != serve::Connection::ReadStatus::kLine ||
        Json::parse(reply).at("event").as_string() != "health") {
      throw Error("health: no reply");
    }
  }
  return rig;
}

/// Check one result event against its request; fills `rec` (its digest
/// lines only with `want_digest`).
bool check_result(const Json& doc, const Planned& p, bool want_digest, Record& rec) {
  if (doc.at("event").as_string() != "result") return false;
  const auto& rows = doc.at("rows").as_array();
  if (rows.size() != expected_rows(p.kind)) return false;
  const char* kernel = p.kind == Kind::kRead ? "exp" : "axpy";
  for (const auto& row : rows) {
    if (!row.at("verified").as_bool() || row.at("kernel").as_string() != kernel ||
        row.at("seed").as_u32() != p.seed || row.at("cores").as_u32() != 1) {
      return false;
    }
    const std::uint64_t cycles = row.at("cycles").as_u64();
    const double ipc = row.at("ipc").as_number();
    const auto region = row.at("region_cycles").as_u64();
    if (cycles == 0) return false;
    rec.cycles.push_back(cycles);
    rec.hart_cycles += cycles;
    if (!want_digest) continue;
    char point[160];
    std::snprintf(point, sizeof(point), "serve_mix %s %s n=%u block=%u cores=1 seed=%u",
                  kernel, row.at("variant").as_string().c_str(), row.at("n").as_u32(),
                  row.at("block").as_u32(), p.seed);
    char stats[128];
    std::snprintf(stats, sizeof(stats), " cycles=%llu retired=%llu energy_pj=%.17g",
                  static_cast<unsigned long long>(cycles),
                  static_cast<unsigned long long>(std::llround(ipc * static_cast<double>(region))),
                  row.at("energy_nj").as_number() * 1000.0);
    rec.digest.push_back(std::string(point) + stats);
  }
  return true;
}

double ms_between(Clock::time_point a, Clock::time_point b) { return seconds_between(a, b) * 1e3; }

}  // namespace

Outcome run_serve_mix(const Options& opt, Trace& trace) {
  Outcome out;
  Rig rig;
  std::vector<Planned> planned;
  out.e2e.setup_s = median_setup([&] {
    rig.stop();
    planned.clear();
    const auto t0 = Clock::now();
    rig = start_rig();
    planned = plan(opt.seed, opt.seconds);
    return seconds_between(t0, Clock::now());
  });

  std::vector<Record> recs(planned.size());
  std::vector<double> parse_us;
  std::size_t outstanding = 0;
  bool read_digested = false;
  std::size_t next = 0;
  std::int32_t root = -1;
  const auto traced_block = [&](std::size_t k) { return opt.trace && (k / kBlock) % 2 == 1; };
  const auto handle_line = [&](const std::string& line, Clock::time_point at) {
    Span span(trace, "serve.client_parse");
    const auto t0 = Clock::now();
    const Json doc = Json::parse(line);
    parse_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    const std::uint64_t id = doc.at("id").as_u64();
    if (id == 0 || id > recs.size()) throw Error("serve_mix: reply with unknown id: " + line);
    Record& rec = recs[id - 1];
    const std::string& event = doc.at("event").as_string();
    if (event == "accepted") {
      rec.accepted = at;
      rec.got_accepted = true;
      return;
    }
    if (rec.done) throw Error("serve_mix: second final event for request " + std::to_string(id));
    rec.done = true;
    rec.result = at;
    rec.reply_bytes = line.size() + 1;
    --outstanding;
    // Every read returns the same rows, so only the first one to arrive is digested.
    const bool digest_read = planned[id - 1].kind == Kind::kRead && !read_digested;
    rec.ok = rec.got_accepted &&
             check_result(doc, planned[id - 1], planned[id - 1].kind != Kind::kRead || digest_read, rec);
    read_digested = read_digested || (digest_read && rec.ok);
    if (!rec.ok) std::fprintf(stderr, "FAIL serve_mix request %llu: %s\n",
                              static_cast<unsigned long long>(id), line.substr(0, 300).c_str());
    if (traced_block(id - 1)) trace.add_async("serve.request", id, rec.due, rec.result);
  };

  const auto t_start = Clock::now() + std::chrono::milliseconds(20);
  const auto due_at = [&](std::size_t k) {
    return t_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(planned[k].due_s));
  };
  Clock::time_point drain_deadline = Clock::time_point::max();
  while (next < planned.size() || outstanding > 0) {
    const auto now = Clock::now();
    if (next < planned.size() && now >= due_at(next)) {
      if (next % kBlock == 0) {
        if (root >= 0) trace.close(root);
        root = -1;
        trace.set_enabled(traced_block(next));
        if (trace.enabled()) root = trace.open("bench.block");
      }
      Span span(trace, "loadgen.send");
      Record& rec = recs[next];
      rec.due = due_at(next);
      const std::string line = request_line(planned[next], next + 1);
      rec.sent = Clock::now();
      if (!rig.clients[planned[next].conn].conn->send_line(line)) {
        throw Error("serve_mix: send failed");
      }
      ++outstanding;
      ++next;
      if (next == planned.size()) {
        drain_deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                            std::chrono::duration<double>(kDrainSeconds));
      }
      continue;
    }
    if (now >= drain_deadline) break;
    const auto wake = next < planned.size() ? due_at(next) : drain_deadline;
    const auto wait_ns = std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now).count());
    pollfd fds[kConnections];
    for (unsigned c = 0; c < kConnections; ++c) fds[c] = {rig.clients[c].fd, POLLIN, 0};
    const timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                           static_cast<long>(wait_ns % 1000000000)};
    int ready = 0;
    {
      Span span(trace, "loadgen.wait");
      ready = ::ppoll(fds, kConnections, &timeout, nullptr);
    }
    if (ready < 0 && errno != EINTR) throw Error("serve_mix: poll failed");
    if (ready <= 0) continue;
    for (unsigned c = 0; c < kConnections; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      auto& client = rig.clients[c];
      if (client.conn->read_bytes(client.buffer, -1, 0) != serve::Connection::ReadStatus::kLine) {
        throw Error("serve_mix: server closed a connection");
      }
      const auto at = Clock::now();
      for (auto nl = client.buffer.find('\n'); nl != std::string::npos;
           nl = client.buffer.find('\n')) {
        const std::string line = client.buffer.substr(0, nl);
        client.buffer.erase(0, nl + 1);
        handle_line(line, at);
      }
    }
  }
  if (root >= 0) trace.close(root);
  trace.set_enabled(false);
  out.e2e.peak_rss_mb = peak_rss_mb();
  const serve::ServerStats stats = rig.server->stats();
  rig.stop();
  measure_accuracy(out, opt.seed);

  // Cross-reply checks: every read returns the first read's rows, and both
  // copies of a duplicate pair agree.
  const Record* first_read = nullptr;
  for (std::size_t k = 0; k < recs.size(); ++k) {
    Record& rec = recs[k];
    const Planned& p = planned[k];
    if (rec.ok && p.kind == Kind::kRead) {
      if (first_read == nullptr) first_read = &rec;
      rec.ok = rec.cycles == first_read->cycles;
    }
    if (rec.ok && p.kind == Kind::kDup && k % kBlock == 4) {
      rec.ok = recs[k - 1].ok && rec.cycles == recs[k - 1].cycles;
    }
  }

  std::vector<double> latency_ms;
  std::vector<double> traced_latency_ms;
  std::vector<std::vector<double>> slices;
  std::vector<double> accepted_ms;
  std::vector<double> result_ms;
  std::vector<double> late_ms;
  std::vector<double> miss_ns_per_hart_cycle;
  double reply_bytes = 0.0;
  std::uint64_t rows = 0;
  Clock::time_point last_result = t_start;
  Fnv1a hash;
  for (std::size_t k = 0; k < recs.size(); ++k) {
    const Record& rec = recs[k];
    ++out.attempted;
    if (!rec.ok) {
      ++out.failed;
      continue;
    }
    const double ms = ms_between(rec.due, rec.result);
    (traced_block(k) ? traced_latency_ms : latency_ms).push_back(ms);
    if (!traced_block(k)) {
      const auto slice = static_cast<std::size_t>(planned[k].due_s / kSliceSeconds);
      if (slice >= slices.size()) slices.resize(slice + 1);
      slices[slice].push_back(ms);
    }
    accepted_ms.push_back(ms_between(rec.sent, rec.accepted));
    result_ms.push_back(ms_between(rec.accepted, rec.result));
    late_ms.push_back(ms_between(rec.due, rec.sent));
    reply_bytes += static_cast<double>(rec.reply_bytes);
    rows += rec.cycles.size();
    last_result = std::max(last_result, rec.result);
    if (planned[k].kind == Kind::kMiss) {
      miss_ns_per_hart_cycle.push_back(ms_between(rec.accepted, rec.result) * 1e6 /
                                       static_cast<double>(rec.hart_cycles));
    }
    const bool second_copy = planned[k].kind == Kind::kDup && k % kBlock == 4;
    if (!second_copy) {
      for (const auto& line : rec.digest) hash.add(line);
      if (out.digest.size() < 12) out.digest.insert(out.digest.end(), rec.digest.begin(), rec.digest.end());
    }
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "serve_mix digest-hash %016llx",
                static_cast<unsigned long long>(hash.value()));
  out.digest.emplace_back(buf);
  if (out.failed > 0 || latency_ms.empty()) return out;

  const Summary latency = summarize(latency_ms);
  out.notes.push_back("request latency from due time [ms]: " + latency.format());
  std::snprintf(buf, sizeof(buf), "offered rate %.0f req/s over %u connections for %.0f s",
                kOfferedRate, kConnections, opt.seconds);
  out.notes.emplace_back(buf);
  std::vector<double> slice_p50;
  std::vector<double> slice_p99;
  for (auto& slice : slices) {
    if (samples_beyond(slice.size(), 99.0) < kMinBeyond) continue;  // the last, partial slice
    std::sort(slice.begin(), slice.end());
    slice_p50.push_back(percentile(slice, 50.0));
    slice_p99.push_back(percentile(slice, 99.0));
  }
  // A traced run leaves only half of each slice untraced; it reports no
  // end-to-end metrics.
  if (slice_p99.empty() && !opt.trace) throw Error("serve_mix: no full latency slice; run longer");
  if (!slice_p99.empty()) {
    out.e2e.p50_ms = median(slice_p50);
    out.e2e.p99_ms = median(slice_p99);
    std::snprintf(buf, sizeof(buf), "per-%.1f-s slice p99 [ms]: ", kSliceSeconds);
    out.notes.push_back(buf + summarize(slice_p99).format());
  }
  out.e2e.points_per_s = static_cast<double>(rows) / seconds_between(t_start, last_result);
  out.e2e.ns_per_hart_cycle = median(miss_ns_per_hart_cycle);

  auto& layers = out.layers;
  layers.set("serve.accepted_ms", median(accepted_ms));
  layers.set("serve.result_ms", median(result_ms));
  layers.set("serve.reply_bytes", reply_bytes / static_cast<double>(out.attempted));
  layers.set("serve.client_parse_us", median(parse_us));
  const double lookups = static_cast<double>(stats.cache.hits + stats.cache.misses +
                                             stats.cache.coalesced);
  layers.set("serve.hit_ratio", lookups > 0 ? static_cast<double>(stats.cache.hits) / lookups : 0.0);
  if (lookups > 0) {
    char shares[160];
    std::snprintf(shares, sizeof(shares),
                  "server cache lookups: %.0f, hits %.3f, misses %.3f, coalesced %.3f", lookups,
                  static_cast<double>(stats.cache.hits) / lookups,
                  static_cast<double>(stats.cache.misses) / lookups,
                  static_cast<double>(stats.cache.coalesced) / lookups);
    out.notes.emplace_back(shares);
  }
  layers.set("serve.coalesced", static_cast<double>(stats.cache.coalesced));
  layers.set("serve.points_simulated", static_cast<double>(stats.points_simulated));
  std::sort(late_ms.begin(), late_ms.end());
  layers.set("loadgen.late_p99_ms", percentile(late_ms, 99.0));
  out.notes.push_back("generator lateness [ms]: " + summarize(late_ms).format());
  if (opt.trace && !traced_latency_ms.empty()) {
    layers.set("trace.overhead_pct", 100.0 * (median(traced_latency_ms) / latency.median - 1.0));
    const auto times = trace.layer_times();
    layers.set_shares(times);
    out.notes.push_back(coverage_note(times));
  }
  return out;
}

}  // namespace perfbench
