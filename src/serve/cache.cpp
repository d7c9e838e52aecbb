#include "serve/cache.hpp"

#include <cstdio>
#include <cstring>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "common/error.hpp"
#include "common/fnv1a.hpp"

namespace copift::serve {

namespace {

// The persisted format stores ActivityCounters as raw 64-bit words, so the
// struct must be a flat array of them; the header's `layout=` stamp (the
// counters' layout fingerprint) rejects files from builds whose words moved,
// even when the struct kept its size.
static_assert(std::is_trivially_copyable_v<sim::ActivityCounters> &&
                  sizeof(sim::ActivityCounters) % 8 == 0,
              "cache persistence assumes ActivityCounters is packed u64s");

constexpr std::size_t kCounterWords = sizeof(sim::ActivityCounters) / 8;
constexpr const char* kMagic = "copift-cache";
// v2 stamps `sum=`, the FNV-1a 64 of every line after the header.
constexpr const char* kVersion = "v2";

std::string hex16(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

std::string layout_stamp() { return "layout=" + hex16(sim::counters_layout_fingerprint()); }

void put_counters(std::ostream& os, const char* tag, const sim::ActivityCounters& c) {
  std::uint64_t words[kCounterWords];
  std::memcpy(words, &c, sizeof(c));
  os << tag;
  for (const std::uint64_t w : words) os << ' ' << std::hex << w;
  os << std::dec << '\n';
}

void put_energy(std::ostream& os, const char* tag, const energy::EnergyReport& e) {
  const auto bits = [](double d) {
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
  };
  os << tag << std::hex << ' ' << bits(e.total_pj) << ' ' << bits(e.constant_pj) << ' '
     << bits(e.int_core_pj) << ' ' << bits(e.fpss_pj) << ' ' << bits(e.memory_pj) << ' '
     << bits(e.icache_pj) << ' ' << bits(e.dma_pj) << ' ' << e.cycles << std::dec << '\n';
}

/// One line of the persisted stream, pre-split on the expected tag. Throws
/// copift::Error naming the tag on any mismatch so a truncated or hand-edited
/// file fails loudly instead of half-loading.
std::istringstream expect_line(std::istream& is, const char* tag) {
  std::string line;
  if (!std::getline(is, line)) throw Error(std::string("cache file truncated before '") + tag + "'");
  std::istringstream ls(line);
  std::string got;
  ls >> got;
  if (got != tag) throw Error("cache file: expected '" + std::string(tag) + "', got '" + got + "'");
  return ls;
}

sim::ActivityCounters get_counters(std::istream& is, const char* tag) {
  auto ls = expect_line(is, tag);
  std::uint64_t words[kCounterWords];
  for (std::uint64_t& w : words) {
    if (!(ls >> std::hex >> w)) throw Error(std::string("cache file: short counter line '") + tag + "'");
  }
  sim::ActivityCounters c;
  std::memcpy(&c, words, sizeof(c));
  return c;
}

energy::EnergyReport get_energy(std::istream& is, const char* tag) {
  auto ls = expect_line(is, tag);
  std::uint64_t words[8];
  for (std::uint64_t& w : words) {
    if (!(ls >> std::hex >> w)) throw Error(std::string("cache file: short energy line '") + tag + "'");
  }
  energy::EnergyReport e;
  const auto dbl = [](std::uint64_t u) {
    double d;
    std::memcpy(&d, &u, sizeof(d));
    return d;
  };
  e.total_pj = dbl(words[0]);
  e.constant_pj = dbl(words[1]);
  e.int_core_pj = dbl(words[2]);
  e.fpss_pj = dbl(words[3]);
  e.memory_pj = dbl(words[4]);
  e.icache_pj = dbl(words[5]);
  e.dma_pj = dbl(words[6]);
  e.cycles = words[7];
  return e;
}

/// The defaults every persisted row was simulated under (at its point's
/// core count). A file written by a build with other defaults holds rows
/// this build would not reproduce.
std::string params_stamp() { return "params=" + params_fingerprint(sim::SimParams{}); }

}  // namespace

ResultKey result_key(const engine::GridPoint& point, bool verify) {
  ResultKey key;
  key.workload = point.name();
  key.variant = static_cast<int>(point.variant);
  key.n = point.config.n;
  key.block = point.config.block;
  key.seed = point.config.seed;
  key.cores = point.config.cores;
  key.tile = point.config.tile;
  key.verify = verify;
  return key;
}

std::string params_fingerprint(const sim::SimParams& p) {
  std::string out;
  out.reserve(160);
  const auto field = [&out](const char* name, std::uint64_t value) {
    out += name;
    out += '=';
    out += std::to_string(value);
    out += ';';
  };
  field("fpu.add", p.fpu.add);
  field("fpu.mul", p.fpu.mul);
  field("fpu.fma", p.fpu.fma);
  field("fpu.div_sqrt", p.fpu.div_sqrt);
  field("fpu.cmp", p.fpu.cmp);
  field("fpu.cvt", p.fpu.cvt);
  field("fpu.move", p.fpu.move);
  field("fpu.minmax", p.fpu.minmax);
  field("fpu.fclass", p.fpu.fclass);
  field("num_cores", p.num_cores);
  field("offload_fifo_depth", p.offload_fifo_depth);
  field("frep_capacity", p.frep_capacity);
  field("ssr_cfg_latency", p.ssr_cfg_latency);
  field("load_use_latency", p.load_use_latency);
  field("mul_latency", p.mul_latency);
  field("div_latency", p.div_latency);
  field("branch_taken_penalty", p.branch_taken_penalty);
  field("fp_load_latency", p.fp_load_latency);
  field("num_tcdm_banks", p.num_tcdm_banks);
  field("l0_lines", p.l0_lines);
  field("l0_words_per_line", p.l0_words_per_line);
  field("l0_branch_penalty", p.l0_branch_penalty);
  field("ssr_fifo_depth", p.ssr_fifo_depth);
  field("dma_bytes_per_cycle", p.dma_bytes_per_cycle);
  field("max_cycles", p.max_cycles);
  field("dram_enabled", p.dram_enabled ? 1 : 0);
  field("dram_t_row_hit", p.dram_t_row_hit);
  field("dram_t_row_miss", p.dram_t_row_miss);
  field("dram_row_bytes", p.dram_row_bytes);
  field("dram_bytes_per_cycle", p.dram_bytes_per_cycle);
  field("dram_burst_bytes", p.dram_burst_bytes);
  field("dram_channels", p.dram_channels);
  return out;
}

const engine::ResultRow& ResultCache::Entry::wait() {
  std::unique_lock lock(mutex);
  cv.wait(lock, [this] { return ready; });
  if (failed) throw Error("cached computation failed: " + error);
  return row;
}

ResultCache::ResultCache(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  stats_.capacity = capacity_;
}

ResultCache::Claim ResultCache::lookup_or_claim(const ResultKey& key, EntryPtr& out) {
  std::lock_guard lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    out = it->second->second;
    touch_locked(key);
    bool ready;
    {
      std::lock_guard entry_lock(out->mutex);
      ready = out->ready;
    }
    // A failed entry never stays in the index (fail() erases it), so a
    // ready resident entry always carries a valid row.
    if (ready) {
      ++stats_.hits;
      return Claim::kHit;
    }
    ++stats_.coalesced;
    return Claim::kShared;
  }
  out = std::make_shared<Entry>();
  lru_.emplace_front(key, out);
  index_.emplace(key, lru_.begin());
  ++stats_.misses;
  evict_excess_locked();
  return Claim::kOwned;
}

void ResultCache::publish(const EntryPtr& entry, engine::ResultRow row) {
  {
    std::lock_guard lock(entry->mutex);
    entry->row = std::move(row);
    entry->ready = true;
  }
  entry->cv.notify_all();
}

void ResultCache::fail(const ResultKey& key, const EntryPtr& entry, const std::string& message) {
  {
    // Drop the key from the index *before* publishing failed/ready: if the
    // entry became ready-and-failed while still resident, a concurrent
    // lookup_or_claim would see ready == true and return kHit for an entry
    // with no valid row. Only drop the entry we failed — a later request may
    // already have re-claimed the key with a fresh entry.
    std::lock_guard lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end() && it->second->second == entry) {
      lru_.erase(it->second);
      index_.erase(it);
    }
    ++stats_.failures;
  }
  {
    std::lock_guard lock(entry->mutex);
    entry->failed = true;
    entry->error = message;
    entry->ready = true;
  }
  entry->cv.notify_all();
}

std::size_t ResultCache::save(std::ostream& os) const {
  std::lock_guard lock(mutex_);
  std::ostringstream body;
  std::size_t written = 0;
  // Back-to-front (LRU first): load() re-inserts each entry at the MRU end,
  // so reading in this order reproduces today's recency ranking.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    const ResultKey& key = it->first;
    const EntryPtr& entry = it->second;
    engine::ResultRow row;
    {
      std::lock_guard entry_lock(entry->mutex);
      if (!entry->ready || entry->failed) continue;  // in-flight entries are not results
      row = entry->row;
    }
    // The daemon never produces steady rows, and the format has no place
    // for their marginal metrics.
    if (row.steady) continue;
    body << "point " << (key.verify ? 1 : 0) << ' ' << key.variant << ' ' << key.n << ' '
         << key.block << ' ' << key.seed << ' ' << key.cores << ' ' << key.tile << ' '
         << key.workload << '\n';
    const kernels::KernelRun& run = row.run;
    body << "run " << (run.result.halted ? 1 : 0) << ' ' << run.result.cycles << ' '
         << run.result.exit_code << ' ' << (run.verified ? 1 : 0) << ' '
         << run.hart_region.size() << '\n';
    put_counters(body, "total", run.total);
    put_counters(body, "region", run.region);
    put_energy(body, "energy", run.region_energy);
    for (const auto& hc : run.hart_region) put_counters(body, "hc", hc);
    for (const auto& he : run.hart_energy) put_energy(body, "he", he);
    body << "end\n";
    ++written;
  }
  const std::string text = body.str();
  os << kMagic << ' ' << kVersion << ' ' << layout_stamp() << ' ' << params_stamp() << " sum="
     << hex16(fnv1a(text)) << '\n' << text;
  return written;
}

std::size_t ResultCache::load(std::istream& file, const WorkloadResolver& resolver) {
  std::string sum;
  {
    auto header = expect_line(file, kMagic);
    std::string version, layout, params;
    header >> version >> layout >> params >> sum;
    if (version != kVersion) {
      throw Error("cache file version mismatch: got '" + version + "', want '" + kVersion + "'");
    }
    if (layout != layout_stamp()) {
      throw Error("cache file counter layout mismatch: got '" + layout + "', want '" +
                  layout_stamp() + "' (stale file from another build)");
    }
    if (params != params_stamp()) {
      throw Error("cache file was written under other simulator defaults (stale file from "
                  "another build)");
    }
  }
  // Nothing of a damaged or truncated file loads: its entries must match the
  // header's checksum before any of them is parsed.
  const std::string body{std::istreambuf_iterator<char>(file), std::istreambuf_iterator<char>()};
  if (sum != "sum=" + hex16(fnv1a(body))) {
    throw Error("cache file checksum mismatch (damaged or truncated file)");
  }
  std::istringstream is(body);
  std::size_t restored = 0;
  std::string line;
  while (is.peek() != std::char_traits<char>::eof() && std::getline(is, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag.empty()) continue;
    if (tag != "point") throw Error("cache file: expected 'point', got '" + tag + "'");
    ResultKey key;
    int verify = 0;
    ls >> verify >> key.variant >> key.n >> key.block >> key.seed >> key.cores >> key.tile >>
        key.workload;
    if (!ls || key.workload.empty()) throw Error("cache file: malformed point line");
    key.verify = verify != 0;

    engine::ResultRow row;
    std::size_t harts = 0;
    {
      auto rs = expect_line(is, "run");
      int halted = 0, verified = 0;
      rs >> halted >> row.run.result.cycles >> row.run.result.exit_code >> verified >> harts;
      if (!rs) throw Error("cache file: malformed run line");
      row.run.result.halted = halted != 0;
      row.run.verified = verified != 0;
    }
    row.run.total = get_counters(is, "total");
    row.run.region = get_counters(is, "region");
    row.run.region_energy = get_energy(is, "energy");
    for (std::size_t h = 0; h < harts; ++h) row.run.hart_region.push_back(get_counters(is, "hc"));
    for (std::size_t h = 0; h < harts; ++h) row.run.hart_energy.push_back(get_energy(is, "he"));
    expect_line(is, "end");

    const auto wl = resolver ? resolver(key.workload) : nullptr;
    if (wl == nullptr) continue;  // not registered in this process: skip
    row.point.workload = wl;
    row.point.variant = static_cast<workload::Variant>(key.variant);
    row.point.config.n = key.n;
    row.point.config.block = key.block;
    row.point.config.seed = key.seed;
    row.point.config.cores = key.cores;
    row.point.config.tile = key.tile;
    row.point.params.num_cores = key.cores;  // the defaults, as the daemon ran it

    auto entry = std::make_shared<Entry>();
    entry->ready = true;
    entry->row = std::move(row);
    {
      std::lock_guard lock(mutex_);
      if (index_.find(key) != index_.end()) continue;  // live entry wins
      lru_.emplace_front(key, std::move(entry));
      index_.emplace(key, lru_.begin());
      ++stats_.reloaded;
      evict_excess_locked();
    }
    ++restored;
  }
  return restored;
}

CacheStats ResultCache::stats() const {
  std::lock_guard lock(mutex_);
  CacheStats s = stats_;
  s.entries = index_.size();
  s.capacity = capacity_;
  return s;
}

void ResultCache::touch_locked(const ResultKey& key) {
  const auto it = index_.find(key);
  lru_.splice(lru_.begin(), lru_, it->second);
  it->second = lru_.begin();
}

void ResultCache::evict_excess_locked() {
  while (index_.size() > capacity_) {
    // Evict the least-recently-used *completed* entry; in-flight entries are
    // pinned (their producer still needs to publish through the cache, and
    // dropping them would re-trigger the very computation they deduplicate).
    auto victim = lru_.end();
    for (auto it = std::prev(lru_.end());; --it) {
      bool ready;
      {
        std::lock_guard entry_lock(it->second->mutex);
        ready = it->second->ready;
      }
      if (ready) {
        victim = it;
        break;
      }
      if (it == lru_.begin()) break;
    }
    if (victim == lru_.end()) return;  // everything in flight: allow overshoot
    index_.erase(victim->first);
    lru_.erase(victim);
    ++stats_.evictions;
  }
}

}  // namespace copift::serve
