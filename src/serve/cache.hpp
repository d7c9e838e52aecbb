// Bounded LRU memoization cache for simulation results.
//
// The daemon simulates every grid point under the default SimParams at the
// point's core count, so a result is a pure function of the point's grid
// coordinates — the exact ones ProgramCache keys assembled programs on —
// and the verify flag. The serving layer therefore never simulates the same
// point twice while it stays resident: repeat requests hit the cache, and
// identical *in-flight* points coalesce onto one computation (N concurrent
// clients asking for the same sweep trigger one simulation; the other N-1
// wait on the shared entry).
//
// Thread-safe; eviction is strict LRU over completed entries.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "engine/experiment.hpp"
#include "sim/params.hpp"

namespace copift::serve {

/// Cache coordinates of one simulated grid point. Mirrors ProgramCache's
/// (name, variant, n, block, seed, cores, tile) key, plus whether
/// golden-reference verification ran — two runs that differ in it are
/// different results. The simulator defaults are not part of the key; a
/// persisted file stamps them in its header instead.
struct ResultKey {
  std::string workload;
  int variant = 0;
  std::uint32_t n = 0;
  std::uint32_t block = 0;
  std::uint32_t seed = 0;
  std::uint32_t cores = 0;
  std::uint32_t tile = 0;
  bool verify = true;

  auto operator<=>(const ResultKey&) const = default;
};

/// The key of `point` run with `verify`.
ResultKey result_key(const engine::GridPoint& point, bool verify);

/// Canonical field-by-field serialization of SimParams (including FPU
/// latencies). Two SimParams with equal fingerprints produce bit-identical
/// simulations; any field change changes the fingerprint.
std::string params_fingerprint(const sim::SimParams& params);

/// Counters exposed through the daemon's `stats` request.
struct CacheStats {
  std::uint64_t hits = 0;        // completed entry found
  std::uint64_t misses = 0;      // claimed for computation by the caller
  std::uint64_t coalesced = 0;   // attached to another caller's in-flight entry
  std::uint64_t evictions = 0;
  std::uint64_t failures = 0;    // entries dropped because computation threw
  std::uint64_t reloaded = 0;    // entries restored from a persisted cache file
  std::size_t entries = 0;
  std::size_t capacity = 0;
};

class ResultCache {
 public:
  /// One key's shared computation state. The producer publishes exactly once
  /// (value or failure); consumers wait(). Entries outlive eviction: waiters
  /// hold the shared_ptr, so evicting a key never dangles a consumer.
  struct Entry {
    std::mutex mutex;
    std::condition_variable cv;
    bool ready = false;
    bool failed = false;
    std::string error;             // valid when failed
    engine::ResultRow row;         // valid when ready && !failed

    /// Block until published; throws copift::Error carrying the producer's
    /// message on failure.
    const engine::ResultRow& wait();
  };
  using EntryPtr = std::shared_ptr<Entry>;

  enum class Claim {
    kHit,     // entry was complete: out->row is ready now
    kOwned,   // caller claimed the key and must publish (or fail) the entry
    kShared,  // another caller is computing: wait() on the entry
  };

  explicit ResultCache(std::size_t capacity);

  /// Look `key` up, claiming it for computation when absent. Exactly one
  /// caller per key gets kOwned until the entry is published or failed.
  Claim lookup_or_claim(const ResultKey& key, EntryPtr& out);

  /// Publish the computed row for a kOwned claim and wake waiters.
  void publish(const EntryPtr& entry, engine::ResultRow row);
  /// Publish failure for a kOwned claim: waiters rethrow `message`, and the
  /// key is removed so a later request retries instead of caching the error.
  void fail(const ResultKey& key, const EntryPtr& entry, const std::string& message);

  [[nodiscard]] CacheStats stats() const;

  /// Maps a persisted workload name back to its registry handle; return
  /// nullptr to skip the entry (e.g. an out-of-tree workload that is not
  /// registered in this process).
  using WorkloadResolver =
      std::function<std::shared_ptr<const workload::Workload>(const std::string&)>;

  /// Persist every completed (ready, non-failed, non-steady) entry to a
  /// text stream whose header stamps the format version, the counters'
  /// layout, the default SimParams' fingerprint and the FNV-1a 64 checksum
  /// of the entries, least-recently-used first so load() restores the LRU
  /// order. In-flight entries are skipped.
  /// Returns the number of entries written.
  std::size_t save(std::ostream& os) const;

  /// Reload entries written by save(). The header's version, layout and
  /// SimParams stamps must match this build exactly, and the entries their
  /// checksum; throws copift::Error otherwise, before restoring anything
  /// (callers typically warn and start empty). Entries whose
  /// workload the resolver cannot map are skipped; already-resident keys are
  /// kept (the live entry wins). Each restored entry counts toward
  /// CacheStats::reloaded. Returns the number of entries restored.
  std::size_t load(std::istream& is, const WorkloadResolver& resolver);

 private:
  void touch_locked(const ResultKey& key);
  void evict_excess_locked();

  mutable std::mutex mutex_;
  std::size_t capacity_;
  // LRU order: front = most recent. The map points into the list.
  std::list<std::pair<ResultKey, EntryPtr>> lru_;
  std::map<ResultKey, std::list<std::pair<ResultKey, EntryPtr>>::iterator> index_;
  CacheStats stats_{};
};

}  // namespace copift::serve
