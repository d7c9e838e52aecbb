// Tests for the serving subsystem: the JSON parser (including a full
// round trip of ResultTable::json() with hostile labels), request
// validation, the memoizing result cache, and an end-to-end in-process
// server exercised over real sockets.
#include <algorithm>
#include <arpa/inet.h>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <random>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "engine/experiment.hpp"
#include "serve/cache.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace {

using namespace copift;
using serve::Json;
using serve::ProtocolError;

// --- JSON parser -------------------------------------------------------------

TEST(ServeJson, ParsesLiterals) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
  EXPECT_TRUE(Json::parse("[]").as_array().empty());
  EXPECT_TRUE(Json::parse("{}").as_object().empty());
  EXPECT_TRUE(Json::parse("  {\"a\": [1, 2]}  ").is_object());
}

TEST(ServeJson, ParsesNumbers) {
  EXPECT_DOUBLE_EQ(Json::parse("3.5").as_number(), 3.5);
  EXPECT_DOUBLE_EQ(Json::parse("-2e3").as_number(), -2000.0);
  EXPECT_DOUBLE_EQ(Json::parse("0.125").as_number(), 0.125);
  EXPECT_EQ(Json::parse("0").as_u64(), 0u);
  EXPECT_EQ(Json::parse("42").as_u32(), 42u);
}

TEST(ServeJson, Keeps64BitIntegersExact) {
  // 18446744073709551615 is not representable as a double; the parser must
  // carry it exactly so cycle counts survive the wire.
  const auto v = Json::parse("18446744073709551615");
  EXPECT_EQ(v.as_u64(), 18446744073709551615ull);
  EXPECT_EQ(v.dump(), "18446744073709551615");
  const auto round = Json::parse(v.dump());
  EXPECT_EQ(round.as_u64(), 18446744073709551615ull);
}

TEST(ServeJson, RejectsNonIntegerAsU64) {
  EXPECT_THROW((void)Json::parse("1.5").as_u64(), ProtocolError);
  EXPECT_THROW((void)Json::parse("-1").as_u64(), ProtocolError);
  EXPECT_THROW((void)Json::parse("1e30").as_u64(), ProtocolError);
  EXPECT_THROW((void)Json::parse("4294967296").as_u32(), ProtocolError);
}

TEST(ServeJson, ErrorsCarryByteOffsets) {
  const auto offset_of = [](const char* text) -> std::string {
    try {
      (void)Json::parse(text);
    } catch (const ProtocolError& e) {
      return e.what();
    }
    return {};
  };
  EXPECT_NE(offset_of("{\"a\":}").find("offset 5"), std::string::npos) << offset_of("{\"a\":}");
  EXPECT_NE(offset_of("[1,]").find("offset 3"), std::string::npos) << offset_of("[1,]");
  EXPECT_FALSE(offset_of("{\"a\":1} trailing").empty());
  EXPECT_FALSE(offset_of("01").empty());  // leading zeros are not JSON
  EXPECT_FALSE(offset_of("\"unterminated").empty());
  EXPECT_FALSE(offset_of("nan").empty());
}

TEST(ServeJson, RejectsDuplicateKeys) {
  try {
    (void)Json::parse("{\"a\":1,\"a\":2}");
    FAIL() << "duplicate key accepted";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("a"), std::string::npos) << e.what();
  }
}

TEST(ServeJson, EnforcesDepthBound) {
  std::string deep;
  for (int i = 0; i < 80; ++i) deep += '[';
  for (int i = 0; i < 80; ++i) deep += ']';
  EXPECT_THROW((void)Json::parse(deep), ProtocolError);          // default depth 64
  EXPECT_NO_THROW((void)Json::parse(deep, 128));                 // raised bound is fine
  EXPECT_THROW((void)Json::parse("[[[[1]]]]", 3), ProtocolError);
  EXPECT_NO_THROW((void)Json::parse("[[[[1]]]]", 4));
}

TEST(ServeJson, DecodesEscapesAndUnicode) {
  EXPECT_EQ(Json::parse(R"("a\"b\\c\nd\te")").as_string(), "a\"b\\c\nd\te");
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xc3\xa9");        // é
  EXPECT_EQ(Json::parse(R"("€")").as_string(), "\xe2\x82\xac");    // €
  EXPECT_EQ(Json::parse(R"("😀")").as_string(),
            "\xf0\x9f\x98\x80");                                         // 😀 surrogate pair
  EXPECT_THROW((void)Json::parse(R"("\ud83d")"), ProtocolError);         // lone high surrogate
  EXPECT_THROW((void)Json::parse(R"("\q")"), ProtocolError);
}

TEST(ServeJson, DumpRoundTripsHostileStrings) {
  const std::string hostile = "fifo=1,\"deep\" mode\nline2\ttab\\slash";
  const Json v = Json::string(hostile);
  EXPECT_EQ(Json::parse(v.dump()).as_string(), hostile);
}

TEST(ServeJson, ObjectPreservesInsertionOrder) {
  const Json v = Json::parse("{\"z\":1,\"a\":2,\"m\":3}");
  const auto& obj = v.as_object();
  ASSERT_EQ(obj.size(), 3u);
  EXPECT_EQ(obj[0].first, "z");
  EXPECT_EQ(obj[1].first, "a");
  EXPECT_EQ(obj[2].first, "m");
  EXPECT_EQ(v.dump(), "{\"z\":1,\"a\":2,\"m\":3}");
  EXPECT_EQ(v.at("m").as_u64(), 3u);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW((void)v.at("missing"), ProtocolError);
}

// --- ResultTable::json() through the parser ----------------------------------

TEST(ServeJson, ResultTableJsonRoundTripsExactly) {
  // The repo could always *write* JSON; this proves the new reader accepts
  // everything the writer produces, including the hostile params label the
  // serializer tests use, with row-exact values.
  const std::string hostile = "fifo=1,\"deep\" mode\nline2";
  engine::Experiment e;
  e.over("exp").n(64).block(16).verify(false);
  e.with_params(hostile, sim::SimParams{});
  engine::SimEngine pool(1);
  const auto table = e.run(pool);
  ASSERT_EQ(table.size(), 1u);

  std::string line;
  table.append_json(line, /*one_line=*/true);
  const Json doc = Json::parse(line);
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(doc.as_array().size(), 1u);
  const Json& row = doc.as_array().front();
  EXPECT_EQ(row.at("kernel").as_string(), "exp");
  EXPECT_EQ(row.at("variant").as_string(), "copift");
  EXPECT_EQ(row.at("n").as_u32(), 64u);
  EXPECT_EQ(row.at("block").as_u32(), 16u);
  EXPECT_EQ(row.at("params").as_string(), hostile);
  EXPECT_EQ(row.at("verified").as_bool(), false);
  EXPECT_EQ(row.at("cycles").as_u64(), table.at(0).run.result.cycles);
  EXPECT_DOUBLE_EQ(row.at("ipc").as_number(), table.at(0).ipc());
  EXPECT_DOUBLE_EQ(row.at("power_mw").as_number(), table.at(0).power_mw());
  // Stall counters are u64s; spot-check one survives exactly.
  EXPECT_EQ(row.at("stalls").at("int_issue_cycles").as_u64(),
            table.at(0).run.region.int_issue_cycles());
}

// --- request validation ------------------------------------------------------

TEST(ServeRequest, ParsesRunRequestWithDefaults) {
  const auto r = serve::parse_request(
      R"({"id":7,"type":"run","workloads":["exp"],"block":[16,32]})", 1000);
  EXPECT_EQ(r.id, 7u);
  EXPECT_EQ(r.type, serve::Request::Type::kRun);
  ASSERT_EQ(r.workloads.size(), 1u);
  EXPECT_EQ(r.workloads[0], "exp");
  EXPECT_TRUE(r.variants.empty());  // absent axes take workload defaults
  EXPECT_EQ(r.blocks, (std::vector<std::uint32_t>{16, 32}));
  EXPECT_TRUE(r.verify);
  EXPECT_TRUE(r.progress);
}

TEST(ServeRequest, HealthAndStatsNeedNoAxes) {
  EXPECT_EQ(serve::parse_request(R"({"id":1,"type":"health"})", 10).type,
            serve::Request::Type::kHealth);
  EXPECT_EQ(serve::parse_request(R"({"id":2,"type":"stats"})", 10).type,
            serve::Request::Type::kStats);
}

TEST(ServeRequest, UnknownWorkloadListsRegistry) {
  try {
    (void)serve::parse_request(R"({"id":1,"type":"run","workloads":["nope"]})", 10);
    FAIL() << "unknown workload accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nope"), std::string::npos) << what;
    EXPECT_NE(what.find("exp"), std::string::npos) << what;  // registered names listed
  }
}

TEST(ServeRequest, UnknownKeysListAllowedKeys) {
  try {
    (void)serve::parse_request(R"({"id":1,"type":"run","workloads":["exp"],"bogus":1})", 10);
    FAIL() << "unknown key accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos) << what;
    EXPECT_NE(what.find("workloads"), std::string::npos) << what;
  }
}

TEST(ServeRequest, RejectsBadAxisValues) {
  EXPECT_THROW((void)serve::parse_request(
                   R"({"id":1,"type":"run","workloads":["exp"],"n":[0]})", 10),
               Error);
  EXPECT_THROW((void)serve::parse_request(
                   R"({"id":1,"type":"run","workloads":["exp"],"block":[-4]})", 10),
               Error);
  EXPECT_THROW((void)serve::parse_request(
                   R"({"id":1,"type":"run","workloads":["exp"],"variants":["quantum"]})", 10),
               Error);
  // Seed 0 is a legal seed value.
  EXPECT_NO_THROW((void)serve::parse_request(
      R"({"id":1,"type":"run","workloads":["exp"],"seeds":[0]})", 10));
}

TEST(ServeRequest, PreValidatesGridPoints) {
  // cores=3 does not divide n=256: Workload::validate rejects the point, and
  // the request dies at parse time instead of mid-sweep.
  try {
    (void)serve::parse_request(
        R"({"id":1,"type":"run","workloads":["exp"],"n":[256],"cores":[3]})", 10);
    FAIL() << "invalid grid point accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("divide"), std::string::npos) << e.what();
  }
}

TEST(ServeRequest, EnforcesMaxPoints) {
  try {
    (void)serve::parse_request(
        R"({"id":1,"type":"run","workloads":["exp"],"seeds":[1,2,3,4,5,6]})", 5);
    FAIL() << "oversized grid accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("6"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("5"), std::string::npos) << e.what();
  }
}

TEST(ServeRequest, RejectsHugeGridWithoutIterating) {
  // The grid size is a *product* of axis sizes, so a compact line can encode
  // an astronomical cross product (here 2000^4 = 1.6e13 points). The limit
  // must be enforced on the product of sizes, not by counting inside the
  // expansion loop — this request must be rejected in well under a second.
  std::string axis = "[";
  for (int i = 1; i <= 2000; ++i) {
    if (i > 1) axis += ',';
    axis += std::to_string(i);
  }
  axis += ']';
  const std::string line = R"({"id":1,"type":"run","workloads":["exp"],"n":)" + axis +
                           R"(,"block":)" + axis + R"(,"cores":)" + axis + R"(,"seeds":)" +
                           axis + "}";
  const auto t0 = std::chrono::steady_clock::now();
  try {
    (void)serve::parse_request(line, 65536);
    FAIL() << "huge grid accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("65536"), std::string::npos) << e.what();
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 1000)
      << "max_points check iterated the cross product";
}

// --- result cache ------------------------------------------------------------

serve::ResultKey test_key(std::uint32_t seed) {
  serve::ResultKey key;
  key.workload = "exp";
  key.n = 64;
  key.block = 16;
  key.seed = seed;
  key.cores = 1;
  return key;
}

engine::ResultRow dummy_row(std::uint64_t cycles) {
  engine::ResultRow row;
  row.run.result.cycles = cycles;
  return row;
}

TEST(ServeCache, MissThenHit) {
  serve::ResultCache cache(4);
  serve::ResultCache::EntryPtr entry;
  ASSERT_EQ(cache.lookup_or_claim(test_key(1), entry), serve::ResultCache::Claim::kOwned);
  cache.publish(entry, dummy_row(123));

  serve::ResultCache::EntryPtr again;
  ASSERT_EQ(cache.lookup_or_claim(test_key(1), again), serve::ResultCache::Claim::kHit);
  EXPECT_EQ(again->wait().run.result.cycles, 123u);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ServeCache, CoalescesConcurrentClaims) {
  serve::ResultCache cache(4);
  serve::ResultCache::EntryPtr owner;
  ASSERT_EQ(cache.lookup_or_claim(test_key(1), owner), serve::ResultCache::Claim::kOwned);

  serve::ResultCache::EntryPtr shared;
  ASSERT_EQ(cache.lookup_or_claim(test_key(1), shared), serve::ResultCache::Claim::kShared);
  EXPECT_EQ(owner.get(), shared.get());

  std::uint64_t seen = 0;
  std::thread waiter([&] { seen = shared->wait().run.result.cycles; });
  cache.publish(owner, dummy_row(77));
  waiter.join();
  EXPECT_EQ(seen, 77u);
  EXPECT_EQ(cache.stats().coalesced, 1u);
}

TEST(ServeCache, FailedEntriesRetryInsteadOfCachingTheError) {
  serve::ResultCache cache(4);
  serve::ResultCache::EntryPtr entry;
  ASSERT_EQ(cache.lookup_or_claim(test_key(1), entry), serve::ResultCache::Claim::kOwned);

  serve::ResultCache::EntryPtr waiter;
  ASSERT_EQ(cache.lookup_or_claim(test_key(1), waiter), serve::ResultCache::Claim::kShared);
  cache.fail(test_key(1), entry, "simulated explosion");
  try {
    (void)waiter->wait();
    FAIL() << "failed entry returned a row";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("simulated explosion"), std::string::npos);
  }

  // The key was dropped: the next request claims it fresh.
  serve::ResultCache::EntryPtr retry;
  EXPECT_EQ(cache.lookup_or_claim(test_key(1), retry), serve::ResultCache::Claim::kOwned);
  EXPECT_EQ(cache.stats().failures, 1u);
}

TEST(ServeCache, EvictsLeastRecentlyUsed) {
  serve::ResultCache cache(2);
  for (std::uint32_t seed = 1; seed <= 2; ++seed) {
    serve::ResultCache::EntryPtr e;
    ASSERT_EQ(cache.lookup_or_claim(test_key(seed), e), serve::ResultCache::Claim::kOwned);
    cache.publish(e, dummy_row(seed));
  }
  // Touch seed 1 so seed 2 becomes the LRU victim.
  serve::ResultCache::EntryPtr touch;
  ASSERT_EQ(cache.lookup_or_claim(test_key(1), touch), serve::ResultCache::Claim::kHit);

  serve::ResultCache::EntryPtr e3;
  ASSERT_EQ(cache.lookup_or_claim(test_key(3), e3), serve::ResultCache::Claim::kOwned);
  cache.publish(e3, dummy_row(3));

  serve::ResultCache::EntryPtr probe;
  EXPECT_EQ(cache.lookup_or_claim(test_key(1), probe), serve::ResultCache::Claim::kHit);
  EXPECT_EQ(cache.lookup_or_claim(test_key(2), probe), serve::ResultCache::Claim::kOwned);

  // Two evictions: seed 2 when seed 3 arrived, then seed 3 when the seed-2
  // probe re-claimed its key; capacity is never exceeded by completed entries.
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(ServeCache, InFlightEntriesAreNotEvicted) {
  serve::ResultCache cache(1);
  serve::ResultCache::EntryPtr inflight;
  ASSERT_EQ(cache.lookup_or_claim(test_key(1), inflight), serve::ResultCache::Claim::kOwned);

  // A second key overflows capacity, but the only candidate is in flight and
  // must be skipped; the original claim stays reachable.
  serve::ResultCache::EntryPtr other;
  ASSERT_EQ(cache.lookup_or_claim(test_key(2), other), serve::ResultCache::Claim::kOwned);
  serve::ResultCache::EntryPtr probe;
  EXPECT_EQ(cache.lookup_or_claim(test_key(1), probe), serve::ResultCache::Claim::kShared);
  cache.publish(inflight, dummy_row(1));
  cache.publish(other, dummy_row(2));
}

TEST(ServeCache, KeyDistinguishesParamsAndVerify) {
  serve::ResultCache cache(8);
  auto base = test_key(1);
  auto no_verify = base;
  no_verify.verify = false;

  serve::ResultCache::EntryPtr a, b;
  EXPECT_EQ(cache.lookup_or_claim(base, a), serve::ResultCache::Claim::kOwned);
  EXPECT_EQ(cache.lookup_or_claim(no_verify, b), serve::ResultCache::Claim::kOwned);
  EXPECT_NE(a.get(), b.get());
}

TEST(ServeCache, ParamsFingerprintTracksEveryField) {
  sim::SimParams base;
  const std::string before = serve::params_fingerprint(base);
  EXPECT_EQ(before, serve::params_fingerprint(sim::SimParams{}));  // deterministic

  sim::SimParams changed = base;
  changed.offload_fifo_depth += 1;
  EXPECT_NE(serve::params_fingerprint(changed), before);

  sim::SimParams lat = base;
  lat.fpu.fma += 1;
  EXPECT_NE(serve::params_fingerprint(lat), before);
}

// --- cache persistence -------------------------------------------------------

serve::ResultKey persist_key(std::uint32_t seed, std::uint32_t cores = 1) {
  serve::ResultKey key = test_key(seed);
  key.cores = cores;
  return key;
}

/// A row with distinctive bits in every persisted field.
engine::ResultRow persist_row(std::uint32_t cores) {
  engine::ResultRow row;
  row.run.result.halted = true;
  row.run.result.cycles = 0xdeadbeefcafeull;
  row.run.result.exit_code = 7;
  row.run.verified = true;
  row.run.total.cycles = 1111;
  row.run.total.fp_retired = 2222;
  row.run.total.slot(sim::StallCause::kIntDmaDram) = 4444;
  row.run.region.cycles = 333;
  row.run.region.slot(sim::StallCause::kFpIdle) = 555;
  row.run.region_energy.total_pj = 1.25e6;
  row.run.region_energy.memory_pj = 0.1;  // not exactly representable: bit test
  row.run.region_energy.cycles = 333;
  for (std::uint32_t h = 0; h < cores; ++h) {
    sim::ActivityCounters hc;
    hc.cycles = 1000 + h;
    row.run.hart_region.push_back(hc);
    energy::EnergyReport he;
    he.total_pj = 10.5 + h;
    row.run.hart_energy.push_back(he);
  }
  return row;
}

std::shared_ptr<const workload::Workload> registry_resolver(const std::string& name) {
  return workload::WorkloadRegistry::instance().find(name);
}

TEST(ServeCachePersist, SaveLoadRoundTripsEveryField) {
  serve::ResultCache cache(8);
  serve::ResultCache::EntryPtr entry;
  ASSERT_EQ(cache.lookup_or_claim(persist_key(1, 4), entry), serve::ResultCache::Claim::kOwned);
  cache.publish(entry, persist_row(4));

  std::stringstream file;
  EXPECT_EQ(cache.save(file), 1u);

  serve::ResultCache reloaded(8);
  EXPECT_EQ(reloaded.load(file, registry_resolver), 1u);
  EXPECT_EQ(reloaded.stats().reloaded, 1u);

  serve::ResultCache::EntryPtr hit;
  ASSERT_EQ(reloaded.lookup_or_claim(persist_key(1, 4), hit), serve::ResultCache::Claim::kHit);
  const engine::ResultRow& row = hit->wait();
  const engine::ResultRow want = persist_row(4);
  EXPECT_EQ(row.run.result.halted, want.run.result.halted);
  EXPECT_EQ(row.run.result.cycles, want.run.result.cycles);
  EXPECT_EQ(row.run.result.exit_code, want.run.result.exit_code);
  EXPECT_EQ(row.run.verified, want.run.verified);
  EXPECT_EQ(std::memcmp(&row.run.total, &want.run.total, sizeof(sim::ActivityCounters)), 0);
  EXPECT_EQ(std::memcmp(&row.run.region, &want.run.region, sizeof(sim::ActivityCounters)), 0);
  // Doubles persist as bit patterns, so equality is exact.
  EXPECT_EQ(row.run.region_energy.total_pj, want.run.region_energy.total_pj);
  EXPECT_EQ(row.run.region_energy.memory_pj, want.run.region_energy.memory_pj);
  ASSERT_EQ(row.run.hart_region.size(), 4u);
  ASSERT_EQ(row.run.hart_energy.size(), 4u);
  for (std::uint32_t h = 0; h < 4; ++h) {
    EXPECT_EQ(row.run.hart_region[h].cycles, 1000u + h);
    EXPECT_EQ(row.run.hart_energy[h].total_pj, 10.5 + h);
  }
  // The point was reconstructed from the key + registry.
  ASSERT_NE(row.point.workload, nullptr);
  EXPECT_EQ(row.point.workload->name(), "exp");
  EXPECT_EQ(row.point.config.seed, 1u);
  EXPECT_EQ(row.point.config.cores, 4u);
  EXPECT_EQ(row.point.params.num_cores, 4u);
}

/// The header line and the body of a saved one-entry cache file.
std::pair<std::string, std::string> saved_file() {
  serve::ResultCache cache(8);
  serve::ResultCache::EntryPtr entry;
  EXPECT_EQ(cache.lookup_or_claim(persist_key(1, 4), entry), serve::ResultCache::Claim::kOwned);
  cache.publish(entry, persist_row(4));
  std::stringstream file;
  EXPECT_EQ(cache.save(file), 1u);
  std::string header;
  std::getline(file, header);
  return {header, file.str().substr(header.size() + 1)};
}

TEST(ServeCachePersist, RejectsVersionAndLayoutMismatch) {
  serve::ResultCache cache(4);
  const std::string header = saved_file().first;
  ASSERT_EQ(header.rfind("copift-cache v2 layout=", 0), 0u) << header;
  // A v1 file (entries without checksums) stamped like this build.
  std::stringstream v1("copift-cache v1 " + header.substr(16) + "\n");
  EXPECT_THROW((void)cache.load(v1, registry_resolver), Error);
  std::stringstream layout("copift-cache v2 layout=0123456789abcdef\n");
  EXPECT_THROW((void)cache.load(layout, registry_resolver), Error);
  std::stringstream garbage("not a cache file\n");
  EXPECT_THROW((void)cache.load(garbage, registry_resolver), Error);
  EXPECT_EQ(cache.stats().reloaded, 0u);
}

// Files saved before the slot counters moved into one array stamp the
// struct's size (472 bytes then, the same as after the move); their slot
// words are in another order, so they must take the "ignoring cache file"
// path, not load as hits.
TEST(ServeCachePersist, RejectsFileWithTheSameSizeButAnotherWordOrder) {
  const auto [header, body] = saved_file();
  serve::ResultCache cache(8);
  // The header the old format wrote.
  std::stringstream old_layout("copift-cache v1 counters=472\n" + body);
  EXPECT_THROW((void)cache.load(old_layout, registry_resolver), Error);
  EXPECT_EQ(cache.stats().reloaded, 0u);
  std::stringstream current(header + "\n" + body);
  EXPECT_EQ(cache.load(current, registry_resolver), 1u);
}

// The rows were simulated under the writer's SimParams defaults, which the
// key does not carry: a file from a build with other defaults must take the
// "ignoring cache file" path, not load as hits.
TEST(ServeCachePersist, RejectsFileWrittenUnderOtherSimParamsDefaults) {
  const auto [header, body] = saved_file();
  const std::size_t at = header.find(" params=");
  ASSERT_NE(at, std::string::npos) << header;
  sim::SimParams other;
  other.ssr_cfg_latency += 10;
  serve::ResultCache cache(8);
  std::stringstream stale(header.substr(0, at) + " params=" + serve::params_fingerprint(other) +
                          "\n" + body);
  EXPECT_THROW((void)cache.load(stale, registry_resolver), Error);
  // The header earlier builds wrote, without the stamp.
  std::stringstream unstamped(header.substr(0, at) + "\n" + body);
  EXPECT_THROW((void)cache.load(unstamped, registry_resolver), Error);
  EXPECT_EQ(cache.stats().reloaded, 0u);
}

TEST(ServeCachePersist, SkipsInFlightAndNonCanonicalEntries) {
  serve::ResultCache cache(8);
  // In flight: claimed but never published.
  serve::ResultCache::EntryPtr inflight;
  ASSERT_EQ(cache.lookup_or_claim(persist_key(1), inflight), serve::ResultCache::Claim::kOwned);
  // A steady row (the daemon never makes one, and the file has no place for
  // its marginal metrics).
  serve::ResultCache::EntryPtr steady;
  ASSERT_EQ(cache.lookup_or_claim(test_key(9), steady), serve::ResultCache::Claim::kOwned);
  engine::ResultRow steady_row = dummy_row(9);
  steady_row.steady = true;
  cache.publish(steady, steady_row);

  std::stringstream file;
  EXPECT_EQ(cache.save(file), 0u);
  cache.publish(inflight, dummy_row(1));
}

TEST(ServeCachePersist, UnknownWorkloadsAndResidentKeysAreSkipped) {
  serve::ResultCache cache(8);
  serve::ResultCache::EntryPtr a, b;
  auto ghost = persist_key(1);
  ghost.workload = "workload-from-the-future";
  ASSERT_EQ(cache.lookup_or_claim(ghost, a), serve::ResultCache::Claim::kOwned);
  cache.publish(a, dummy_row(1));
  ASSERT_EQ(cache.lookup_or_claim(persist_key(2), b), serve::ResultCache::Claim::kOwned);
  cache.publish(b, dummy_row(2));

  std::stringstream file;
  EXPECT_EQ(cache.save(file), 2u);

  // Target cache already holds key 2 with different cycles: the live entry
  // wins; the ghost workload cannot be resolved and is dropped.
  serve::ResultCache target(8);
  serve::ResultCache::EntryPtr live;
  ASSERT_EQ(target.lookup_or_claim(persist_key(2), live), serve::ResultCache::Claim::kOwned);
  target.publish(live, dummy_row(42));
  EXPECT_EQ(target.load(file, registry_resolver), 0u);
  serve::ResultCache::EntryPtr probe;
  ASSERT_EQ(target.lookup_or_claim(persist_key(2), probe), serve::ResultCache::Claim::kHit);
  EXPECT_EQ(probe->wait().run.result.cycles, 42u);
}

TEST(ServeCachePersist, LoadPreservesLruOrder) {
  serve::ResultCache cache(8);
  for (std::uint32_t seed = 1; seed <= 3; ++seed) {
    serve::ResultCache::EntryPtr e;
    ASSERT_EQ(cache.lookup_or_claim(persist_key(seed), e), serve::ResultCache::Claim::kOwned);
    cache.publish(e, dummy_row(seed));
  }
  // Touch seed 1: recency order (MRU first) is now 1, 3, 2.
  serve::ResultCache::EntryPtr touch;
  ASSERT_EQ(cache.lookup_or_claim(persist_key(1), touch), serve::ResultCache::Claim::kHit);

  std::stringstream file;
  EXPECT_EQ(cache.save(file), 3u);

  // Reload into a capacity-2 cache: the LRU entry (seed 2) must be the one
  // evicted during the reload, proving the order survived the round trip.
  serve::ResultCache small(2);
  EXPECT_EQ(small.load(file, registry_resolver), 3u);
  serve::ResultCache::EntryPtr probe;
  EXPECT_EQ(small.lookup_or_claim(persist_key(2), probe), serve::ResultCache::Claim::kOwned);
}

/// Equal bit for bit in every field a cache file persists.
bool same_run(const kernels::KernelRun& a, const kernels::KernelRun& b) {
  const auto same = [](const auto& x, const auto& y) {
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  };
  if (a.result.halted != b.result.halted || a.result.cycles != b.result.cycles ||
      a.result.exit_code != b.result.exit_code || a.verified != b.verified ||
      !same(a.total, b.total) || !same(a.region, b.region) ||
      !same(a.region_energy, b.region_energy) || a.hart_region.size() != b.hart_region.size() ||
      a.hart_energy.size() != b.hart_energy.size()) {
    return false;
  }
  for (std::size_t h = 0; h < a.hart_region.size(); ++h) {
    if (!same(a.hart_region[h], b.hart_region[h]) || !same(a.hart_energy[h], b.hart_energy[h])) {
      return false;
    }
  }
  return true;
}

/// One edit of a saved file's lines: delete, duplicate or swap whole lines,
/// or replace one character or one space-separated token of a line.
void mutate_cache_lines(std::vector<std::string>& lines, std::mt19937& rng, std::string& what) {
  static constexpr char kChars[] = {'0', '1', '7', 'f', 'g', '-', ' ', '\t', 'x'};
  static constexpr const char* kTokens[] = {"0",    "1",     "-1",  "ffffffffffffffff",
                                            "1000000000000000000000", "4294967296",
                                            "exp",  "point", "end", ""};
  const auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  const std::size_t l = pick(lines.size());
  std::string& line = lines[l];
  switch (pick(5)) {
    case 0:
      what += " delete line " + std::to_string(l + 1);
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(l));
      return;
    case 1:
      what += " duplicate line " + std::to_string(l + 1);
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(l), line);
      return;
    case 2: {
      const std::size_t m = pick(lines.size());
      what += " swap lines " + std::to_string(l + 1) + "," + std::to_string(m + 1);
      std::swap(lines[l], lines[m]);
      return;
    }
    case 3: {
      if (line.empty()) return;
      const std::size_t at = pick(line.size());
      line[at] = kChars[pick(std::size(kChars))];
      what += " line " + std::to_string(l + 1) + " char " + std::to_string(at);
      return;
    }
    default: {
      std::vector<std::pair<std::size_t, std::size_t>> tokens;  // (start, length)
      for (std::size_t pos = 0; pos < line.size();) {
        const std::size_t start = line.find_first_not_of(' ', pos);
        if (start == std::string::npos) break;
        const std::size_t end = std::min(line.find(' ', start), line.size());
        tokens.emplace_back(start, end - start);
        pos = end;
      }
      if (tokens.empty()) return;
      const auto [start, length] = tokens[pick(tokens.size())];
      const std::string token = kTokens[pick(std::size(kTokens))];
      line.replace(start, length, token);
      what += " line " + std::to_string(l + 1) + " token -> '" + token + "'";
      return;
    }
  }
}

// A damaged --cache-file must never load as hits that differ from what was
// saved: every one- or two-edit mutant of a four-entry file either throws
// copift::Error or restores some of the saved (key, row) pairs bit for bit.
TEST(ServeCachePersist, EveryMutantThrowsOrRestoresSavedEntries) {
  std::vector<std::pair<serve::ResultKey, engine::ResultRow>> saved;
  serve::ResultCache source(8);
  for (const auto [seed, cores] : {std::pair{1u, 1u}, {2u, 2u}, {3u, 4u}, {4u, 1u}}) {
    engine::ResultRow row = persist_row(cores);
    row.run.result.cycles += seed;
    row.run.total.fp_retired += seed;
    serve::ResultCache::EntryPtr entry;
    ASSERT_EQ(source.lookup_or_claim(persist_key(seed, cores), entry),
              serve::ResultCache::Claim::kOwned);
    source.publish(entry, row);
    saved.emplace_back(persist_key(seed, cores), row);
  }
  std::stringstream file;
  ASSERT_EQ(source.save(file), saved.size());
  std::vector<std::string> original;
  for (std::string line; std::getline(file, line);) original.push_back(line);

  std::mt19937 rng(20251);
  constexpr int kMutants = 2000;
  int loaded = 0;
  int rejected = 0;
  int bad = 0;
  for (int i = 0; i < kMutants; ++i) {
    auto lines = original;
    std::string what;
    const int edits = 1 + static_cast<int>(rng() % 2);
    for (int e = 0; e < edits && !lines.empty(); ++e) mutate_cache_lines(lines, rng, what);
    std::string text;
    for (const auto& l : lines) text.append(l).push_back('\n');
    std::istringstream in(text);
    serve::ResultCache cache(16);
    std::size_t restored = 0;
    try {
      restored = cache.load(in, registry_resolver);
    } catch (const Error&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      if (++bad <= 10) ADD_FAILURE() << "mutant" << what << ": escaped as " << e.what();
      continue;
    }
    ++loaded;
    // Every restored entry is one of the saved keys with its saved row.
    std::size_t matched = 0;
    for (const auto& [key, row] : saved) {
      serve::ResultCache::EntryPtr hit;
      if (cache.lookup_or_claim(key, hit) != serve::ResultCache::Claim::kHit) continue;
      if (!same_run(hit->wait().run, row.run)) {
        if (++bad <= 10) ADD_FAILURE() << "mutant" << what << ": seed " << key.seed << " changed";
      }
      ++matched;
    }
    if (matched != restored && ++bad <= 10) {
      ADD_FAILURE() << "mutant" << what << ": restored " << restored << " entries, " << matched
                    << " of them saved keys";
    }
  }
  EXPECT_EQ(bad, 0);
  EXPECT_GT(rejected, kMutants / 2);
  EXPECT_GT(loaded, 0);
}

// --- end-to-end server -------------------------------------------------------

/// Minimal blocking test client for the line protocol.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw Error("test client connect failed");
    }
    conn_ = std::make_unique<serve::Connection>(fd_);
  }

  void send(const std::string& line) { ASSERT_TRUE(conn_->send_line(line)); }

  /// Next line as parsed JSON (30 s safety timeout).
  Json next() {
    std::string line;
    const auto status = conn_->read_line(line, -1, 30000, 1 << 24);
    if (status != serve::Connection::ReadStatus::kLine) {
      throw Error("test client read failed (status " +
                  std::to_string(static_cast<int>(status)) + ")");
    }
    return Json::parse(line);
  }

  /// Skip accepted/progress events and return the final result/error event.
  Json final_event(std::uint64_t id) {
    while (true) {
      const Json doc = next();
      EXPECT_EQ(doc.at("id").as_u64(), id);
      const std::string& event = doc.at("event").as_string();
      if (event == "result" || event == "error" || event == "health" || event == "stats") {
        return doc;
      }
    }
  }

 private:
  int fd_ = -1;
  std::unique_ptr<serve::Connection> conn_;
};

serve::ServerConfig small_server_config() {
  serve::ServerConfig config;
  config.port = 0;  // ephemeral
  config.engine_threads = 2;
  config.cache_entries = 64;
  return config;
}

TEST(ServeServer, ResultsAreBitIdenticalToBatchMode) {
  serve::Server server(small_server_config());
  server.start();

  TestClient client(server.port());
  client.send(R"({"id":5,"type":"run","workloads":["exp"],)"
              R"("variants":["baseline","copift"],"n":[128],"block":[16,32]})");
  const Json reply = client.final_event(5);
  ASSERT_EQ(reply.at("event").as_string(), "result") << reply.dump();

  // The same grid through batch mode, dumped through the same parser: the
  // serialized rows must match byte for byte (exact cycles, %.17g doubles).
  engine::Experiment e;
  e.over("exp").n(128).sweep({16, 32});
  e.over({workload::Variant::kBaseline, workload::Variant::kCopift});
  engine::SimEngine pool(2);
  const auto table = e.run(pool);
  const Json batch = Json::parse(table.json());

  EXPECT_EQ(reply.at("rows").dump(), batch.dump());
  EXPECT_EQ(reply.at("rows").as_array().size(), 4u);
}

TEST(ServeServer, CachesRepeatAndConcurrentRequests) {
  serve::Server server(small_server_config());
  server.start();

  const std::string sweep = R"({"id":1,"type":"run","workloads":["exp"],)"
                            R"("n":[256],"block":[16,32],"progress":false})";

  // Four concurrent clients issue the identical sweep; then one repeats it.
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      TestClient c(server.port());
      c.send(sweep);
      const Json reply = c.final_event(1);
      if (reply.at("event").as_string() == "result" &&
          reply.at("rows").as_array().size() == 2) {
        ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), 4);

  TestClient c(server.port());
  c.send(sweep);
  const Json repeat = c.final_event(1);
  ASSERT_EQ(repeat.at("event").as_string(), "result");
  // The repeat is served entirely from cache.
  EXPECT_EQ(repeat.at("cache").at("hits").as_u64(), 2u);
  EXPECT_EQ(repeat.at("cache").at("simulated").as_u64(), 0u);

  // 5 requests x 2 points = 10 requested, but only 2 unique points simulated.
  const auto stats = server.stats();
  EXPECT_EQ(stats.points_requested, 10u);
  EXPECT_EQ(stats.points_simulated, 2u);
  EXPECT_EQ(stats.cache.hits + stats.cache.coalesced, 8u);
}

TEST(ServeServer, BadRequestsKeepTheConnectionUsable) {
  serve::Server server(small_server_config());
  server.start();

  TestClient client(server.port());
  client.send("this is not json");
  Json err = client.next();
  EXPECT_EQ(err.at("event").as_string(), "error");

  client.send(R"({"id":9,"type":"run","workloads":["nope"]})");
  err = client.next();
  EXPECT_EQ(err.at("event").as_string(), "error");
  EXPECT_EQ(err.at("id").as_u64(), 9u);  // id recovered from the bad request
  EXPECT_NE(err.at("message").as_string().find("nope"), std::string::npos);

  // The connection survived both errors.
  client.send(R"({"id":10,"type":"health"})");
  const Json health = client.final_event(10);
  EXPECT_EQ(health.at("status").as_string(), "ok");
}

TEST(ServeServer, GracefulShutdownDrainsQueuedWork) {
  serve::Server server(small_server_config());
  server.start();

  TestClient client(server.port());
  client.send(R"({"id":3,"type":"run","workloads":["exp"],"n":[256],)"
              R"("block":[8,16,32,64],"progress":false})");
  // Wait until the sweep is queued, then shut down: the queued work must
  // still complete and its response flush before the threads exit.
  const Json accepted = client.next();
  ASSERT_EQ(accepted.at("event").as_string(), "accepted");
  server.request_shutdown();
  const Json reply = client.final_event(3);
  ASSERT_EQ(reply.at("event").as_string(), "result") << reply.dump();
  EXPECT_EQ(reply.at("rows").as_array().size(), 4u);
  server.wait();  // all threads join; no hang
}

TEST(ServeServer, StatsReplyIsOneJsonObject) {
  serve::Server server(small_server_config());
  server.start();
  TestClient client(server.port());
  client.send(R"({"id":4,"type":"stats"})");
  const Json stats = client.final_event(4);  // parses the line
  EXPECT_EQ(stats.at("event").as_string(), "stats");
  EXPECT_EQ(stats.at("engine_threads").as_u64(), 2u);
  EXPECT_EQ(stats.at("cache").at("capacity").as_u64(), 64u);
  EXPECT_GE(stats.at("cache").at("hit_rate").as_number(), 0.0);
}

// A restarted daemon answers a multi-hart sweep from its --cache-file: every
// point, whatever its core count, was persisted and reloads as a hit.
TEST(ServeServer, CacheFileKeepsMultiHartResultsAcrossRestart) {
  const std::string file = testing::TempDir() + "copift_serve_restart_" +
                           std::to_string(::getpid()) + ".cache";
  std::remove(file.c_str());
  const std::string sweep = R"({"id":1,"type":"run","workloads":["axpy"],)"
                            R"("cores":[1,2,4],"progress":false})";
  serve::ServerConfig config = small_server_config();
  config.cache_file = file;

  std::string first_rows;
  {
    serve::Server server(config);
    server.start();
    TestClient client(server.port());
    client.send(sweep);
    const Json reply = client.final_event(1);
    ASSERT_EQ(reply.at("event").as_string(), "result") << reply.dump();
    EXPECT_EQ(reply.at("cache").at("simulated").as_u64(), 3u);
    first_rows = reply.at("rows").dump();
    server.request_shutdown();
    server.wait();  // persists the cache
  }

  serve::Server server(config);
  server.start();
  EXPECT_EQ(server.stats().cache.reloaded, 3u);
  TestClient client(server.port());
  client.send(sweep);
  const Json reply = client.final_event(1);
  ASSERT_EQ(reply.at("event").as_string(), "result") << reply.dump();
  EXPECT_EQ(reply.at("cache").at("simulated").as_u64(), 0u);
  EXPECT_EQ(reply.at("cache").at("hits").as_u64(), 3u);
  EXPECT_EQ(reply.at("rows").dump(), first_rows);
  server.request_shutdown();
  server.wait();
  std::remove(file.c_str());
}

}  // namespace
