// Fidelity of the fast cycle loop: the decoded micro-op table is shared
// across clusters running one program, the steady-state loop performs no
// heap allocation with tracing off (via the operator new override below),
// and every registry point's simulated counters match pinned hashes, so no
// host-side speedup moves a simulated event.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>

#include "fnv1a.hpp"
#include "kernels/runner.hpp"
#include "registry_points.hpp"
#include "rvasm/assembler.hpp"
#include "sim/cluster.hpp"
#include "sim/decode.hpp"
#include "sim/params.hpp"
#include "workload/workload.hpp"

// --- global allocation counter ---------------------------------------------
// Defining the global operators in this TU replaces them binary-wide; the
// counter lets AllocationFree.* bracket a code region and assert the heap
// was never touched. Counting is on allocation only (deallocation is free of
// interest here).
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_alloc_count;
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace copift::sim {
namespace {

using workload::Variant;
using workload::WorkloadConfig;

// --- decode cache ------------------------------------------------------------

// The decoded table is shared: two clusters over the same program instance
// decode once, not twice.
TEST(DecodeCacheFidelity, DecodedProgramSharedAcrossClusters) {
  auto program = std::make_shared<const rvasm::Program>(rvasm::assemble(R"(
  li a0, 1
  ecall
)"));
  const auto d1 = DecodedProgram::get(program);
  const auto d2 = DecodedProgram::get(program);
  EXPECT_EQ(d1.get(), d2.get());
  Cluster c1(program), c2(program);
  EXPECT_EQ(c1.run().cycles, c2.run().cycles);
}

// --- allocation-free steady state -------------------------------------------

/// Runs `kernel` once to learn its length, then again with the heap
/// allocation counter bracketing the second half of the run.
void expect_steady_state_allocation_free(const workload::GeneratedWorkload& kernel,
                                         SimParams params) {
  params.num_cores = kernel.config.cores;
  Cluster cluster(rvasm::assemble(kernel.source), params);
  kernels::populate_inputs(cluster, kernel);
  // Warm up over the first half of the run.
  Cluster reference(rvasm::assemble(kernel.source), params);
  kernels::populate_inputs(reference, kernel);
  const std::uint64_t total = reference.run().cycles;
  while (!cluster.halted() && cluster.cycles() < total / 2) cluster.tick();
  ASSERT_FALSE(cluster.halted());
  const std::uint64_t before = g_alloc_count.load();
  while (!cluster.halted()) cluster.tick();
  EXPECT_EQ(g_alloc_count.load(), before)
      << "steady-state cycle loop allocated " << (g_alloc_count.load() - before)
      << " times";
  EXPECT_EQ(cluster.cycles(), total);
}

// After warmup (ring FIFOs grown, lazy pages touched, completion-wheel
// slots sized), the cycle loop must not touch the heap at all with tracing off:
// for the full COPIFT kernel including SSR streams and FREP replays, and for
// a tiled run whose DMA queue streams every tile through the DRAM model.
TEST(AllocationFree, SteadyStateDoesNotAllocate) {
  const auto& registry = workload::WorkloadRegistry::instance();
  {
    SCOPED_TRACE("exp/copift n=768 block=32");
    WorkloadConfig cfg;
    cfg.n = 768;
    cfg.block = 32;
    expect_steady_state_allocation_free(registry.at("exp")->instantiate(Variant::kCopift, cfg),
                                        SimParams{});
  }
  {
    SCOPED_TRACE("axpy/copift n=65536 tile=1024 cores=2 dram");
    const auto axpy = registry.at("axpy");
    WorkloadConfig cfg;
    cfg.n = 65536;
    cfg.tile = 1024;
    cfg.cores = 2;
    cfg.block = axpy->default_config().block;
    SimParams params;
    params.dram_enabled = true;
    expect_steady_state_allocation_free(axpy->instantiate(Variant::kCopift, cfg), params);
  }
}

// --- pinned simulated counters ------------------------------------------------

/// FNV-1a 64 of a finished run: its cycle count, then per hart the full
/// ActivityCounters and every region snapshot (id and counters).
std::uint64_t run_hash(const Cluster& cluster, std::uint64_t cycles) {
  static_assert(std::is_trivially_copyable_v<ActivityCounters> &&
                sizeof(ActivityCounters) % sizeof(std::uint64_t) == 0);
  testing::Fnv1a h;
  const auto add_counters = [&](const ActivityCounters& c) {
    std::uint64_t fields[sizeof(ActivityCounters) / sizeof(std::uint64_t)];
    std::memcpy(fields, &c, sizeof(c));
    for (const std::uint64_t f : fields) h.u64(f);
  };
  h.u64(cycles);
  for (unsigned hart = 0; hart < cluster.num_cores(); ++hart) {
    const CoreComplex& cx = cluster.complex(hart);
    add_counters(cx.counters());
    h.u32(static_cast<std::uint32_t>(cx.regions().size()));
    for (const RegionEvent& r : cx.regions()) {
      h.u32(r.id);
      add_counters(r.snapshot);
    }
  }
  return h.value();
}

struct PinnedRun {
  std::string_view point;
  std::uint64_t hash;  // run_hash with default SimParams, DRAM on for tiled points
};

// Re-captured when the slot counters moved into one array indexed by
// StallCause: the same values in a new word order (the parent tree, hashing
// its counters in that order, reproduces every row). Every counter of every
// hart is covered (l0_hits, tcdm_conflicts, dma_busy_cycles, dram_row_*
// included), so a host-side speedup that moves any simulated event fails
// here: update a row only when simulated behaviour is meant to change.
constexpr PinnedRun kPinnedRuns[] = {
    {"axpy/copift n=64 block=32 cores=1 tile=0", 0xdd8afccceca50581ULL},
    {"axpy/copift n=64 block=32 cores=4 tile=0", 0xb6bf55de87b98289ULL},
    {"axpy/copift n=65536 block=32 cores=2 tile=1024", 0xca1e3343cb79977bULL},
    {"axpy/baseline n=64 block=32 cores=1 tile=0", 0x1d28d2b281a570a3ULL},
    {"axpy/baseline n=64 block=32 cores=4 tile=0", 0x6f866e0d0d274befULL},
    {"axpy/baseline n=65536 block=32 cores=2 tile=1024", 0x968603824da23b73ULL},
    {"exp/copift n=64 block=16 cores=1 tile=0", 0xcecc28a78dfe6a6fULL},
    {"exp/copift n=64 block=4 cores=4 tile=0", 0xe9bfcddef07e9d03ULL},
    {"exp/copift n=65536 block=64 cores=2 tile=1024", 0x9888a99aba8a3ebfULL},
    {"exp/baseline n=64 block=96 cores=1 tile=0", 0x895ef6eed9d81e17ULL},
    {"exp/baseline n=64 block=96 cores=4 tile=0", 0x20303208b3ef25bbULL},
    {"exp/baseline n=65536 block=96 cores=2 tile=1024", 0x4d241193b1ec7682ULL},
    {"log/copift n=64 block=16 cores=1 tile=0", 0xc8c5db550a84b54dULL},
    {"log/copift n=64 block=4 cores=4 tile=0", 0x08c8600a7d5e8da1ULL},
    {"log/baseline n=64 block=96 cores=1 tile=0", 0x92cde5b9c03e3ad8ULL},
    {"log/baseline n=64 block=96 cores=4 tile=0", 0x5287c25d0e0a91e0ULL},
    {"pi_lcg/copift n=64 block=16 cores=1 tile=0", 0x6feae704922f0deaULL},
    {"pi_lcg/copift n=64 block=8 cores=4 tile=0", 0xa53776aa93d404a5ULL},
    {"pi_lcg/baseline n=64 block=96 cores=1 tile=0", 0x2ee8545d05458855ULL},
    {"pi_lcg/baseline n=64 block=96 cores=4 tile=0", 0x1d4fc37403b9be43ULL},
    {"pi_xoshiro128p/copift n=64 block=16 cores=1 tile=0", 0xf85ed26176f1bcc9ULL},
    {"pi_xoshiro128p/copift n=64 block=8 cores=4 tile=0", 0xe309b410198125cfULL},
    {"pi_xoshiro128p/baseline n=64 block=96 cores=1 tile=0", 0xea79bab570d89445ULL},
    {"pi_xoshiro128p/baseline n=64 block=96 cores=4 tile=0", 0xb6c27e8d8bace8d9ULL},
    {"poly_lcg/copift n=64 block=16 cores=1 tile=0", 0xea6c1e976c5798a6ULL},
    {"poly_lcg/copift n=64 block=8 cores=4 tile=0", 0x272817a63f5c89e3ULL},
    {"poly_lcg/baseline n=64 block=96 cores=1 tile=0", 0x2c9e3ab28c6427daULL},
    {"poly_lcg/baseline n=64 block=96 cores=4 tile=0", 0x2a95d952c2ebdf83ULL},
    {"poly_xoshiro128p/copift n=64 block=16 cores=1 tile=0", 0x3c6e7719be665237ULL},
    {"poly_xoshiro128p/copift n=64 block=8 cores=4 tile=0", 0x701d27aa2b3408f6ULL},
    {"poly_xoshiro128p/baseline n=64 block=96 cores=1 tile=0", 0x83500508ce6f09f4ULL},
    {"poly_xoshiro128p/baseline n=64 block=96 cores=4 tile=0", 0xeff98fba1d43152aULL},
    {"softmax/baseline n=64 block=32 cores=1 tile=0", 0x9ec246f0d01bbc05ULL},
};

TEST(SimCounters, EveryRegistryPointIsPinned) {
  std::set<std::string_view> matched;
  for (const auto& point : testing::registry_points()) {
    const auto generated = point.workload->instantiate(point.variant, point.config);
    SimParams params;
    params.num_cores = point.config.cores;
    params.dram_enabled = point.config.tile != 0;
    Cluster cluster(rvasm::assemble(generated.source), params);
    kernels::populate_inputs(cluster, generated);
    const std::uint64_t hash = run_hash(cluster, cluster.run().cycles);
    char row[160];
    std::snprintf(row, sizeof(row), "{\"%s\", 0x%016" PRIx64 "ULL},", point.label.c_str(), hash);
    const auto* pin = std::find_if(std::begin(kPinnedRuns), std::end(kPinnedRuns),
                                   [&](const PinnedRun& p) { return p.point == point.label; });
    if (pin == std::end(kPinnedRuns)) {
      ADD_FAILURE() << "registry point without a pinned row: " << row;
      continue;
    }
    matched.insert(pin->point);
    EXPECT_EQ(hash, pin->hash) << "simulated counters changed: " << row;
  }
  EXPECT_EQ(matched.size(), std::size(kPinnedRuns)) << "pinned rows with no registry point";
}

// The default-parameter pins above never reach zero-latency completions, a
// one-deep offload or SSR FIFO, a bank count that is not a power of two or a
// three-hart cluster. These pins run exp, log, pi_lcg and axpy (n=96) under
// four non-default parameter sets.
struct ParamSet {
  const char* name;
  void (*apply)(SimParams&);
};

constexpr ParamSet kParamSets[] = {
    {"lat0",
     [](SimParams& p) {
       p.fpu = {0, 0, 0, 0, 0, 0, 0, 0, 0};
       p.fp_load_latency = 0;
     }},
    {"fifo1",
     [](SimParams& p) {
       p.offload_fifo_depth = 1;
       p.fpu.div_sqrt = 40;
       p.fpu.add = 7;
     }},
    {"ssr1-banks3",
     [](SimParams& p) {
       p.ssr_fifo_depth = 1;
       p.num_tcdm_banks = 3;
     }},
    {"fma1-load9-mul0",
     [](SimParams& p) {
       p.fpu.fma = 1;
       p.fp_load_latency = 9;
       p.mul_latency = 0;
     }},
};

// Captured before the FP decode-once rewrite (descriptor issue, completion
// wheel, fixed-array request gather); it must leave every row unchanged.
constexpr PinnedRun kNonDefaultPins[] = {
    {"exp/baseline block=96 cores=1 lat0", 0xb7c87be2fce04afaULL},
    {"exp/baseline block=96 cores=1 fifo1", 0xe4d61d5aed8100cbULL},
    {"exp/baseline block=96 cores=1 ssr1-banks3", 0x85b5ae065c5a07aaULL},
    {"exp/baseline block=96 cores=1 fma1-load9-mul0", 0xbbdd3d31d4fbe19eULL},
    {"exp/baseline block=96 cores=3 lat0", 0x35c7f18aca1c30e8ULL},
    {"exp/baseline block=96 cores=3 fifo1", 0x2c9025147d742406ULL},
    {"exp/baseline block=96 cores=3 ssr1-banks3", 0x83ab6285179b6dd5ULL},
    {"exp/baseline block=96 cores=3 fma1-load9-mul0", 0x5706539b0dd26aa9ULL},
    {"exp/copift block=16 cores=1 lat0", 0x36c67ae3bd7a6e85ULL},
    {"exp/copift block=16 cores=1 fifo1", 0x17a0285d6a293bc9ULL},
    {"exp/copift block=16 cores=1 ssr1-banks3", 0x838f83ebf1d88054ULL},
    {"exp/copift block=16 cores=1 fma1-load9-mul0", 0x8fa7b22c305298bcULL},
    {"exp/copift block=8 cores=3 lat0", 0x450e79a71b5de775ULL},
    {"exp/copift block=8 cores=3 fifo1", 0x8bfb2f98963b5914ULL},
    {"exp/copift block=8 cores=3 ssr1-banks3", 0x9e63240a7a8fa0d9ULL},
    {"exp/copift block=8 cores=3 fma1-load9-mul0", 0x8df41f5b5a6a973cULL},
    {"log/baseline block=96 cores=1 lat0", 0x732ceefdb7323901ULL},
    {"log/baseline block=96 cores=1 fifo1", 0xfcaa39ae26f49ee1ULL},
    {"log/baseline block=96 cores=1 ssr1-banks3", 0x732ceefdb7323901ULL},
    {"log/baseline block=96 cores=1 fma1-load9-mul0", 0xbba1daedc669dd74ULL},
    {"log/baseline block=96 cores=3 lat0", 0xa52dc0ab4b9787a1ULL},
    {"log/baseline block=96 cores=3 fifo1", 0xfe78741729bf9c19ULL},
    {"log/baseline block=96 cores=3 ssr1-banks3", 0x511fd050ee66561fULL},
    {"log/baseline block=96 cores=3 fma1-load9-mul0", 0xca61d2511f6951d3ULL},
    {"log/copift block=16 cores=1 lat0", 0x97ded6939fbaaac4ULL},
    {"log/copift block=16 cores=1 fifo1", 0x8e3e84601063c292ULL},
    {"log/copift block=16 cores=1 ssr1-banks3", 0x2f3e1a95038ba5a9ULL},
    {"log/copift block=16 cores=1 fma1-load9-mul0", 0xe535600d20ca71cbULL},
    {"log/copift block=16 cores=3 lat0", 0xfc3fe488bfb55fc4ULL},
    {"log/copift block=16 cores=3 fifo1", 0x264ed0e3f3b0434cULL},
    {"log/copift block=16 cores=3 ssr1-banks3", 0x116e05b15e77c202ULL},
    {"log/copift block=16 cores=3 fma1-load9-mul0", 0x5da7c828c3b94d1dULL},
    {"pi_lcg/baseline block=96 cores=1 lat0", 0x5e953f29eb2657a3ULL},
    {"pi_lcg/baseline block=96 cores=1 fifo1", 0x5e953f29eb2657a3ULL},
    {"pi_lcg/baseline block=96 cores=1 ssr1-banks3", 0x5e953f29eb2657a3ULL},
    {"pi_lcg/baseline block=96 cores=1 fma1-load9-mul0", 0xe410259d7e075ab8ULL},
    {"pi_lcg/baseline block=96 cores=3 lat0", 0x125193831bbed8b3ULL},
    {"pi_lcg/baseline block=96 cores=3 fifo1", 0x48ef060ae2c5c3c3ULL},
    {"pi_lcg/baseline block=96 cores=3 ssr1-banks3", 0x125193831bbed8b3ULL},
    {"pi_lcg/baseline block=96 cores=3 fma1-load9-mul0", 0x66c2ea2fb3d7aab4ULL},
    {"pi_lcg/copift block=16 cores=1 lat0", 0x855be62acd4575ecULL},
    {"pi_lcg/copift block=16 cores=1 fifo1", 0x3199dce0b412df3fULL},
    {"pi_lcg/copift block=16 cores=1 ssr1-banks3", 0x6b0593dd67d6d407ULL},
    {"pi_lcg/copift block=16 cores=1 fma1-load9-mul0", 0x0bde08f975fe4a68ULL},
    {"pi_lcg/copift block=16 cores=3 lat0", 0x2ac22e132b20ac7dULL},
    {"pi_lcg/copift block=16 cores=3 fifo1", 0x0375ee99852a0b7dULL},
    {"pi_lcg/copift block=16 cores=3 ssr1-banks3", 0x1ce2492e5d7c84ccULL},
    {"pi_lcg/copift block=16 cores=3 fma1-load9-mul0", 0x78de56225ff0c151ULL},
    {"axpy/baseline block=32 cores=1 lat0", 0x4ae7a5f03dd482f2ULL},
    {"axpy/baseline block=32 cores=1 fifo1", 0x4ae7a5f03dd482f2ULL},
    {"axpy/baseline block=32 cores=1 ssr1-banks3", 0x4ae7a5f03dd482f2ULL},
    {"axpy/baseline block=32 cores=1 fma1-load9-mul0", 0x8f33318538e66298ULL},
    {"axpy/baseline block=32 cores=3 lat0", 0xbe6f6bf2d38ce806ULL},
    {"axpy/baseline block=32 cores=3 fifo1", 0x370dcdb5edd742f9ULL},
    {"axpy/baseline block=32 cores=3 ssr1-banks3", 0x4e79a622ec8e3dbaULL},
    {"axpy/baseline block=32 cores=3 fma1-load9-mul0", 0x5b2142de52e7b633ULL},
    {"axpy/copift block=32 cores=1 lat0", 0x8ee8483df226f5edULL},
    {"axpy/copift block=32 cores=1 fifo1", 0x71afd3f8b535df0dULL},
    {"axpy/copift block=32 cores=1 ssr1-banks3", 0x3afd3e90bd4d8308ULL},
    {"axpy/copift block=32 cores=1 fma1-load9-mul0", 0x8ee8483df226f5edULL},
    {"axpy/copift block=32 cores=3 lat0", 0xbec56413b4c52290ULL},
    {"axpy/copift block=32 cores=3 fifo1", 0x6d43004e48e24430ULL},
    {"axpy/copift block=32 cores=3 ssr1-banks3", 0x87dc505e3422dbafULL},
    {"axpy/copift block=32 cores=3 fma1-load9-mul0", 0xed5276cbd6a14c92ULL},
};

TEST(SimCounters, NonDefaultParamsArePinned) {
  const auto& registry = workload::WorkloadRegistry::instance();
  std::set<std::string_view> matched;
  for (const std::string_view name : {"exp", "log", "pi_lcg", "axpy"}) {
    const auto wl = registry.at(std::string(name));
    for (const auto variant : {Variant::kBaseline, Variant::kCopift}) {
      for (const std::uint32_t cores : {1U, 3U}) {
        WorkloadConfig config;
        config.n = 96;
        config.seed = 7;
        config.cores = cores;
        ASSERT_TRUE(testing::first_valid_block(*wl, variant, config,
                                               {wl->default_config().block, 16, 8, 4}));
        const auto generated = wl->instantiate(variant, config);
        for (const ParamSet& set : kParamSets) {
          SimParams params;
          params.num_cores = cores;
          set.apply(params);
          Cluster cluster(rvasm::assemble(generated.source), params);
          kernels::populate_inputs(cluster, generated);
          const std::uint64_t hash = run_hash(cluster, cluster.run().cycles);
          const std::string label = wl->name() + "/" + workload::variant_name(variant) +
                                    " block=" + std::to_string(config.block) +
                                    " cores=" + std::to_string(cores) + " " + set.name;
          char row[160];
          std::snprintf(row, sizeof(row), "{\"%s\", 0x%016" PRIx64 "ULL},", label.c_str(), hash);
          const auto* pin =
              std::find_if(std::begin(kNonDefaultPins), std::end(kNonDefaultPins),
                           [&](const PinnedRun& p) { return p.point == label; });
          if (pin == std::end(kNonDefaultPins)) {
            ADD_FAILURE() << "point without a pinned row: " << row;
            continue;
          }
          matched.insert(pin->point);
          EXPECT_EQ(hash, pin->hash) << "simulated counters changed: " << row;
        }
      }
    }
  }
  EXPECT_EQ(matched.size(), std::size(kNonDefaultPins)) << "pinned rows with no point";
}

}  // namespace
}  // namespace copift::sim
