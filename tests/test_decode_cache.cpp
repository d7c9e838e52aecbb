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

// After warmup (ring FIFOs grown, lazy pages touched, completion heap
// sized), the cycle loop must not touch the heap at all with tracing off:
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

// Captured before the TCDM arbiter and L0 fetch fast paths. Every counter of
// every hart is covered (l0_hits, tcdm_conflicts, dma_busy_cycles,
// dram_row_* included), so a host-side speedup that moves any simulated
// event fails here: update a row only when simulated behaviour is meant to
// change.
constexpr PinnedRun kPinnedRuns[] = {
    {"axpy/copift n=64 block=32 cores=1 tile=0", 0x61c31b87681a0ca1ULL},
    {"axpy/copift n=64 block=32 cores=4 tile=0", 0xb537e2856bc290a9ULL},
    {"axpy/copift n=65536 block=32 cores=2 tile=1024", 0x046c377eacd8306bULL},
    {"axpy/baseline n=64 block=32 cores=1 tile=0", 0xcccbbe6aa707347bULL},
    {"axpy/baseline n=64 block=32 cores=4 tile=0", 0x40075d8e8770db8fULL},
    {"axpy/baseline n=65536 block=32 cores=2 tile=1024", 0x7838cc6aa1b3b5bbULL},
    {"exp/copift n=64 block=16 cores=1 tile=0", 0x85e7f93c6fd30f27ULL},
    {"exp/copift n=64 block=4 cores=4 tile=0", 0x547ff5e66ac56093ULL},
    {"exp/copift n=65536 block=64 cores=2 tile=1024", 0xc45187e6945b394bULL},
    {"exp/baseline n=64 block=96 cores=1 tile=0", 0x5cdf707db919a4a7ULL},
    {"exp/baseline n=64 block=96 cores=4 tile=0", 0x80d70f76028b6643ULL},
    {"exp/baseline n=65536 block=96 cores=2 tile=1024", 0xea109031d7f9cbfaULL},
    {"log/copift n=64 block=16 cores=1 tile=0", 0x0c98dbfe271dd59dULL},
    {"log/copift n=64 block=4 cores=4 tile=0", 0x01af035537a4e271ULL},
    {"log/baseline n=64 block=96 cores=1 tile=0", 0x76094a2a0fa6cd58ULL},
    {"log/baseline n=64 block=96 cores=4 tile=0", 0xc2b791e530693b18ULL},
    {"pi_lcg/copift n=64 block=16 cores=1 tile=0", 0xf817ec6a27e9a54aULL},
    {"pi_lcg/copift n=64 block=8 cores=4 tile=0", 0x452becc77e8f5e65ULL},
    {"pi_lcg/baseline n=64 block=96 cores=1 tile=0", 0xe794948f67ac5c39ULL},
    {"pi_lcg/baseline n=64 block=96 cores=4 tile=0", 0xe6ba4a7389a45d03ULL},
    {"pi_xoshiro128p/copift n=64 block=16 cores=1 tile=0", 0xf1a6d84126a34b79ULL},
    {"pi_xoshiro128p/copift n=64 block=8 cores=4 tile=0", 0x8ae8922cd8e929efULL},
    {"pi_xoshiro128p/baseline n=64 block=96 cores=1 tile=0", 0xb3d9518c536abe09ULL},
    {"pi_xoshiro128p/baseline n=64 block=96 cores=4 tile=0", 0x51883efadac37bf1ULL},
    {"poly_lcg/copift n=64 block=16 cores=1 tile=0", 0xb20601b4afa828beULL},
    {"poly_lcg/copift n=64 block=8 cores=4 tile=0", 0x3dfa91a3c99cc443ULL},
    {"poly_lcg/baseline n=64 block=96 cores=1 tile=0", 0xecbbd0f2b524a0e2ULL},
    {"poly_lcg/baseline n=64 block=96 cores=4 tile=0", 0xedd5402859551573ULL},
    {"poly_xoshiro128p/copift n=64 block=16 cores=1 tile=0", 0xee493eeb9978b407ULL},
    {"poly_xoshiro128p/copift n=64 block=8 cores=4 tile=0", 0xe66639c7695ac7e6ULL},
    {"poly_xoshiro128p/baseline n=64 block=96 cores=1 tile=0", 0x893f127943c2a404ULL},
    {"poly_xoshiro128p/baseline n=64 block=96 cores=4 tile=0", 0x01ed1a37b21958e2ULL},
    {"softmax/baseline n=64 block=32 cores=1 tile=0", 0x45e5a02206465375ULL},
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

}  // namespace
}  // namespace copift::sim
