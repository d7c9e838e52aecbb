// Fidelity of the fast cycle loop (decode-once micro-op table +
// allocation-free steady state): the decoded table is shared across clusters
// running one program, and the steady-state loop performs no heap
// allocation with tracing off (via the operator new override below).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "kernels/runner.hpp"
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

// After warmup (ring FIFOs grown, lazy pages touched, completion heap
// sized), the cycle loop must not touch the heap at all with tracing off —
// for the full COPIFT kernel including SSR streams and FREP replays.
TEST(AllocationFree, SteadyStateDoesNotAllocate) {
  WorkloadConfig cfg;
  cfg.n = 768;
  cfg.block = 32;
  const auto kernel = workload::WorkloadRegistry::instance().at("exp")->instantiate(
      Variant::kCopift, cfg);
  const SimParams params;
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

}  // namespace
}  // namespace copift::sim
