#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/layout.hpp"
#include "rvasm/assembler.hpp"
#include "sim/cluster.hpp"

namespace copift::sim {
namespace {

Cluster run(const std::string& src, SimParams params = {}) {
  Cluster cluster(rvasm::assemble(src), params);
  cluster.run();
  return cluster;
}

TEST(SimCore, ArithmeticAndHalt) {
  auto c = run(R"(
  li a0, 21
  slli a1, a0, 1
  add a2, a0, a1
  sub a3, a2, a0
  xor a4, a1, a1
  ecall
)");
  EXPECT_EQ(c.core().reg(10), 21u);
  EXPECT_EQ(c.core().reg(11), 42u);
  EXPECT_EQ(c.core().reg(12), 63u);
  EXPECT_EQ(c.core().reg(13), 42u);
  EXPECT_EQ(c.core().reg(14), 0u);
  EXPECT_TRUE(c.halted());
}

TEST(SimCore, X0IsHardwiredZero) {
  auto c = run("li a0, 5\nadd x0, a0, a0\nadd a1, x0, x0\necall\n");
  EXPECT_EQ(c.core().reg(0), 0u);
  EXPECT_EQ(c.core().reg(11), 0u);
}

TEST(SimCore, MulDivSemantics) {
  auto c = run(R"(
  li a0, -6
  li a1, 4
  mul a2, a0, a1
  mulhu a3, a0, a1
  div a4, a0, a1
  rem a5, a0, a1
  li a6, 1
  li a7, 0
  div s0, a6, a7
  rem s1, a6, a7
  ecall
)");
  EXPECT_EQ(static_cast<std::int32_t>(c.core().reg(12)), -24);
  EXPECT_EQ(c.core().reg(13), 3u);  // (2^32-6)*4 >> 32
  EXPECT_EQ(static_cast<std::int32_t>(c.core().reg(14)), -1);
  EXPECT_EQ(static_cast<std::int32_t>(c.core().reg(15)), -2);
  EXPECT_EQ(c.core().reg(8), 0xFFFFFFFFu);  // div by zero
  EXPECT_EQ(c.core().reg(9), 1u);           // rem by zero -> dividend
}

TEST(SimCore, LoadsStoresAllWidths) {
  auto c = run(R"(
.data
buf: .word 0
.text
  la a0, buf
  li a1, -2
  sw a1, 0(a0)
  lw a2, 0(a0)
  lh a3, 0(a0)
  lhu a4, 0(a0)
  lb a5, 0(a0)
  lbu a6, 0(a0)
  ecall
)");
  EXPECT_EQ(c.core().reg(12), 0xFFFFFFFEu);
  EXPECT_EQ(c.core().reg(13), 0xFFFFFFFEu);  // lh sign-extends
  EXPECT_EQ(c.core().reg(14), 0x0000FFFEu);
  EXPECT_EQ(c.core().reg(15), 0xFFFFFFFEu);
  EXPECT_EQ(c.core().reg(16), 0x000000FEu);
}

TEST(SimCore, LoopSumsCorrectly) {
  auto c = run(R"(
  li a0, 0
  li a1, 100
loop:
  add a0, a0, a1
  addi a1, a1, -1
  bnez a1, loop
  ecall
)");
  EXPECT_EQ(c.core().reg(10), 5050u);
}

TEST(SimCore, JalLinksAndJalrReturns) {
  auto c = run(R"(
  li a0, 1
  call sub
  addi a0, a0, 100
  ecall
sub:
  addi a0, a0, 10
  ret
)");
  EXPECT_EQ(c.core().reg(10), 111u);
}

TEST(SimCore, McycleAndMinstretProgress) {
  auto c = run(R"(
  csrr a0, mcycle
  csrr a1, minstret
  nop
  nop
  nop
  csrr a2, mcycle
  csrr a3, minstret
  ecall
)");
  EXPECT_GT(c.core().reg(12), c.core().reg(10));
  // Between the two minstret reads: the first csrr retires after its own
  // read, then 3 nops and the mcycle csrr: 5 instructions.
  EXPECT_EQ(c.core().reg(13) - c.core().reg(11), 5u);
}

TEST(SimCore, RegionMarkersSnapshotCounters) {
  auto c = run(R"(
  csrwi region, 1
  nop
  nop
  csrwi region, 2
  ecall
)");
  ASSERT_EQ(c.regions().size(), 2u);
  EXPECT_EQ(c.regions()[0].id, 1u);
  EXPECT_EQ(c.regions()[1].id, 2u);
  const auto delta = c.regions()[1].snapshot.minus(c.regions()[0].snapshot);
  EXPECT_EQ(delta.int_retired, 3u);  // 2 nops + the second marker... marker counted at issue
  EXPECT_GE(delta.cycles, 3u);
}

TEST(SimCore, LoadUseLatencyStalls) {
  // Dependent use immediately after a load pays the load-use latency.
  SimParams p;
  auto c1 = run(R"(
.data
v: .word 7
.text
  la a0, v
  csrwi region, 1
  lw a1, 0(a0)
  addi a2, a1, 1
  csrwi region, 2
  ecall
)", p);
  auto c2 = run(R"(
.data
v: .word 7
.text
  la a0, v
  csrwi region, 1
  lw a1, 0(a0)
  nop
  nop
  addi a2, a1, 1
  csrwi region, 2
  ecall
)", p);
  const auto d1 = c1.regions()[1].snapshot.minus(c1.regions()[0].snapshot);
  const auto d2 = c2.regions()[1].snapshot.minus(c2.regions()[0].snapshot);
  // The padded version retires 2 more instructions in the same cycles.
  EXPECT_EQ(d2.cycles, d1.cycles + 1);
  EXPECT_GT(d1.stall_raw, d2.stall_raw);
}

TEST(SimCore, WritebackPortConflictMulThenAlu) {
  // A 1-cycle ALU op issued 2 cycles after a mul collides on the single
  // RF write port (the paper's LCG structural hazard).
  auto c = run(R"(
  li a0, 3
  li a1, 5
  csrwi region, 1
  mul a2, a0, a1
  addi a3, a0, 1
  addi a4, a0, 2
  addi a5, a0, 3
  csrwi region, 2
  ecall
)");
  const auto d = c.regions()[1].snapshot.minus(c.regions()[0].snapshot);
  EXPECT_GE(d.stall_wb_port, 1u);
  EXPECT_EQ(c.core().reg(12), 15u);
}

TEST(SimCore, TakenBranchPaysPenalty) {
  auto taken = run(R"(
  li a0, 1
  csrwi region, 1
  bnez a0, skip
  nop
skip:
  csrwi region, 2
  ecall
)");
  auto not_taken = run(R"(
  li a0, 0
  csrwi region, 1
  bnez a0, skip
  nop
skip:
  csrwi region, 2
  ecall
)");
  const auto dt = taken.regions()[1].snapshot.minus(taken.regions()[0].snapshot);
  const auto dn = not_taken.regions()[1].snapshot.minus(not_taken.regions()[0].snapshot);
  EXPECT_GT(dt.stall_branch + dt.stall_icache, dn.stall_branch);
}

TEST(SimCore, DmaProgrammableFromCode) {
  auto c = run(R"(
.data
src: .dword 0x1122334455667788
dst: .dword 0
.text
  la a0, src
  dmsrc a0
  la a1, dst
  dmdst a1
  li a2, 8
  dmcpy a3, a2
wait:
  dmstat a4
  bnez a4, wait
  ecall
)");
  EXPECT_EQ(c.memory().load64(c.program().symbol("dst")), 0x1122334455667788ull);
  EXPECT_GT(c.counters().dma_busy_cycles, 0u);
}

TEST(SimCore, EbreakThrows) {
  Cluster cluster(rvasm::assemble("ebreak\n"));
  EXPECT_THROW(cluster.run(), SimError);
}

// A fault inside the cycle loop says where it happened: the original
// message (one "sim error:" prefix), then the faulting cycle and every
// hart's PC with its nearest label.
TEST(SimCore, FaultNamesCycleHartPcAndLabel) {
  Cluster cluster(rvasm::assemble(R"(
start:
  li a0, 0x100
  lw a1, 0(a0)      # 0x100 lies below TCDM: unmapped
  ecall
)"));
  try {
    cluster.run();
    FAIL() << "expected a SimError";
  } catch (const SimError& e) {
    const std::string msg = e.what();
    char where[64];
    std::snprintf(where, sizeof(where), "; hart 0 pc 0x%08x <start+0x4>)",
                  cluster.program().symbol("start") + 4);
    EXPECT_EQ(msg.rfind("sim error: unmapped memory access at 0x100 size 4 (cycle " +
                            std::to_string(cluster.cycles()) + where,
                        0),
              0u)
        << msg;
    EXPECT_EQ(msg.find("sim error:", 1), std::string::npos) << msg;
  }
}

TEST(SimCore, MaxCyclesGuard) {
  SimParams p;
  p.max_cycles = 100;
  Cluster cluster(rvasm::assemble("spin: j spin\n"), p);
  EXPECT_THROW(cluster.run(), SimError);
}

TEST(SimCore, ScratchCsrReadWrite) {
  auto c = run(R"(
  li a0, 0x5a
  csrw 0x7D0, a0
  csrr a1, 0x7D0
  ecall
)");
  EXPECT_EQ(c.core().reg(11), 0x5Au);
}

TEST(SimCore, BaselineIpcIsBelowOne) {
  // Single-issue: IPC can never exceed 1 without FREP.
  auto c = run(R"(
  li a0, 200
  li a1, 0
loop:
  addi a1, a1, 3
  addi a2, a1, 1
  addi a3, a1, 2
  addi a0, a0, -1
  bnez a0, loop
  ecall
)");
  EXPECT_LE(c.counters().ipc(), 1.0);
  EXPECT_GT(c.counters().ipc(), 0.7);
}

}  // namespace
}  // namespace copift::sim
