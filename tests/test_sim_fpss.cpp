#include <gtest/gtest.h>

#include "common/bits.hpp"
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

double freg(Cluster& c, unsigned i) {
  return copift::bit_cast<double>(c.fpss().rf().read(i));
}

TEST(Fpss, BasicFpArithmetic) {
  auto c = run(R"(
.data
a: .double 1.5
b: .double 2.25
.text
  la a0, a
  fld fa0, 0(a0)
  fld fa1, 8(a0)
  fadd.d fa2, fa0, fa1
  fmul.d fa3, fa0, fa1
  fmadd.d fa4, fa0, fa1, fa2
  csrr t0, fpss
  ecall
)");
  EXPECT_EQ(freg(c, 12), 3.75);
  EXPECT_EQ(freg(c, 13), 3.375);
  EXPECT_EQ(freg(c, 14), 1.5 * 2.25 + 3.75);
}

TEST(Fpss, FpStoreVisibleInMemory) {
  auto c = run(R"(
.data
v: .double 4.0
out: .double 0.0
.text
  la a0, v
  fld fa0, 0(a0)
  fsqrt.d fa1, fa0
  la a1, out
  fsd fa1, 0(a1)
  csrr t0, fpss
  ecall
)");
  EXPECT_EQ(copift::bit_cast<double>(c.memory().load64(c.program().symbol("out"))), 2.0);
}

TEST(Fpss, FltWritesIntegerRegister) {
  auto c = run(R"(
.data
a: .double 1.0
b: .double 2.0
.text
  la a0, a
  fld fa0, 0(a0)
  fld fa1, 8(a0)
  flt.d a1, fa0, fa1
  flt.d a2, fa1, fa0
  fclass.d a3, fa0
  ecall
)");
  EXPECT_EQ(c.core().reg(11), 1u);
  EXPECT_EQ(c.core().reg(12), 0u);
  EXPECT_EQ(c.core().reg(13), 1u << 6);  // positive normal
}

TEST(Fpss, IntLoadAfterFpStoreIsOrdered) {
  // fsd then lw to the same address must observe the stored value
  // (the memory-ordering interlock; paper Fig. 1b insts 4-5).
  auto c = run(R"(
.data
spill: .double 0.0
k: .double 1234.5
.text
  la a0, spill
  la a1, k
  fld fa0, 0(a1)
  fsd fa0, 0(a0)
  lw a2, 0(a0)
  lw a3, 4(a0)
  ecall
)");
  const std::uint64_t bits = copift::bit_cast<std::uint64_t>(1234.5);
  EXPECT_EQ(c.core().reg(12), static_cast<std::uint32_t>(bits));
  EXPECT_EQ(c.core().reg(13), static_cast<std::uint32_t>(bits >> 32));
  EXPECT_GT(c.counters().slot(StallCause::kIntMemOrder), 0u);
}

TEST(Fpss, FrepReplayReachesDualIssue) {
  // An FREP loop of independent FP ops runs concurrently with an integer
  // loop: total IPC must exceed 1 (pseudo dual-issue).
  auto c = run(R"(
.data
one: .double 1.0
.text
  la a0, one
  fld fa0, 0(a0)
  fcvt.d.w fa1, zero
  li t0, 199         # 200 FREP iterations
  csrwi region, 1
  frep.o t0, 4
  fadd.d fa1, fa1, fa0
  fadd.d fa2, fa2, fa0
  fadd.d fa3, fa3, fa0
  fadd.d fa4, fa4, fa0
  li a1, 200
iloop:
  addi a2, a2, 1
  addi a3, a3, 3
  addi a1, a1, -1
  bnez a1, iloop
  csrr t1, fpss
  csrwi region, 2
  ecall
)");
  ASSERT_EQ(c.regions().size(), 2u);
  const auto d = c.regions()[1].snapshot.minus(c.regions()[0].snapshot);
  EXPECT_GT(d.ipc(), 1.3);
  EXPECT_LE(d.ipc(), 2.0);
  EXPECT_GT(d.frep_replays, 700u);
  EXPECT_EQ(freg(c, 11), 200.0);  // accumulated once per iteration
}

// Replays reuse the integer operand captured when the body was offloaded:
// all three iterations of fcvt.d.w convert a0 = 5, so fa1 sums to 15.
TEST(Fpss, FrepReplayReusesCapturedIntOperand) {
  auto c = run(R"(
  li a0, 5
  fcvt.d.w fa1, zero
  li t0, 2
  frep.o t0, 2
  fcvt.d.w fa2, a0
  fadd.d fa1, fa1, fa2
  csrr t0, fpss
  ecall
)");
  EXPECT_EQ(freg(c, 12), 5.0);
  EXPECT_EQ(freg(c, 11), 15.0);
  EXPECT_EQ(c.counters().frep_replays, 4u);
}

TEST(Fpss, RetireRateNeverExceedsTwo) {
  auto c = run(R"(
  fcvt.d.w fa0, zero
  li t0, 99
  frep.o t0, 2
  fadd.d fa1, fa1, fa0
  fadd.d fa2, fa2, fa0
  li a1, 100
x:
  addi a1, a1, -1
  bnez a1, x
  csrr t1, fpss
  ecall
)");
  EXPECT_LE(c.counters().retired(), 2 * c.counters().cycles);
}

TEST(Fpss, BarrierWaitsForPreviousFrepEpoch) {
  // copift.barrier waits for everything offloaded before the most recent
  // frep.o. Produce a buffer with a first FREP, issue a second FREP, then a
  // barrier: integer loads of the FIRST buffer must see the data while the
  // second FREP may still be running (the steady-state pattern of the
  // COPIFT schedule, paper Fig. 1j).
  auto c = run(R"(
.data
one: .double 1.0
buf: .space 64
buf2: .space 64
.text
  la a0, one
  fld fa0, 0(a0)
  csrsi ssr, 1
  li t0, 7
  scfgwi t0, 33        # lane1 bound0 = 7
  li t0, 8
  scfgwi t0, 37        # lane1 stride0 = 8
  la t0, buf
  scfgwi t0, 60        # lane1 WPTR0 -> buf (1-D)
  li t0, 7
  frep.o t0, 1
  fadd.d ft1, fa0, fa0   # write 2.0 x8 into buf
  li t0, 7
  scfgwi t0, 65        # lane2 bound0 = 7
  li t0, 8
  scfgwi t0, 69        # lane2 stride0 = 8
  la t0, buf2
  scfgwi t0, 92        # lane2 WPTR0 -> buf2
  li t0, 7
  frep.o t0, 1
  fadd.d ft2, fa0, fa0   # second FREP (current epoch)
  copift.barrier         # waits for the FIRST frep only
  la a1, buf
  lw a2, 56(a1)          # low word of buf[7]
  lw a3, 60(a1)          # high word
  csrr t1, fpss
  csrci ssr, 1
  ecall
)");
  const std::uint64_t two = copift::bit_cast<std::uint64_t>(2.0);
  EXPECT_EQ(c.core().reg(12), static_cast<std::uint32_t>(two));
  EXPECT_EQ(c.core().reg(13), static_cast<std::uint32_t>(two >> 32));
}

TEST(Fpss, SsrReadStreamFeedsFrep) {
  auto c = run(R"(
.data
vec: .double 1.0, 2.0, 3.0, 4.0
.text
  fcvt.d.w fa1, zero
  csrsi ssr, 1
  li t0, 3
  scfgwi t0, 1         # lane0 bound0 = 3
  li t0, 8
  scfgwi t0, 5         # lane0 stride0 = 8
  la t0, vec
  scfgwi t0, 24        # lane0 RPTR0
  li t0, 3
  frep.o t0, 1
  fadd.d fa1, fa1, ft0
  csrr t1, fpss
  csrci ssr, 1
  ecall
)");
  EXPECT_EQ(freg(c, 11), 10.0);
}

TEST(Fpss, XcopiftSequenceInFrep) {
  // Stream raw integers, convert with fcvt.d.wu.cop, compare with
  // flt.d.cop, accumulate with fadd.d: the full paper mechanism.
  auto c = run(R"(
.data
.align 3
raw: .word 10, 0, 200, 0, 30, 0, 400, 0   # 4 cells: 10, 200, 30, 400
half: .double 100.0
.text
  la a0, half
  fld fs0, 0(a0)
  fcvt.d.w fa5, zero
  csrsi ssr, 1
  li t0, 3
  scfgwi t0, 1
  li t0, 8
  scfgwi t0, 5
  la t0, raw
  scfgwi t0, 24
  li t0, 3
  frep.o t0, 3
  fcvt.d.wu.cop fa0, ft0
  flt.d.cop fa1, fa0, fs0    # value < 100?
  fadd.d fa5, fa5, fa1
  csrr t1, fpss
  csrci ssr, 1
  ecall
)");
  EXPECT_EQ(freg(c, 15), 2.0);  // 10 and 30 are below 100
}

TEST(Fpss, OffloadFifoBackpressure) {
  // Long-latency FP chain with dependent ops fills the FIFO; the core
  // must stall rather than lose instructions.
  auto c = run(R"(
.data
v: .double 1.000001
.text
  la a0, v
  fld fa0, 0(a0)
  fmv.d fa1, fa0
  fdiv.d fa1, fa1, fa0
  fdiv.d fa1, fa1, fa0
  fdiv.d fa1, fa1, fa0
  fdiv.d fa1, fa1, fa0
  fadd.d fa2, fa1, fa0
  fadd.d fa3, fa2, fa0
  fadd.d fa4, fa3, fa0
  fsub.d fa5, fa4, fa0
  fsub.d fa6, fa5, fa0
  fsub.d fa7, fa6, fa0
  fmul.d fs0, fa7, fa0
  fmul.d fs1, fs0, fa0
  csrr t0, fpss
  ecall
)");
  EXPECT_GT(c.counters().slot(StallCause::kIntOffloadFull), 0u);
}

TEST(Fpss, SsrDisableDrainsStreams) {
  auto c = run(R"(
.data
buf: .space 32
one: .double 1.0
.text
  la a0, one
  fld fa0, 0(a0)
  csrsi ssr, 1
  li t0, 3
  scfgwi t0, 33
  li t0, 8
  scfgwi t0, 37
  la t0, buf
  scfgwi t0, 60
  li t0, 3
  frep.o t0, 1
  fadd.d ft1, fa0, fa0
  csrci ssr, 1          # must wait until the write stream drained
  la a1, buf
  lw a2, 24(a1)
  ecall
)");
  const std::uint64_t two = copift::bit_cast<std::uint64_t>(2.0);
  EXPECT_EQ(c.core().reg(12), static_cast<std::uint32_t>(two));
}

TEST(Fpss, ScfgriReadsBack) {
  auto c = run(R"(
  li a0, 1234
  scfgwi a0, 2
  scfgri a1, 2
  ecall
)");
  EXPECT_EQ(c.core().reg(11), 1234u);
}

}  // namespace
}  // namespace copift::sim
