#include "frep/frep.hpp"

#include <gtest/gtest.h>

#include <map>

#include "common/error.hpp"
#include "sim/decode.hpp"

namespace copift::frep {
namespace {

/// An entry for `m`; its micro-op lives in a per-mnemonic table that
/// outlives every sequencer here.
FrepEntry fp_entry(isa::Mnemonic m, std::uint64_t epoch = 0, std::uint32_t operand = 0) {
  static std::map<isa::Mnemonic, sim::MicroOp> ops;
  sim::MicroOp& op = ops[m];
  op.mnemonic = m;
  return FrepEntry{&op, operand, epoch};
}

TEST(Frep, OuterLoopReplaysBody) {
  FrepSequencer seq(16);
  seq.configure(/*body=*/2, /*extra_reps=*/2, FrepSequencer::Mode::kOuter);
  EXPECT_TRUE(seq.recording());
  EXPECT_EQ(seq.pending_replays(), 4u);
  seq.record(fp_entry(isa::Mnemonic::kFaddD, 7, /*operand=*/5));
  EXPECT_TRUE(seq.recording());
  seq.record(fp_entry(isa::Mnemonic::kFmulD, 7));
  EXPECT_FALSE(seq.recording());
  ASSERT_TRUE(seq.replaying());
  // Two more body iterations: add, mul, add, mul.
  EXPECT_EQ(seq.current().op->mnemonic, isa::Mnemonic::kFaddD);
  EXPECT_EQ(seq.current().epoch, 7u);
  EXPECT_EQ(seq.current().operand, 5u);
  seq.advance();
  EXPECT_EQ(seq.current().op->mnemonic, isa::Mnemonic::kFmulD);
  seq.advance();
  EXPECT_EQ(seq.current().op->mnemonic, isa::Mnemonic::kFaddD);
  seq.advance();
  EXPECT_EQ(seq.pending_replays(), 1u);
  seq.advance();
  EXPECT_TRUE(seq.idle());
  EXPECT_EQ(seq.pending_replays(), 0u);
}

TEST(Frep, SingleIterationLoopIsIdle) {
  FrepSequencer seq(16);
  seq.configure(3, 0, FrepSequencer::Mode::kOuter);
  EXPECT_TRUE(seq.idle());  // nothing to replay
  EXPECT_EQ(seq.pending_replays(), 0u);
}

TEST(Frep, InnerModeRepeatsEachInstruction) {
  FrepSequencer seq(16);
  seq.configure(2, 1, FrepSequencer::Mode::kInner);
  seq.record(fp_entry(isa::Mnemonic::kFaddD));
  ASSERT_TRUE(seq.replaying());
  EXPECT_EQ(seq.current().op->mnemonic, isa::Mnemonic::kFaddD);
  seq.advance();
  EXPECT_TRUE(seq.recording());
  seq.record(fp_entry(isa::Mnemonic::kFmulD));
  ASSERT_TRUE(seq.replaying());
  EXPECT_EQ(seq.current().op->mnemonic, isa::Mnemonic::kFmulD);
  seq.advance();
  EXPECT_TRUE(seq.idle());
}

TEST(Frep, BodyTooLargeThrows) {
  FrepSequencer seq(4);
  EXPECT_THROW(seq.configure(5, 1, FrepSequencer::Mode::kOuter), SimError);
}

TEST(Frep, EmptyBodyThrows) {
  FrepSequencer seq(4);
  EXPECT_THROW(seq.configure(0, 1, FrepSequencer::Mode::kOuter), SimError);
}

TEST(Frep, NestedConfigureThrows) {
  FrepSequencer seq(16);
  seq.configure(1, 3, FrepSequencer::Mode::kOuter);
  seq.record(fp_entry(isa::Mnemonic::kFaddD));
  ASSERT_TRUE(seq.replaying());
  EXPECT_THROW(seq.configure(1, 1, FrepSequencer::Mode::kOuter), SimError);
}

TEST(Frep, RejectsNonFpInstruction) {
  FrepSequencer seq(16);
  seq.configure(1, 1, FrepSequencer::Mode::kOuter);
  EXPECT_THROW(seq.record(fp_entry(isa::Mnemonic::kAdd)), SimError);
}

TEST(Frep, RejectsFpLoadStoreInBody) {
  // Paper Step 6/7: FP loads must be mapped to SSRs before FREP mapping.
  FrepSequencer seq(16);
  seq.configure(1, 1, FrepSequencer::Mode::kOuter);
  EXPECT_THROW(seq.record(fp_entry(isa::Mnemonic::kFld)), SimError);
  seq = FrepSequencer(16);
  seq.configure(1, 1, FrepSequencer::Mode::kOuter);
  EXPECT_THROW(seq.record(fp_entry(isa::Mnemonic::kFsd)), SimError);
}

TEST(Frep, LargeRepetitionCount) {
  FrepSequencer seq(16);
  seq.configure(2, 9999, FrepSequencer::Mode::kOuter);
  seq.record(fp_entry(isa::Mnemonic::kFaddD));
  seq.record(fp_entry(isa::Mnemonic::kFmulD));
  EXPECT_EQ(seq.pending_replays(), 2u * 9999u);
  std::uint64_t n = 0;
  while (seq.replaying()) {
    seq.advance();
    ++n;
  }
  EXPECT_EQ(n, 2u * 9999u);
}

}  // namespace
}  // namespace copift::frep
