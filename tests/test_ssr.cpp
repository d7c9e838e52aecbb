#include "ssr/ssr.hpp"

#include <gtest/gtest.h>

#include <array>
#include <random>

#include "common/error.hpp"
#include "common/layout.hpp"

namespace copift::ssr {
namespace {

/// Reference address enumeration for a 4-D affine stream.
std::vector<std::uint32_t> reference_addresses(std::uint32_t base, unsigned dims,
                                               std::array<std::uint32_t, 4> bounds,
                                               std::array<std::int32_t, 4> strides) {
  std::vector<std::uint32_t> out;
  std::array<std::uint32_t, 4> n = {1, 1, 1, 1};
  for (unsigned d = 0; d < dims; ++d) n[d] = bounds[d] + 1;
  for (std::uint32_t i3 = 0; i3 < n[3]; ++i3)
    for (std::uint32_t i2 = 0; i2 < n[2]; ++i2)
      for (std::uint32_t i1 = 0; i1 < n[1]; ++i1)
        for (std::uint32_t i0 = 0; i0 < n[0]; ++i0)
          out.push_back(base + i0 * static_cast<std::uint32_t>(strides[0]) +
                        i1 * static_cast<std::uint32_t>(strides[1]) +
                        i2 * static_cast<std::uint32_t>(strides[2]) +
                        i3 * static_cast<std::uint32_t>(strides[3]));
  return out;
}

TEST(AffineGenerator, Simple1D) {
  AffineGenerator gen;
  gen.configure(kTcdmBase, 1, {3, 0, 0, 0}, {8, 0, 0, 0});
  std::vector<std::uint32_t> got;
  while (!gen.done()) {
    got.push_back(gen.current());
    gen.advance();
  }
  EXPECT_EQ(got, (std::vector<std::uint32_t>{kTcdmBase, kTcdmBase + 8, kTcdmBase + 16,
                                             kTcdmBase + 24}));
}

TEST(AffineGenerator, NegativeStride) {
  AffineGenerator gen;
  gen.configure(kTcdmBase + 16, 1, {2, 0, 0, 0}, {-8, 0, 0, 0});
  std::vector<std::uint32_t> got;
  while (!gen.done()) {
    got.push_back(gen.current());
    gen.advance();
  }
  EXPECT_EQ(got, (std::vector<std::uint32_t>{kTcdmBase + 16, kTcdmBase + 8, kTcdmBase}));
}

class AffineGeneratorRandom : public ::testing::TestWithParam<unsigned> {};

TEST_P(AffineGeneratorRandom, MatchesReferenceLoopNest) {
  std::mt19937 rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const unsigned dims = 1 + rng() % 4;
    std::array<std::uint32_t, 4> bounds{};
    std::array<std::int32_t, 4> strides{};
    for (unsigned d = 0; d < dims; ++d) {
      bounds[d] = rng() % 4;
      strides[d] = static_cast<std::int32_t>(rng() % 64) - 32;
    }
    const std::uint32_t base = kTcdmBase + 4096;
    AffineGenerator gen;
    gen.configure(base, dims, bounds, strides);
    const auto expected = reference_addresses(base, dims, bounds, strides);
    EXPECT_EQ(gen.total(), expected.size());
    std::vector<std::uint32_t> got;
    while (!gen.done()) {
      got.push_back(gen.current());
      gen.advance();
    }
    EXPECT_EQ(got, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AffineGeneratorRandom, ::testing::Values(1, 2, 3, 4, 5));

TEST(AffineGenerator, InvalidDims) {
  AffineGenerator gen;
  EXPECT_THROW(gen.configure(0, 0, {}, {}), SimError);
  EXPECT_THROW(gen.configure(0, 5, {}, {}), SimError);
}

// ---- Lane-level behaviour ----

struct LaneHarness {
  mem::AddressSpace memory;
  SsrLane lane{4};

  void pump_data() {
    std::uint32_t addr = 0;
    if (lane.wants_data_access(addr)) lane.data_granted(memory);
    lane.commit_cycle();
  }
  void pump_index() {
    std::uint32_t addr = 0;
    if (lane.wants_index_access(addr)) lane.index_granted(memory);
  }
};

TEST(SsrLane, ReadStreamDeliversMemory) {
  LaneHarness h;
  for (unsigned i = 0; i < 8; ++i) h.memory.store64(kTcdmBase + i * 8, 100 + i);
  h.lane.write_cfg(kRegBound0, 7);
  h.lane.write_cfg(kRegStride0, 8);
  h.lane.write_cfg(kRegRptr0, kTcdmBase);  // arm
  EXPECT_TRUE(h.lane.is_read_stream());
  EXPECT_FALSE(h.lane.can_pop());  // data arrives next cycle
  for (unsigned i = 0; i < 8; ++i) {
    while (!h.lane.can_pop()) h.pump_data();
    EXPECT_EQ(h.lane.pop(), 100 + i);
  }
  EXPECT_TRUE(h.lane.idle());
}

TEST(SsrLane, ReadFifoDepthLimitsPrefetch) {
  LaneHarness h;
  h.lane.write_cfg(kRegBound0, 31);
  h.lane.write_cfg(kRegStride0, 8);
  h.lane.write_cfg(kRegRptr0, kTcdmBase);
  for (int i = 0; i < 20; ++i) h.pump_data();
  // FIFO depth 4: no more than 4 elements buffered.
  EXPECT_EQ(h.lane.ready_count(), 4u);
}

TEST(SsrLane, WriteStreamDrainsToMemory) {
  LaneHarness h;
  h.lane.write_cfg(kRegBound0, 3);
  h.lane.write_cfg(kRegStride0, 8);
  h.lane.write_cfg(kRegWptr0, kTcdmBase + 64);
  EXPECT_TRUE(h.lane.is_write_stream());
  for (unsigned i = 0; i < 4; ++i) {
    ASSERT_TRUE(h.lane.can_push());
    h.lane.push(1000 + i);
    h.pump_data();
  }
  while (!h.lane.idle()) h.pump_data();
  for (unsigned i = 0; i < 4; ++i) EXPECT_EQ(h.memory.load64(kTcdmBase + 64 + i * 8), 1000 + i);
}

TEST(SsrLane, WriteTokensReportDrain) {
  LaneHarness h;
  h.lane.write_cfg(kRegBound0, 1);
  h.lane.write_cfg(kRegStride0, 8);
  h.lane.write_cfg(kRegWptr0, kTcdmBase);
  h.lane.push(7, /*token=*/42);
  EXPECT_FALSE(h.lane.has_drained_tokens());
  h.pump_data();
  ASSERT_TRUE(h.lane.has_drained_tokens());
  ASSERT_EQ(h.lane.drained_tokens().size(), 1u);
  EXPECT_EQ(h.lane.drained_tokens()[0], 42u);
  h.lane.clear_drained_tokens();
  EXPECT_FALSE(h.lane.has_drained_tokens());  // consumed
}

TEST(SsrLane, RepeatDeliversElementTwice) {
  LaneHarness h;
  h.memory.store64(kTcdmBase, 5);
  h.memory.store64(kTcdmBase + 8, 6);
  h.lane.write_cfg(kRegRepeat, 1);  // each element delivered twice
  h.lane.write_cfg(kRegBound0, 1);
  h.lane.write_cfg(kRegStride0, 8);
  h.lane.write_cfg(kRegRptr0, kTcdmBase);
  std::vector<std::uint64_t> got;
  while (got.size() < 4) {
    while (!h.lane.can_pop()) h.pump_data();
    got.push_back(h.lane.pop());
  }
  EXPECT_EQ(got, (std::vector<std::uint64_t>{5, 5, 6, 6}));
}

TEST(SsrLane, IndirectionFollowsIndices) {
  LaneHarness h;
  // Data table at kTcdmBase: T[i] = 100 + i.
  for (unsigned i = 0; i < 16; ++i) h.memory.store64(kTcdmBase + i * 8, 100 + i);
  // Index array: [3, 0, 7, 7].
  const std::uint32_t idx_base = kTcdmBase + 1024;
  const std::uint32_t indices[] = {3, 0, 7, 7};
  for (unsigned i = 0; i < 4; ++i) h.memory.store32(idx_base + i * 4, indices[i]);
  h.lane.write_cfg(kRegIdxBase, idx_base);
  h.lane.write_cfg(kRegIdxShift, 3);
  h.lane.write_cfg(kRegIdxCfg, 4);
  h.lane.write_cfg(kRegRptr0, kTcdmBase);  // arm: indirect read
  std::vector<std::uint64_t> got;
  while (got.size() < 4) {
    h.pump_index();
    h.pump_data();
    while (h.lane.can_pop()) got.push_back(h.lane.pop());
  }
  EXPECT_EQ(got, (std::vector<std::uint64_t>{103, 100, 107, 107}));
  EXPECT_TRUE(h.lane.idle());
}

TEST(SsrLane, IndirectionIsOneShot) {
  LaneHarness h;
  h.memory.store32(kTcdmBase + 512, 0);
  h.lane.write_cfg(kRegIdxBase, kTcdmBase + 512);
  h.lane.write_cfg(kRegIdxShift, 3);
  h.lane.write_cfg(kRegIdxCfg, 1);
  h.lane.write_cfg(kRegRptr0, kTcdmBase);
  EXPECT_EQ(h.lane.read_cfg(kRegIdxCfg), 0u);  // consumed by arming
  // Next arm is a plain affine stream.
  h.lane.write_cfg(kRegBound0, 0);
  h.lane.write_cfg(kRegStride0, 8);
  h.lane.write_cfg(kRegRptr0, kTcdmBase);
  std::uint32_t addr = 0;
  EXPECT_FALSE(h.lane.wants_index_access(addr));
}

TEST(SsrLane, RearmUndrainedWriteThrows) {
  LaneHarness h;
  h.lane.write_cfg(kRegBound0, 3);
  h.lane.write_cfg(kRegStride0, 8);
  h.lane.write_cfg(kRegWptr0, kTcdmBase);
  h.lane.push(1);
  EXPECT_THROW(h.lane.write_cfg(kRegWptr0, kTcdmBase + 64), SimError);
}

TEST(SsrLane, PopEmptyThrows) {
  SsrLane lane;
  EXPECT_THROW(lane.pop(), SimError);
}

TEST(SsrUnit, ConfigDecodeByLane) {
  mem::AddressSpace memory;
  SsrUnit unit(memory);
  unit.write_cfg(1 * 32 + kRegBound0, 5);
  EXPECT_EQ(unit.read_cfg(1 * 32 + kRegBound0), 5u);
  EXPECT_EQ(unit.read_cfg(0 * 32 + kRegBound0), 0u);
  EXPECT_THROW(unit.write_cfg(3 * 32, 0), SimError);
}

TEST(SsrUnit, CollectRequestsTagsLanes) {
  mem::AddressSpace memory;
  SsrUnit unit(memory);
  unit.write_cfg(0 * 32 + kRegBound0, 3);
  unit.write_cfg(0 * 32 + kRegStride0, 8);
  unit.write_cfg(0 * 32 + kRegRptr0, kTcdmBase);
  unit.write_cfg(2 * 32 + kRegBound0, 3);
  unit.write_cfg(2 * 32 + kRegStride0, 8);
  unit.write_cfg(2 * 32 + kRegRptr0, kTcdmBase + 256);
  std::array<mem::TcdmRequest, SsrUnit::kMaxRequests> reqs{};
  std::array<SsrUnit::RequestTag, SsrUnit::kMaxRequests> tags{};
  ASSERT_EQ(unit.collect_requests(/*hart=*/5, reqs.data(), tags.data()), 2u);
  EXPECT_EQ(reqs[0].port, mem::TcdmPort::kSsr0);
  EXPECT_EQ(reqs[1].port, mem::TcdmPort::kSsr2);
  EXPECT_EQ(reqs[0].hart, 5u);
  EXPECT_EQ(reqs[1].hart, 5u);
  EXPECT_EQ(tags[0].lane, 0u);
  EXPECT_EQ(tags[1].lane, 2u);
  EXPECT_FALSE(unit.all_idle());
}

// The stream-register masks follow every change of a lane's binding: lane
// arming through write_cfg and the SSR enable. An unarmed unit requests
// nothing.
TEST(SsrUnit, MasksTrackEnableAndArming) {
  mem::AddressSpace memory;
  SsrUnit unit(memory);
  std::array<mem::TcdmRequest, SsrUnit::kMaxRequests> reqs{};
  std::array<SsrUnit::RequestTag, SsrUnit::kMaxRequests> tags{};
  EXPECT_FALSE(unit.armed());
  EXPECT_EQ(unit.collect_requests(0, reqs.data(), tags.data()), 0u);
  unit.write_cfg(0 * 32 + kRegRptr0, kTcdmBase);
  unit.write_cfg(2 * 32 + kRegWptr0, kTcdmBase + 256);
  EXPECT_TRUE(unit.armed());
  EXPECT_EQ(unit.read_mask(), 0u);  // armed but not enabled
  EXPECT_EQ(unit.write_mask(), 0u);
  unit.set_enabled(true);
  EXPECT_EQ(unit.read_mask(), 0b001u);
  EXPECT_EQ(unit.write_mask(), 0b100u);
  unit.write_cfg(1 * 32 + kRegRptr0, kTcdmBase + 512);
  EXPECT_EQ(unit.read_mask(), 0b011u);
  unit.set_enabled(false);
  EXPECT_EQ(unit.read_mask(), 0u);
  EXPECT_EQ(unit.write_mask(), 0u);
  EXPECT_TRUE(unit.armed());
}

}  // namespace
}  // namespace copift::ssr
