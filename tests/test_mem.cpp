#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/layout.hpp"
#include "mem/address_space.hpp"
#include "mem/dma.hpp"
#include "mem/l0_icache.hpp"
#include "mem/tcdm.hpp"

namespace copift::mem {
namespace {

TEST(AddressSpace, RoundTripAllWidths) {
  AddressSpace m;
  m.store8(kTcdmBase, 0xAB);
  EXPECT_EQ(m.load8(kTcdmBase), 0xAB);
  m.store16(kTcdmBase + 2, 0xBEEF);
  EXPECT_EQ(m.load16(kTcdmBase + 2), 0xBEEF);
  m.store32(kTcdmBase + 4, 0xDEADBEEF);
  EXPECT_EQ(m.load32(kTcdmBase + 4), 0xDEADBEEFu);
  m.store64(kTcdmBase + 8, 0x0102030405060708ull);
  EXPECT_EQ(m.load64(kTcdmBase + 8), 0x0102030405060708ull);
  m.store64(kDramBase, 42);
  EXPECT_EQ(m.load64(kDramBase), 42u);
}

TEST(AddressSpace, LittleEndianLayout) {
  AddressSpace m;
  m.store32(kTcdmBase, 0x04030201);
  EXPECT_EQ(m.load8(kTcdmBase), 0x01);
  EXPECT_EQ(m.load8(kTcdmBase + 3), 0x04);
}

TEST(AddressSpace, UnmappedThrows) {
  AddressSpace m;
  EXPECT_THROW((void)m.load32(0x100), SimError);
  EXPECT_THROW(m.store32(kTcdmBase + kTcdmSize, 1), SimError);
  EXPECT_THROW((void)m.load64(kTcdmBase + kTcdmSize - 4), SimError);  // straddles end
}

TEST(AddressSpace, BlockWriteAndCopy) {
  AddressSpace m;
  m.write_block(kTcdmBase, {1, 2, 3, 4});
  EXPECT_EQ(m.load32(kTcdmBase), 0x04030201u);
  m.copy(kTcdmBase + 16, kTcdmBase, 4);
  EXPECT_EQ(m.load32(kTcdmBase + 16), 0x04030201u);
  m.copy(kDramBase, kTcdmBase, 4);
  EXPECT_EQ(m.load32(kDramBase), 0x04030201u);
}

TEST(Tcdm, NoConflictDifferentBanks) {
  TcdmArbiter arb(32);
  std::vector<TcdmRequest> reqs = {
      {TcdmPort::kIntLsu, kTcdmBase + 0},
      {TcdmPort::kSsr0, kTcdmBase + 8},
      {TcdmPort::kSsr1, kTcdmBase + 16},
  };
  EXPECT_EQ(arb.arbitrate(reqs), 0b111u);
  EXPECT_EQ(arb.conflicts(), 0u);
}

TEST(Tcdm, ConflictSameBank) {
  TcdmArbiter arb(32);
  std::vector<TcdmRequest> reqs = {
      {TcdmPort::kIntLsu, kTcdmBase + 0},
      {TcdmPort::kSsr0, kTcdmBase + 0},  // same bank
  };
  const auto grants = arb.arbitrate(reqs);
  EXPECT_EQ(__builtin_popcountll(grants), 1);
  EXPECT_EQ(arb.conflicts(), 1u);
}

TEST(Tcdm, SameBankDifferentWord) {
  TcdmArbiter arb(4);  // 4 banks: addresses 32 bytes apart share a bank
  std::vector<TcdmRequest> reqs = {
      {TcdmPort::kIntLsu, kTcdmBase + 0},
      {TcdmPort::kSsr0, kTcdmBase + 32},
  };
  EXPECT_EQ(__builtin_popcountll(arb.arbitrate(reqs)), 1);
}

TEST(Tcdm, RoundRobinFairness) {
  TcdmArbiter arb(32);
  // Two requesters fighting for the same bank must alternate.
  int wins0 = 0;
  int wins1 = 0;
  for (int i = 0; i < 100; ++i) {
    std::vector<TcdmRequest> reqs = {
        {TcdmPort::kIntLsu, kTcdmBase}, {TcdmPort::kSsr0, kTcdmBase}};
    const auto grants = arb.arbitrate(reqs);
    if (grants & 1) ++wins0;
    if (grants & 2) ++wins1;
  }
  EXPECT_EQ(wins0 + wins1, 100);
  EXPECT_GT(wins0, 20);
  EXPECT_GT(wins1, 20);
}

TEST(Tcdm, BankOfInterleaving) {
  TcdmArbiter arb(32);
  EXPECT_EQ(arb.bank_of(kTcdmBase + 0), arb.bank_of(kTcdmBase + 32 * 8));
  EXPECT_NE(arb.bank_of(kTcdmBase + 0), arb.bank_of(kTcdmBase + 8));
}

namespace {

/// Reference arbitration: the pre-optimization algorithm (rotating priority
/// via a stable sort over the requests), transcribed verbatim. The
/// production arbiter replaced the per-cycle sort and scratch allocations
/// with rotating-start chain iteration; grants must stay bit-identical.
class ReferenceArbiter {
 public:
  ReferenceArbiter(unsigned num_banks, unsigned num_harts)
      : num_banks_(num_banks), num_requesters_(kNumTcdmPorts * num_harts) {}

  std::uint64_t arbitrate(const std::vector<TcdmRequest>& requests) {
    std::uint64_t granted = 0;
    std::vector<bool> bank_taken(num_banks_, false);
    std::vector<unsigned> order(requests.size());
    for (unsigned i = 0; i < requests.size(); ++i) order[i] = i;
    const auto priority = [&](const TcdmRequest& r) {
      const unsigned id = r.hart * kNumTcdmPorts + static_cast<unsigned>(r.port);
      return (id + num_requesters_ - rr_) % num_requesters_;
    };
    std::stable_sort(order.begin(), order.end(), [&](unsigned a, unsigned b) {
      return priority(requests[a]) < priority(requests[b]);
    });
    for (unsigned i : order) {
      const unsigned bank = (requests[i].addr >> 3) % num_banks_;
      if (bank_taken[bank]) continue;
      bank_taken[bank] = true;
      granted |= (std::uint64_t{1} << i);
    }
    rr_ = (rr_ + 1) % num_requesters_;
    return granted;
  }

 private:
  unsigned num_banks_;
  unsigned num_requesters_;
  unsigned rr_ = 0;
};

}  // namespace

// Guard for the allocation-free rewrite and the conflict-free fast path:
// randomized multi-hart request patterns over thousands of cycles must
// produce exactly the grant masks of the historical stable-sort arbiter
// (same rotating-priority decisions, same conflict counts). 8 banks clash on
// most cycles; 32 banks interleave clash-free cycles with clashing ones, so
// the rotation after fast-path cycles is checked; 24 banks is not a power of
// two; 96 banks is past the fast path's 64-bank mask.
TEST(Tcdm, RotatingIterationMatchesStableSortReference) {
  struct ArbiterShape {
    unsigned banks;
    unsigned harts;
    unsigned clash_free_percent;  // share of cycles drawn with every request on its own bank
  };
  constexpr ArbiterShape kShapes[] = {{8, 4, 0}, {32, 4, 80}, {24, 3, 50}, {96, 4, 50}};
  for (const ArbiterShape& shape : kShapes) {
    SCOPED_TRACE(std::to_string(shape.banks) + " banks, " + std::to_string(shape.harts) +
                 " harts");
    TcdmArbiter arb(shape.banks, shape.harts);
    ReferenceArbiter ref(shape.banks, shape.harts);
    std::mt19937 rng(1234);
    std::vector<unsigned> banks(shape.banks);
    std::iota(banks.begin(), banks.end(), 0u);
    std::uint64_t total_requests = 0;
    std::uint64_t total_grants = 0;
    for (int cycle = 0; cycle < 5000; ++cycle) {
      const bool clash_free = rng() % 100 < shape.clash_free_percent;
      if (clash_free) std::shuffle(banks.begin(), banks.end(), rng);
      std::vector<TcdmRequest> reqs;
      // Each (hart, port) pair presents at most one request, like the cluster.
      for (unsigned h = 0; h < shape.harts; ++h) {
        for (unsigned p = 0; p < kNumTcdmPorts; ++p) {
          if ((rng() & 3u) != 0) continue;  // ~25% of ports active per cycle
          TcdmRequest r;
          r.port = static_cast<TcdmPort>(p);
          // A clash-free cycle gives request i bank banks[i], at any row.
          const unsigned word = clash_free ? banks.at(reqs.size()) + shape.banks * (rng() % 4)
                                           : rng() % (2 * shape.banks);
          r.addr = kTcdmBase + word * 8;
          r.hart = h;
          reqs.push_back(r);
        }
      }
      const std::uint64_t got = arb.arbitrate(reqs);
      const std::uint64_t want = ref.arbitrate(reqs);
      ASSERT_EQ(got, want) << "cycle " << cycle << " with " << reqs.size() << " requests";
      total_requests += reqs.size();
      total_grants += static_cast<std::uint64_t>(__builtin_popcountll(got));
    }
    EXPECT_EQ(arb.grants(), total_grants);
    EXPECT_EQ(arb.conflicts(), total_requests - total_grants);
    EXPECT_GT(arb.conflicts(), 0u);  // the pattern actually exercised conflicts
  }
}

TEST(L0, SequentialStreamIsPrefetched) {
  L0ICache l0(8, 8, 2);
  unsigned total_penalty = 0;
  for (std::uint32_t pc = 0x1000; pc < 0x1000 + 4 * 100; pc += 4) {
    total_penalty += l0.fetch(pc);
  }
  // First line is a cold branch miss; every other line is prefetched.
  EXPECT_EQ(total_penalty, 2u);
  EXPECT_GT(l0.stats().sequential_refills, 10u);
}

TEST(L0, SmallLoopFits) {
  L0ICache l0(8, 8, 2);
  // 32-instruction loop executed 10 times: only cold refills.
  for (int iter = 0; iter < 10; ++iter) {
    for (std::uint32_t pc = 0x1000; pc < 0x1000 + 4 * 32; pc += 4) l0.fetch(pc);
  }
  EXPECT_EQ(l0.stats().refills(), 4u);  // 32 instrs = 4 lines, fetched once
  EXPECT_EQ(l0.stats().branch_misses + l0.stats().sequential_refills, 4u);
}

TEST(L0, LargeLoopThrashes) {
  L0ICache l0(8, 8, 2);  // 64-instruction capacity
  // 96-instruction loop: every iteration refills every line (FIFO).
  for (int iter = 0; iter < 10; ++iter) {
    for (std::uint32_t pc = 0x1000; pc < 0x1000 + 4 * 96; pc += 4) l0.fetch(pc);
  }
  EXPECT_GE(l0.stats().refills(), 10u * 12u - 12u);
}

TEST(L0, FlushEvicts) {
  L0ICache l0(8, 8, 2);
  l0.fetch(0x1000);
  l0.reset_stats();
  l0.fetch(0x1000);
  EXPECT_EQ(l0.stats().hits, 1u);
  l0.flush();
  l0.reset_stats();
  EXPECT_GT(l0.fetch(0x1000), 0u);  // branch miss again
}

/// Reference L0: the lookup before the same-line fast path, transcribed
/// verbatim (FIFO scan on every fetch).
class ReferenceL0 {
 public:
  ReferenceL0(unsigned num_lines, unsigned words_per_line, unsigned branch_miss_penalty)
      : num_lines_(num_lines),
        words_per_line_(words_per_line),
        branch_miss_penalty_(branch_miss_penalty),
        lines_(num_lines, UINT32_MAX) {}

  unsigned fetch(std::uint32_t pc) {
    const std::uint32_t line = pc / (4 * words_per_line_);
    if (std::find(lines_.begin(), lines_.end(), line) != lines_.end()) {
      ++stats.hits;
      last_line_ = line;
      return 0;
    }
    lines_[fifo_head_] = line;
    fifo_head_ = (fifo_head_ + 1) % num_lines_;
    const bool sequential = last_line_ != UINT32_MAX && line == last_line_ + 1;
    last_line_ = line;
    if (sequential) {
      ++stats.sequential_refills;
      return 0;
    }
    ++stats.branch_misses;
    return branch_miss_penalty_;
  }

  void flush() {
    std::fill(lines_.begin(), lines_.end(), UINT32_MAX);
    fifo_head_ = 0;
    last_line_ = UINT32_MAX;
  }

  L0Stats stats;

 private:
  unsigned num_lines_;
  unsigned words_per_line_;
  unsigned branch_miss_penalty_;
  std::vector<std::uint32_t> lines_;
  unsigned fifo_head_ = 0;
  std::uint32_t last_line_ = UINT32_MAX;
};

// Seeded fetch streams mixing sequential runs, short backward branches, far
// jumps and periodic flushes must see the reference's penalty on every fetch
// and its hit/refill counts after every fetch, for thrashing (1 line),
// paper-sized, long-line and short-line geometries.
TEST(L0, MatchesFifoScanReference) {
  struct Geometry {
    unsigned lines;
    unsigned words_per_line;
  };
  constexpr Geometry kGeometries[] = {{1, 8}, {8, 8}, {4, 16}, {16, 2}};
  constexpr std::uint32_t kBase = 0x1000;
  for (const Geometry& g : kGeometries) {
    SCOPED_TRACE(std::to_string(g.lines) + "x" + std::to_string(g.words_per_line));
    L0ICache l0(g.lines, g.words_per_line, 3);
    ReferenceL0 ref(g.lines, g.words_per_line, 3);
    std::mt19937 rng(20251);
    std::uint32_t pc = kBase;
    for (int i = 0; i < 20000; ++i) {
      if (i % 1500 == 1499) {
        l0.flush();
        ref.flush();
      }
      const unsigned pick = rng() % 100;
      if (pick < 80) {
        pc += 4;  // sequential
      } else if (pick < 92) {
        pc -= std::min<std::uint32_t>(pc - kBase, 4 * (1 + rng() % 48));  // short loop back-edge
      } else {
        pc = kBase + 4 * (rng() % 2048);  // far jump
      }
      ASSERT_EQ(l0.fetch(pc), ref.fetch(pc)) << "fetch " << i << " at pc " << pc;
      ASSERT_EQ(l0.stats().hits, ref.stats.hits) << "fetch " << i;
      ASSERT_EQ(l0.stats().sequential_refills, ref.stats.sequential_refills) << "fetch " << i;
      ASSERT_EQ(l0.stats().branch_misses, ref.stats.branch_misses) << "fetch " << i;
    }
    EXPECT_GT(ref.stats.sequential_refills, 0u);
    EXPECT_GT(ref.stats.branch_misses, 0u);
  }
}

TEST(Dma, CopiesAndTracksBusy) {
  AddressSpace m;
  for (unsigned i = 0; i < 256; ++i) m.store8(kDramBase + i, static_cast<std::uint8_t>(i));
  DmaEngine dma(m, 64);
  dma.set_src(kDramBase);
  dma.set_dst(kTcdmBase);
  dma.start(256);
  EXPECT_EQ(dma.pending(), 1u);
  unsigned ticks = 0;
  while (dma.pending() > 0 && ticks < 100) {
    dma.tick();
    ++ticks;
  }
  EXPECT_EQ(ticks, 4u);  // 256 bytes at 64 B/cycle
  EXPECT_EQ(dma.busy_cycles(), 4u);
  EXPECT_EQ(dma.bytes_moved(), 256u);
  for (unsigned i = 0; i < 256; ++i) EXPECT_EQ(m.load8(kTcdmBase + i), i);
}

TEST(Dma, QueuesMultipleTransfers) {
  AddressSpace m;
  DmaEngine dma(m, 64);
  dma.set_src(kDramBase);
  dma.set_dst(kTcdmBase);
  dma.start(64);
  dma.set_src(kDramBase + 1024);
  dma.set_dst(kTcdmBase + 1024);
  dma.start(64);
  EXPECT_EQ(dma.pending(), 2u);
  dma.tick();
  EXPECT_EQ(dma.pending(), 1u);
  dma.tick();
  EXPECT_EQ(dma.pending(), 0u);
  dma.tick();  // idle tick
  EXPECT_EQ(dma.busy_cycles(), 2u);
}

}  // namespace
}  // namespace copift::mem
