#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "kernels/codegen.hpp"
#include "kernels/glibc_math.hpp"
#include "kernels/montecarlo.hpp"
#include "kernels/prng.hpp"
#include "kernels/runner.hpp"

#include "common/error.hpp"

namespace copift::kernels {
namespace {

// cat() takes text, chars and integers wider than a byte; a uint8_t would
// print as a raw byte through an ostream, so it, bool and doubles are
// rejected at compile time.
static_assert(CatPart<std::string> && CatPart<std::string_view> && CatPart<const char*> &&
              CatPart<char[4]> && CatPart<char>);
static_assert(CatPart<int> && CatPart<unsigned> && CatPart<std::int16_t> &&
              CatPart<std::int64_t> && CatPart<std::uint64_t> && CatPart<std::size_t>);
static_assert(!CatPart<std::uint8_t> && !CatPart<std::int8_t> && !CatPart<bool> &&
              !CatPart<double> && !CatPart<float>);

TEST(Codegen, CatPrintsTextCharsAndDecimalIntegers) {
  const std::string reg = "a3";
  const std::string_view base = "sp";
  EXPECT_EQ(cat("lw ", reg, ", ", -16, "(", base, ")"), "lw a3, -16(sp)");
  EXPECT_EQ(cat('x', 31U, ',', std::uint16_t{65535}), "x31,65535");
  EXPECT_EQ(cat(std::numeric_limits<std::int64_t>::min(), " ",
                std::numeric_limits<std::uint64_t>::max()),
            "-9223372036854775808 18446744073709551615");
  EXPECT_EQ(cat(), "");
}

TEST(Codegen, DwordOfPrintsSixteenHexDigits) {
  EXPECT_EQ(dword_of(std::uint64_t{0}), ".dword 0x0000000000000000");
  EXPECT_EQ(dword_of(std::uint64_t{0xabc}), ".dword 0x0000000000000abc");
  EXPECT_EQ(dword_of(~std::uint64_t{0}), ".dword 0xffffffffffffffff");
  EXPECT_EQ(dword_of(1.0), ".dword 0x3ff0000000000000");
  EXPECT_EQ(dword_of(-0.5), ".dword 0xbfe0000000000000");
}

TEST(Codegen, AsmBuilderLayout) {
  AsmBuilder b;
  b.raw(".text\n").label("_start").c("note").l(cat("li a0, ", 5)).l("ecall");
  EXPECT_EQ(b.str(), ".text\n_start:\n  # note\n  li a0, 5\n  ecall\n");
}

TEST(Prng, LcgKnownSequence) {
  Lcg gen(0);
  EXPECT_EQ(gen.next(), 1013904223u);
  EXPECT_EQ(gen.next(), 1196435762u);  // 1664525*1013904223 + 1013904223 mod 2^32
}

TEST(Prng, LcgFullState) {
  Lcg gen(42);
  gen.next();
  EXPECT_EQ(gen.state(), 42u * Lcg::kMul + Lcg::kInc);
}

TEST(Prng, XoshiroMatchesReferenceAlgorithm) {
  // Reference implementation from Blackman & Vigna, transcribed inline.
  std::array<std::uint32_t, 4> s = {1, 2, 3, 4};
  Xoshiro128Plus gen(s);
  for (int i = 0; i < 100; ++i) {
    const std::uint32_t expected = s[0] + s[3];
    const std::uint32_t t = s[1] << 9;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = (s[3] << 11) | (s[3] >> 21);
    EXPECT_EQ(gen.next(), expected);
  }
}

TEST(Prng, SeededStateIsNonZeroAndDeterministic) {
  const auto a = Xoshiro128Plus::seeded(7);
  const auto b = Xoshiro128Plus::seeded(7);
  EXPECT_EQ(a.state(), b.state());
  const auto c = Xoshiro128Plus::seeded(8);
  EXPECT_NE(a.state(), c.state());
}

TEST(Prng, UnitDoubleRange) {
  EXPECT_EQ(to_unit_double(0), 0.0);
  EXPECT_LT(to_unit_double(0xFFFFFFFFu), 1.0);
  EXPECT_NEAR(to_unit_double(0x80000000u), 0.5, 1e-9);
}

TEST(GlibcMath, ExpMatchesStdExp) {
  for (double x = -0.95; x < 1.0; x += 0.01) {
    const double got = ref_exp(x);
    const double expected = std::exp(x);
    EXPECT_NEAR(got / expected, 1.0, 1e-7) << "x=" << x;
  }
}

TEST(GlibcMath, ExpTableStructure) {
  const auto& tab = exp_table();
  // T[0] encodes exp2(0) == 1.0 exactly.
  EXPECT_EQ(copift::bit_cast<double>(tab[0]), 1.0);
  // Adding back the (i << 47) term reconstructs 2^(i/32).
  for (unsigned i = 0; i < kExpTableSize; ++i) {
    const double v = copift::bit_cast<double>(tab[i] + (static_cast<std::uint64_t>(i) << 47));
    EXPECT_NEAR(v, std::exp2(i / 32.0), 1e-15);
  }
}

TEST(GlibcMath, ExpNearZeroIsExact) {
  EXPECT_EQ(ref_exp(0.0), 1.0);
}

TEST(GlibcMath, LogMatchesStdLog) {
  for (float x = 0.26f; x < 4.0f; x += 0.0137f) {
    const double got = ref_log(x);
    const double expected = std::log(static_cast<double>(x));
    EXPECT_NEAR(got - expected, 0.0, 2e-8) << "x=" << x;
  }
}

TEST(GlibcMath, LogDecomposeRoundTrips) {
  for (float x : {0.3f, 0.7f, 1.0f, 1.5f, 2.0f, 3.9f}) {
    const LogDecomposition d = log_decompose(x);
    EXPECT_LT(d.index, kLogTableSize);
    const float z = copift::bit_cast<float>(d.iz_bits);
    // x == z * 2^k by construction.
    EXPECT_NEAR(static_cast<double>(z) * std::exp2(d.k), x, 1e-6);
    EXPECT_GT(z, 0.69f);
    EXPECT_LT(z, 1.4f);
  }
}

TEST(GlibcMath, LogTableInverse) {
  for (const auto& e : log_table()) {
    // logc == log(1/invc) by construction.
    EXPECT_NEAR(e.logc, -std::log(e.invc), 1e-12);
  }
}

TEST(MonteCarlo, PolySchemesAgreeToUlps) {
  for (double x = 0.0; x < 1.0; x += 0.003) {
    const double h = mc_poly(x, PolyScheme::kHorner);
    const double e = mc_poly(x, PolyScheme::kEstrin);
    const double eo = mc_poly(x, PolyScheme::kEvenOdd);
    EXPECT_NEAR(h, e, 1e-14);
    EXPECT_NEAR(h, eo, 1e-14);
  }
}

TEST(MonteCarlo, PolyRangeIsUnitInterval) {
  EXPECT_NEAR(mc_poly(0.0), 1.0 / 6, 1e-15);
  EXPECT_NEAR(mc_poly(1.0), 1.0, 1e-12);
}

TEST(MonteCarlo, PiEstimateConverges) {
  const std::uint64_t n = 80000;
  const std::uint64_t hits = ref_pi_hits_lcg(7, n);
  const double pi = 4.0 * static_cast<double>(hits) / static_cast<double>(n);
  EXPECT_NEAR(pi, 3.14159, 0.05);
}

TEST(MonteCarlo, PolyEstimateConvergesToIntegral) {
  // Integral of P over [0,1] = (1/6)(1 + 1/2 + 1/3 + 1/4 + 1/5 + 1/6).
  const double expected = (1.0 + 0.5 + 1 / 3.0 + 0.25 + 0.2 + 1 / 6.0) / 6.0;
  const std::uint64_t n = 80000;
  const std::uint64_t hits = ref_poly_hits_xoshiro(11, n);
  EXPECT_NEAR(static_cast<double>(hits) / static_cast<double>(n), expected, 0.02);
}

TEST(MonteCarlo, DifferentSeedsDiffer) {
  EXPECT_NE(ref_pi_hits_lcg(1, 8000), ref_pi_hits_lcg(2, 8000));
  EXPECT_NE(ref_pi_hits_xoshiro(1, 8000), ref_pi_hits_xoshiro(2, 8000));
}

TEST(MonteCarlo, RequiresUnrollMultiple) {
  EXPECT_THROW((void)ref_pi_hits_lcg(1, 12), copift::Error);
}

TEST(Generators, AllVariantsProduceAssembly) {
  KernelConfig cfg;
  cfg.n = 64;
  cfg.block = 16;
  for (const auto name : kPaperWorkloads) {
    for (const auto v : {Variant::kBaseline, Variant::kCopift}) {
      const auto g = workload::generate(name, v, cfg);
      EXPECT_FALSE(g.source.empty());
      EXPECT_NE(g.source.find("_start"), std::string::npos);
      EXPECT_NE(g.source.find("body_begin"), std::string::npos);
      EXPECT_NE(g.source.find("ecall"), std::string::npos);
    }
  }
}

TEST(Generators, CopiftUsesPaperMechanisms) {
  KernelConfig cfg;
  cfg.n = 64;
  cfg.block = 16;
  for (const auto name : kPaperWorkloads) {
    const auto g = workload::generate(name, Variant::kCopift, cfg);
    EXPECT_NE(g.source.find("frep.o"), std::string::npos) << name;
    EXPECT_NE(g.source.find("scfgwi"), std::string::npos) << name;
    EXPECT_NE(g.source.find("copift.barrier"), std::string::npos) << name;
  }
  // MC kernels use the Xcopift conversions/comparisons.
  const auto mc = workload::generate("pi_lcg", Variant::kCopift, cfg);
  EXPECT_NE(mc.source.find("fcvt.d.wu.cop"), std::string::npos);
  EXPECT_NE(mc.source.find("flt.d.cop"), std::string::npos);
  // log uses the ISSR and fcvt.d.w.cop (paper Table I footnotes * and ‡).
  const auto lg = workload::generate("log", Variant::kCopift, cfg);
  EXPECT_NE(lg.source.find("fcvt.d.w.cop"), std::string::npos);
}

TEST(Generators, InvalidConfigsThrow) {
  KernelConfig cfg;
  cfg.n = 100;  // not a multiple of block
  cfg.block = 32;
  EXPECT_THROW(workload::generate("exp", Variant::kCopift, cfg), copift::Error);
  cfg.n = 32;
  cfg.block = 32;  // single block
  EXPECT_THROW(workload::generate("exp", Variant::kCopift, cfg), copift::Error);
  cfg.n = 30;  // not a multiple of the MC unroll
  cfg.block = 30;
  EXPECT_THROW(workload::generate("pi_lcg", Variant::kBaseline, cfg), copift::Error);
}

TEST(Inputs, DeterministicPerSeed) {
  const auto a = exp_inputs(16, 1);
  const auto b = exp_inputs(16, 1);
  const auto c = exp_inputs(16, 2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  for (double x : a) {
    EXPECT_GE(x, -1.0);
    EXPECT_LT(x, 1.0);
  }
  for (float x : log_inputs(64, 3)) {
    EXPECT_GE(x, 0.25f);
    EXPECT_LT(x, 4.0f);
  }
}

}  // namespace
}  // namespace copift::kernels
