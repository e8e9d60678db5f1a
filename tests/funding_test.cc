#include "src/core/funding.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace lottery {
namespace {

TEST(Funding, BaseRoundTrip) {
  const Funding f = Funding::FromBase(1234);
  EXPECT_EQ(f.base_units(), 1234);
  EXPECT_DOUBLE_EQ(f.ToBaseF(), 1234.0);
  EXPECT_EQ(f.raw(), 1234 * Funding::kOne);
}

TEST(Funding, ZeroAndComparisons) {
  EXPECT_TRUE(Funding::Zero().IsZero());
  EXPECT_LT(Funding::FromBase(1), Funding::FromBase(2));
  EXPECT_EQ(Funding::FromBase(5), Funding::FromBase(5));
  EXPECT_GT(Funding::FromBase(-1), Funding::FromBase(-2));
}

TEST(Funding, AdditionSubtraction) {
  Funding a = Funding::FromBase(10);
  const Funding b = Funding::FromBase(4);
  EXPECT_EQ((a + b).base_units(), 14);
  EXPECT_EQ((a - b).base_units(), 6);
  a += b;
  EXPECT_EQ(a.base_units(), 14);
  a -= b;
  EXPECT_EQ(a.base_units(), 10);
}

TEST(Funding, ScaleByExactRatios) {
  const Funding f = Funding::FromBase(3000);
  EXPECT_EQ(f.ScaleBy(200, 300).base_units(), 2000);
  EXPECT_EQ(f.ScaleBy(1, 3).raw(), 3000 * Funding::kOne / 3);
}

TEST(Funding, ScaleByPreservesFractions) {
  // 1 base unit split 3 ways then re-summed loses < 3 raw ulps, not whole
  // units (the reason Funding exists).
  const Funding f = Funding::FromBase(1);
  const Funding third = f.ScaleBy(1, 3);
  const Funding rebuilt = third + third + third;
  EXPECT_GE(rebuilt.raw(), f.raw() - 3);
  EXPECT_LE(rebuilt.raw(), f.raw());
}

TEST(Funding, ScaleByLargeValuesNoOverflow) {
  // 10^9 base units scaled by a big ratio uses 128-bit intermediates.
  const Funding f = Funding::FromBase(1000000000);
  const Funding scaled = f.ScaleBy(999999, 1000000);
  EXPECT_NEAR(scaled.ToBaseF(), 999999000.0, 1.0);
}

TEST(Funding, CompensationStyleInflation) {
  // Section 4.5 example: 400 base units at 1/5 quantum use -> 2000.
  const Funding f = Funding::FromBase(400);
  EXPECT_EQ(f.ScaleBy(100, 20).base_units(), 2000);
}

// ScaleBy's unit-ratio and 64-bit fast paths must give exactly what the
// 128-bit formula gives. Nothing else checks this bit for bit: the
// brute-force reference in currency_invalidation_test prices through
// ScaleBy itself.
int64_t ReferenceScale(int64_t raw, int64_t num, int64_t den) {
  const __int128 wide = static_cast<__int128>(raw) * num;
  return static_cast<int64_t>(wide / den);
}

TEST(Funding, ScaleByMatchesWideReference) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t two63_over_3 = kMax / 3;
  struct Case {
    int64_t raw, num, den;
  };
  const Case cases[] = {
      // num == den, including magnitudes whose product would overflow.
      {kMax, kMax, kMax},
      {kMin, 7, 7},
      {-12345, 1000, 1000},
      {0, 5, 5},
      // Products just below and just above 2^63, both signs.
      {two63_over_3, 3, 7},
      {two63_over_3 + 1, 3, 7},
      {-two63_over_3, 3, 7},
      {-two63_over_3 - 1, 3, 7},
      {int64_t{1} << 31, int64_t{1} << 31, 3},
      {int64_t{1} << 31, (int64_t{1} << 32) - 1, 5},
      {int64_t{1} << 32, int64_t{1} << 31, 9},
      {int64_t{1} << 32, int64_t{1} << 32, 1000003},
      {kMax, 2, 3},
      {kMin, 1, 2},
      {kMin, -1, 3},
      // raw of 0 and +-1.
      {0, kMax, 1},
      {0, 3, 7},
      {1, kMax, kMax - 1},
      {1, 7, 3},
      {-1, 7, 3},
      {-1, kMax, 2},
      {1, kMin, 2},
      // Negative denominators (never used by the pricing code, but the
      // function is total on them), including the INT64_MIN / -1 edge.
      {100, 3, -7},
      {kMin, 1, -1},
      {kMin + 1, 1, -1},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(Funding::FromRaw(c.raw).ScaleBy(c.num, c.den).raw(),
              ReferenceScale(c.raw, c.num, c.den))
        << c.raw << " * " << c.num << " / " << c.den;
  }
}

TEST(Funding, ScaleByMatchesWideReferenceOnRandomOperands) {
  // splitmix64, seeded; operands drawn at random bit widths so products
  // land on both sides of 2^63 about equally often.
  uint64_t state = 0x9e3779b97f4a7c15u;
  auto next = [&state] {
    uint64_t z = (state += 0x9e3779b97f4a7c15u);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9u;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebu;
    return z ^ (z >> 31);
  };
  auto operand = [&next](bool positive) {
    const int bits = static_cast<int>(next() % 63) + 1;
    int64_t v = static_cast<int64_t>(next() >> (64 - bits));
    if (!positive && (next() & 1) != 0) {
      v = -v;
    }
    return v;
  };
  int wide = 0;
  for (int i = 0; i < 200000; ++i) {
    const int64_t raw = operand(false);
    const int64_t num = operand(false);
    int64_t den = operand(true);
    if ((next() & 7) == 0) {
      den = num;  // the unit ratio
    }
    if (den == 0) {
      den = 1;
    }
    int64_t product = 0;
    wide += __builtin_mul_overflow(raw, num, &product) ? 1 : 0;
    const __int128 quotient = static_cast<__int128>(raw) * num / den;
    if (quotient > std::numeric_limits<int64_t>::max() ||
        quotient < std::numeric_limits<int64_t>::min()) {
      continue;  // a result Funding cannot hold; callers never ask for one
    }
    ASSERT_EQ(Funding::FromRaw(raw).ScaleBy(num, den).raw(),
              ReferenceScale(raw, num, den))
        << raw << " * " << num << " / " << den;
  }
  // Both paths were exercised in earnest.
  EXPECT_GT(wide, 20000);
  EXPECT_LT(wide, 180000);
}

TEST(Funding, ToStringMentionsBase) {
  EXPECT_EQ(Funding::FromBase(2).ToString(), "2.000 base");
}

}  // namespace
}  // namespace lottery
