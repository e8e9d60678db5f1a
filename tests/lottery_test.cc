// Tests for ListLottery (Figure 1, Section 4.2) and TreeLottery.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "src/core/list_lottery.h"
#include "src/core/tree_lottery.h"
#include "src/util/stats.h"

namespace lottery {
namespace {

// The list's slots in draw order, front first.
std::vector<size_t> Order(const ListLottery& lot) {
  std::vector<size_t> out;
  lot.ForEachInOrder([&](size_t slot, uint64_t) { out.push_back(slot); });
  return out;
}

TEST(ListLottery, EmptyDrawsNullopt) {
  ListLottery lot;
  FastRand rng(1);
  EXPECT_FALSE(lot.Draw(rng).has_value());
  EXPECT_TRUE(lot.empty());
}

TEST(ListLottery, AddRemoveRecyclesSlots) {
  ListLottery lot;
  const size_t a = lot.Add(10);
  const size_t b = lot.Add(20);
  EXPECT_NE(a, b);
  EXPECT_EQ(lot.size(), 2u);
  EXPECT_EQ(lot.Weight(a), 10u);
  lot.Remove(a);
  EXPECT_EQ(lot.size(), 1u);
  EXPECT_EQ(lot.total(), 20u);
  EXPECT_THROW(lot.Remove(a), std::out_of_range);
  EXPECT_THROW(lot.Weight(a), std::out_of_range);
  EXPECT_THROW(lot.SetWeight(a, 1), std::out_of_range);
  // The freed slot is handed out again, at the back of the draw order.
  EXPECT_EQ(lot.Add(7), a);
  EXPECT_EQ(Order(lot), (std::vector<size_t>{b, a}));
}

TEST(ListLottery, TotalSumsWeights) {
  ListLottery lot;
  const uint64_t weights[] = {10, 2, 5, 1, 2};
  for (const uint64_t w : weights) {
    lot.Add(w);
  }
  EXPECT_EQ(lot.total(), 20u);  // Figure 1's 20-ticket example
}

TEST(ListLottery, SetWeightMovesTotal) {
  ListLottery lot;
  const size_t a = lot.Add(10);
  const size_t b = lot.Add(30);
  lot.SetWeight(a, 25);
  EXPECT_EQ(lot.total(), 55u);
  lot.SetWeight(b, 0);
  EXPECT_EQ(lot.total(), 25u);
  FastRand rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(lot.Draw(rng), a);  // a zero-weight entry never wins
  }
}

TEST(ListLottery, SingleEntryAlwaysWins) {
  ListLottery lot;
  const size_t a = lot.Add(7);
  FastRand rng(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(lot.Draw(rng), a);
  }
}

TEST(ListLottery, ZeroTotalDrawsNulloptWithoutDrawing) {
  ListLottery lot;
  lot.Add(0);
  FastRand rng(1);
  FastRand fresh(1);
  EXPECT_FALSE(lot.Draw(rng).has_value());
  EXPECT_EQ(rng.Next(), fresh.Next());  // the RNG stream did not move
}

TEST(ListLottery, ProportionsMatchTicketsChiSquare) {
  // Figure 1's allocation: 10, 2, 5, 1, 2 of 20 total.
  ListLottery lot(/*move_to_front=*/false);
  const uint64_t weights[] = {10, 2, 5, 1, 2};
  std::vector<size_t> slots;
  for (const uint64_t w : weights) {
    slots.push_back(lot.Add(w));
  }
  FastRand rng(424242);
  constexpr int kDraws = 200000;
  std::map<size_t, int64_t> wins;
  for (int i = 0; i < kDraws; ++i) {
    ++wins[*lot.Draw(rng)];
  }
  std::vector<int64_t> observed;
  std::vector<double> expected;
  for (size_t i = 0; i < slots.size(); ++i) {
    observed.push_back(wins[slots[i]]);
    expected.push_back(kDraws * static_cast<double>(weights[i]) / 20.0);
  }
  EXPECT_LT(ChiSquareStatistic(observed, expected),
            ChiSquareCritical(4, 0.001));
}

TEST(ListLottery, MoveToFrontDoesNotChangeDistribution) {
  ListLottery lot(/*move_to_front=*/true);
  const size_t a = lot.Add(3);
  lot.Add(1);
  FastRand rng(7);
  int64_t a_wins = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    if (lot.Draw(rng) == a) {
      ++a_wins;
    }
  }
  EXPECT_NEAR(static_cast<double>(a_wins) / kDraws, 0.75, 0.01);
}

TEST(ListLottery, MoveToFrontShortensScans) {
  // One dominant entry among many, added last: with move-to-front it sits
  // at the head, so the mean scan length approaches 1.
  ListLottery plain(false), mtf(true);
  for (int i = 0; i < 49; ++i) {
    plain.Add(1);
    mtf.Add(1);
  }
  plain.Add(1000);
  mtf.Add(1000);
  FastRand rng1(5), rng2(5);
  for (int i = 0; i < 20000; ++i) {
    plain.Draw(rng1);
    mtf.Draw(rng2);
  }
  const double plain_scan = static_cast<double>(plain.total_scanned()) /
                            static_cast<double>(plain.num_draws());
  const double mtf_scan = static_cast<double>(mtf.total_scanned()) /
                          static_cast<double>(mtf.num_draws());
  EXPECT_LT(mtf_scan, plain_scan / 4.0);
}

TEST(ListLottery, WinnerMovesToFront) {
  ListLottery lot(/*move_to_front=*/true);
  const size_t a = lot.Add(1);
  const size_t b = lot.Add(1000000);
  FastRand rng(3);
  EXPECT_EQ(lot.Draw(rng), b);  // b wins almost surely
  EXPECT_EQ(Order(lot), (std::vector<size_t>{b, a}));
}

TEST(ListLottery, DynamicMembershipStaysFair) {
  // The lottery "operates fairly when the number of clients or tickets
  // varies dynamically" (Section 2): add mid-stream.
  ListLottery lot;
  lot.Add(1);
  lot.Add(1);
  FastRand rng(17);
  for (int i = 0; i < 1000; ++i) {
    lot.Draw(rng);
  }
  const size_t c = lot.Add(2);
  int64_t c_wins = 0;
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) {
    if (lot.Draw(rng) == c) {
      ++c_wins;
    }
  }
  EXPECT_NEAR(static_cast<double>(c_wins) / kDraws, 0.5, 0.02);
}

TEST(ListLottery, HeavyChurnCompactsTombstones) {
  // Add/remove churn far past the live count: draws stay correct and the
  // order semantics match the paper's list.
  ListLottery lot;
  FastRand rng(123);
  for (int round = 0; round < 50; ++round) {
    std::vector<size_t> slots;
    for (uint64_t i = 0; i < 64; ++i) {
      slots.push_back(lot.Add(1 + (i % 5)));
    }
    for (size_t i = 0; i < 60; ++i) {
      lot.Remove(slots[i]);
    }
    uint64_t manual = 0;
    for (size_t i = 60; i < 64; ++i) {
      manual += lot.Weight(slots[i]);
    }
    ASSERT_EQ(lot.total(), manual);
    const std::optional<size_t> w = lot.Draw(rng);
    ASSERT_TRUE(w.has_value());
    ASSERT_NE(std::find(slots.begin() + 60, slots.end(), *w), slots.end());
    ASSERT_EQ(Order(lot).front(), *w);  // move-to-front applied
    ASSERT_EQ(Order(lot).size(), 4u);
    for (size_t i = 60; i < 64; ++i) {
      lot.Remove(slots[i]);
    }
    ASSERT_TRUE(lot.empty());
    ASSERT_EQ(lot.total(), 0u);
  }
}

// --- TreeLottery ------------------------------------------------------------

TEST(TreeLottery, EmptyDrawsNullopt) {
  TreeLottery tree;
  FastRand rng(1);
  EXPECT_FALSE(tree.Draw(rng).has_value());
  EXPECT_TRUE(tree.empty());
}

TEST(TreeLottery, SlotForValueExactBoundaries) {
  TreeLottery tree;
  const size_t a = tree.Add(10);
  const size_t b = tree.Add(2);
  const size_t c = tree.Add(5);
  EXPECT_EQ(tree.total(), 17u);
  EXPECT_EQ(tree.SlotForValue(0), a);
  EXPECT_EQ(tree.SlotForValue(9), a);
  EXPECT_EQ(tree.SlotForValue(10), b);
  EXPECT_EQ(tree.SlotForValue(11), b);
  EXPECT_EQ(tree.SlotForValue(12), c);
  EXPECT_EQ(tree.SlotForValue(16), c);
  EXPECT_THROW(tree.SlotForValue(17), std::out_of_range);
}

TEST(TreeLottery, SetWeightMovesBoundaries) {
  TreeLottery tree;
  const size_t a = tree.Add(4);
  const size_t b = tree.Add(4);
  tree.SetWeight(a, 1);
  EXPECT_EQ(tree.total(), 5u);
  EXPECT_EQ(tree.SlotForValue(0), a);
  EXPECT_EQ(tree.SlotForValue(1), b);
}

TEST(TreeLottery, RemoveFreesAndRecyclesSlots) {
  TreeLottery tree;
  const size_t a = tree.Add(3);
  const size_t b = tree.Add(7);
  tree.Remove(a);
  EXPECT_EQ(tree.total(), 7u);
  EXPECT_EQ(tree.size(), 1u);
  const size_t c = tree.Add(5);
  EXPECT_EQ(c, a);  // recycled
  EXPECT_EQ(tree.total(), 12u);
  (void)b;
}

TEST(TreeLottery, GrowsPastInitialCapacity) {
  TreeLottery tree(2);
  std::vector<size_t> slots;
  for (int i = 0; i < 100; ++i) {
    slots.push_back(tree.Add(static_cast<uint64_t>(i + 1)));
  }
  EXPECT_EQ(tree.size(), 100u);
  uint64_t expected_total = 0;
  for (int i = 0; i < 100; ++i) {
    expected_total += static_cast<uint64_t>(i + 1);
    EXPECT_EQ(tree.Weight(slots[static_cast<size_t>(i)]),
              static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ(tree.total(), expected_total);
}

TEST(TreeLottery, ZeroWeightSlotNeverWins) {
  TreeLottery tree;
  tree.Add(0);
  const size_t b = tree.Add(5);
  FastRand rng(2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(tree.Draw(rng).value(), b);
  }
}

TEST(TreeLottery, DistributionMatchesWeights) {
  TreeLottery tree;
  const size_t a = tree.Add(10);
  const size_t b = tree.Add(2);
  const size_t c = tree.Add(5);
  const size_t d = tree.Add(1);
  const size_t e = tree.Add(2);
  FastRand rng(31337);
  std::map<size_t, int64_t> wins;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    ++wins[tree.Draw(rng).value()];
  }
  const std::vector<int64_t> observed = {wins[a], wins[b], wins[c], wins[d],
                                         wins[e]};
  const std::vector<double> expected = {kDraws * 10 / 20.0, kDraws * 2 / 20.0,
                                        kDraws * 5 / 20.0, kDraws * 1 / 20.0,
                                        kDraws * 2 / 20.0};
  EXPECT_LT(ChiSquareStatistic(observed, expected),
            ChiSquareCritical(4, 0.001));
}

TEST(TreeLottery, LargeWeightsUse64Bits) {
  TreeLottery tree;
  const uint64_t big = uint64_t{1} << 40;
  const size_t a = tree.Add(big);
  const size_t b = tree.Add(big * 3);
  FastRand rng(11);
  int64_t b_wins = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    if (tree.Draw(rng).value() == b) {
      ++b_wins;
    }
  }
  EXPECT_NEAR(static_cast<double>(b_wins) / kDraws, 0.75, 0.02);
  (void)a;
}

// Property sweep: for any size, SlotForValue partitions [0, total) into
// intervals whose lengths equal the weights.
class TreePartitionSweep : public ::testing::TestWithParam<int> {};

TEST_P(TreePartitionSweep, PartitionLengthsEqualWeights) {
  const int n = GetParam();
  TreeLottery tree;
  FastRand rng(static_cast<uint32_t>(100 + n));
  std::vector<size_t> slots;
  std::vector<uint64_t> weights;
  for (int i = 0; i < n; ++i) {
    const uint64_t w = rng.NextBelow(20);  // zero weights allowed
    slots.push_back(tree.Add(w));
    weights.push_back(w);
  }
  std::map<size_t, uint64_t> hits;
  for (uint64_t v = 0; v < tree.total(); ++v) {
    ++hits[tree.SlotForValue(v)];
  }
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(hits[slots[static_cast<size_t>(i)]],
              weights[static_cast<size_t>(i)])
        << "slot " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TreePartitionSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 17, 33, 64, 100));

}  // namespace
}  // namespace lottery
