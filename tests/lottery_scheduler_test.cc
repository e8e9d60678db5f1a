#include "src/core/lottery_scheduler.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/histogram.h"
#include "src/obs/registry.h"

namespace lottery {
namespace {

const SimTime kT0 = SimTime::Zero();
const SimDuration kQuantum = SimDuration::Millis(100);

TEST(LotteryScheduler, EmptyPicksInvalid) {
  LotteryScheduler sched;
  EXPECT_EQ(sched.PickNext(kT0), kInvalidThreadId);
}

TEST(LotteryScheduler, AddCreatesThreadCurrencyAndClient) {
  LotteryScheduler sched;
  sched.AddThread(1, kT0);
  EXPECT_NE(sched.thread_currency(1), nullptr);
  EXPECT_NE(sched.client(1), nullptr);
  EXPECT_EQ(sched.thread_currency(1)->name(), "thread:1");
  EXPECT_THROW(sched.AddThread(1, kT0), std::invalid_argument);
}

TEST(LotteryScheduler, UnknownThreadThrows) {
  LotteryScheduler sched;
  EXPECT_THROW(sched.OnReady(9, kT0), std::invalid_argument);
  EXPECT_THROW(sched.thread_currency(9), std::invalid_argument);
}

TEST(LotteryScheduler, SingleReadyThreadAlwaysPicked) {
  LotteryScheduler sched;
  sched.AddThread(1, kT0);
  sched.FundThread(1, sched.table().base(), 100);
  sched.OnReady(1, kT0);
  EXPECT_EQ(sched.PickNext(kT0), 1u);
  // Picked thread is dequeued.
  EXPECT_EQ(sched.PickNext(kT0), kInvalidThreadId);
}

TEST(LotteryScheduler, ProportionsFollowFunding) {
  LotteryScheduler::Options opts;
  opts.seed = 777;
  LotteryScheduler sched(opts);
  sched.AddThread(1, kT0);
  sched.AddThread(2, kT0);
  sched.FundThread(1, sched.table().base(), 300);
  sched.FundThread(2, sched.table().base(), 100);
  std::map<ThreadId, int> wins;
  constexpr int kRounds = 20000;
  for (int i = 0; i < kRounds; ++i) {
    sched.OnReady(1, kT0);
    sched.OnReady(2, kT0);
    const ThreadId w = sched.PickNext(kT0);
    ++wins[w];
    // Clean up queue for next round.
    sched.OnBlocked(1, kT0);
    sched.OnBlocked(2, kT0);
  }
  EXPECT_NEAR(static_cast<double>(wins[1]) / kRounds, 0.75, 0.02);
  EXPECT_EQ(sched.num_lotteries(), static_cast<uint64_t>(kRounds));
}

TEST(LotteryScheduler, BlockedThreadValueIsZero) {
  LotteryScheduler sched;
  sched.AddThread(1, kT0);
  sched.FundThread(1, sched.table().base(), 500);
  EXPECT_TRUE(sched.ThreadValue(1).IsZero());
  sched.OnReady(1, kT0);
  EXPECT_EQ(sched.ThreadValue(1).base_units(), 500);
  sched.OnBlocked(1, kT0);
  EXPECT_TRUE(sched.ThreadValue(1).IsZero());
}

TEST(LotteryScheduler, CompensationGrantedAndClearedOnDispatch) {
  LotteryScheduler sched;
  sched.AddThread(1, kT0);
  sched.FundThread(1, sched.table().base(), 400);
  sched.OnReady(1, kT0);
  ASSERT_EQ(sched.PickNext(kT0), 1u);
  // Used 1/5 of the quantum.
  sched.OnQuantumEnd(1, SimDuration::Millis(20), kQuantum, kT0);
  sched.OnReady(1, kT0);
  EXPECT_EQ(sched.ThreadValue(1).base_units(), 2000);
  // Dispatch clears it ("starts its next quantum").
  ASSERT_EQ(sched.PickNext(kT0), 1u);
  EXPECT_EQ(sched.ThreadValue(1).base_units(), 400);
}

TEST(LotteryScheduler, CompensationCanBeDisabled) {
  LotteryScheduler::Options opts;
  opts.compensation.enabled = false;
  LotteryScheduler sched(opts);
  sched.AddThread(1, kT0);
  sched.FundThread(1, sched.table().base(), 400);
  sched.OnReady(1, kT0);
  ASSERT_EQ(sched.PickNext(kT0), 1u);
  sched.OnQuantumEnd(1, SimDuration::Millis(20), kQuantum, kT0);
  sched.OnReady(1, kT0);
  EXPECT_EQ(sched.ThreadValue(1).base_units(), 400);
}

TEST(LotteryScheduler, ZeroFundingFallsBackToRoundRobin) {
  LotteryScheduler sched;
  sched.AddThread(1, kT0);
  sched.AddThread(2, kT0);
  // No funding beyond self tickets in unfunded thread currencies: all
  // values are zero.
  sched.OnReady(1, kT0);
  sched.OnReady(2, kT0);
  const ThreadId first = sched.PickNext(kT0);
  sched.OnReady(first, kT0);
  const ThreadId second = sched.PickNext(kT0);
  EXPECT_NE(first, second);  // rotation, not starvation
  EXPECT_GE(sched.num_zero_fallbacks(), 2u);
}

TEST(LotteryScheduler, RemoveThreadCleansUpCurrencyGraph) {
  LotteryScheduler sched;
  sched.AddThread(1, kT0);
  Currency* user = sched.table().CreateCurrency("user");
  sched.table().Fund(user, sched.table().CreateTicket(sched.table().base(),
                                                      1000));
  sched.FundThread(1, user, 100);
  const size_t tickets_before = sched.table().num_tickets();
  sched.OnReady(1, kT0);
  sched.RemoveThread(1, kT0);
  EXPECT_EQ(sched.table().FindCurrency("thread:1"), nullptr);
  // Self ticket + funding ticket retired.
  EXPECT_EQ(sched.table().num_tickets(), tickets_before - 2);
  EXPECT_THROW(sched.client(1), std::invalid_argument);
}

// The thread directory is indexed by id: the invalid-id sentinel must be
// refused outright (never sized to), a sparse id must work alone, and an id
// must be reusable once its thread is removed — on every backend.
TEST(LotteryScheduler, ThreadIdsAreValidatedAndReusable) {
  for (const RunQueueBackend backend :
       {RunQueueBackend::kList, RunQueueBackend::kTree,
        RunQueueBackend::kAlias}) {
    LotteryScheduler::Options opts;
    opts.backend = backend;
    LotteryScheduler sched(opts);
    EXPECT_THROW(sched.AddThread(kInvalidThreadId, kT0),
                 std::invalid_argument);
    EXPECT_FALSE(sched.HasThread(kInvalidThreadId));

    sched.AddThread(70000, kT0);
    EXPECT_TRUE(sched.HasThread(70000));
    EXPECT_FALSE(sched.HasThread(69999));
    EXPECT_FALSE(sched.HasThread(70001));
    EXPECT_THROW(sched.OnReady(69999, kT0), std::invalid_argument);
    EXPECT_THROW(sched.OnReady(70001, kT0), std::invalid_argument);
    sched.FundThread(70000, sched.table().base(), 100);
    sched.OnReady(70000, kT0);
    EXPECT_EQ(sched.PickNext(kT0), 70000u);

    sched.AddThread(1, kT0);
    sched.FundThread(1, sched.table().base(), 100);
    sched.OnReady(1, kT0);
    sched.RemoveThread(1, kT0);
    EXPECT_FALSE(sched.HasThread(1));
    EXPECT_THROW(sched.RemoveThread(1, kT0), std::invalid_argument);
    sched.AddThread(1, kT0);
    EXPECT_EQ(sched.thread_currency(1)->name(), "thread:1");
    sched.FundThread(1, sched.table().base(), 100);
    sched.OnReady(1, kT0);
    EXPECT_EQ(sched.PickNext(kT0), 1u);
    EXPECT_EQ(sched.PickNext(kT0), kInvalidThreadId);
  }
}

TEST(LotteryScheduler, HierarchicalFundingIsProportional) {
  // Two users with 2:1 base funding; each runs one thread.
  LotteryScheduler::Options opts;
  opts.seed = 31;
  LotteryScheduler sched(opts);
  Currency* alice = sched.table().CreateCurrency("alice");
  Currency* bob = sched.table().CreateCurrency("bob");
  sched.table().Fund(alice,
                     sched.table().CreateTicket(sched.table().base(), 200));
  sched.table().Fund(bob,
                     sched.table().CreateTicket(sched.table().base(), 100));
  sched.AddThread(1, kT0);
  sched.AddThread(2, kT0);
  sched.FundThread(1, alice, 50);
  sched.FundThread(2, bob, 50);
  int wins1 = 0;
  constexpr int kRounds = 30000;
  for (int i = 0; i < kRounds; ++i) {
    sched.OnReady(1, kT0);
    sched.OnReady(2, kT0);
    if (sched.PickNext(kT0) == 1u) {
      ++wins1;
    }
    sched.OnBlocked(1, kT0);
    sched.OnBlocked(2, kT0);
  }
  EXPECT_NEAR(static_cast<double>(wins1) / kRounds, 2.0 / 3.0, 0.02);
}

TEST(LotteryScheduler, NameIsLottery) {
  LotteryScheduler sched;
  EXPECT_EQ(sched.name(), "lottery");
}

TEST(LotteryScheduler, MetricsMatchGroundTruth) {
  // Scripted run against an isolated registry: the obs counters must agree
  // exactly with what the script did.
  obs::Registry metrics;
  LotteryScheduler::Options opts;
  opts.seed = 123;
  opts.metrics = &metrics;
  LotteryScheduler sched(opts);
  sched.AddThread(1, kT0);
  sched.AddThread(2, kT0);
  sched.FundThread(1, sched.table().base(), 300);
  sched.FundThread(2, sched.table().base(), 100);

  constexpr uint64_t kRounds = 50;
  uint64_t fractional_rounds = 0;
  for (uint64_t i = 0; i < kRounds; ++i) {
    sched.OnReady(1, kT0);
    sched.OnReady(2, kT0);
    const ThreadId w = sched.PickNext(kT0);
    ASSERT_NE(w, kInvalidThreadId);
    // Alternate full and fractional quanta; only fractional ones earn a
    // compensation ticket.
    const bool fractional = (i % 2) == 1;
    if (fractional) {
      ++fractional_rounds;
    }
    sched.OnQuantumEnd(w, fractional ? SimDuration::Millis(20) : kQuantum,
                       kQuantum, kT0);
    sched.OnBlocked(1, kT0);
    sched.OnBlocked(2, kT0);
  }

  const auto hooked = [](uint64_t n) { return obs::kObsEnabled ? n : 0; };
  ASSERT_NE(metrics.FindCounter("lottery.draws"), nullptr);
  EXPECT_EQ(metrics.FindCounter("lottery.draws")->value(), hooked(kRounds));
  EXPECT_EQ(metrics.FindCounter("lottery.compensation_grants")->value(),
            hooked(fractional_rounds));
  EXPECT_EQ(metrics.FindCounter("lottery.zero_fallbacks")->value(), 0u);
  EXPECT_EQ(metrics.FindCounter("lottery.transfers")->value(), 0u);
  // The draw-cost histogram sees every draw (sampled 1-in-kSamplePeriod
  // into the buckets, first event always recorded).
  const obs::LatencyHistogram* cost =
      metrics.FindHistogram("lottery.draw_cost");
  ASSERT_NE(cost, nullptr);
  EXPECT_EQ(cost->events(), hooked(kRounds));
  EXPECT_EQ(cost->count(),
            (hooked(kRounds) + obs::LatencyHistogram::kSamplePeriod - 1) /
                obs::LatencyHistogram::kSamplePeriod);
  // num_lotteries is the scheduler's own (unhooked) tally of the same event.
  EXPECT_EQ(sched.num_lotteries(), kRounds);
}

TEST(LotteryScheduler, TransferCounterTracksNotes) {
  obs::Registry metrics;
  LotteryScheduler::Options opts;
  opts.metrics = &metrics;
  LotteryScheduler sched(opts);
  sched.NoteTransfer();
  sched.NoteTransfer();
  EXPECT_EQ(metrics.FindCounter("lottery.transfers")->value(),
            obs::kObsEnabled ? 2u : 0u);
}

TEST(LotteryScheduler, ListBackendRefusesPastThreadLimit) {
  // The list's O(n) draw is ~280x the tree's at 10k clients; past the
  // limit AddThread must throw rather than silently degrade.
  LotteryScheduler::Options opts;
  opts.backend = RunQueueBackend::kList;
  opts.list_max_threads = 8;
  LotteryScheduler sched(opts);
  for (int i = 0; i < 8; ++i) {
    sched.AddThread(static_cast<ThreadId>(i + 1), SimTime::Zero());
  }
  EXPECT_THROW(sched.AddThread(9, SimTime::Zero()), std::length_error);
  // Existing threads keep working.
  sched.OnReady(1, SimTime::Zero());
  EXPECT_EQ(sched.PickNext(SimTime::Zero()), 1u);
}

TEST(LotteryScheduler, ListBackendUnlimitedWhenDisabled) {
  LotteryScheduler::Options opts;
  opts.backend = RunQueueBackend::kList;
  opts.list_max_threads = 0;  // escape hatch for list-scaling benches
  LotteryScheduler sched(opts);
  for (int i = 0; i < 40; ++i) {
    sched.AddThread(static_cast<ThreadId>(i + 1), SimTime::Zero());
  }
  sched.OnReady(3, SimTime::Zero());
  EXPECT_EQ(sched.PickNext(SimTime::Zero()), 3u);
}

// A runnable total past FastRand::kRange ((2^31-2)^2, ~4.6e18 raw units)
// cannot be drawn uniformly. Four threads at 2e12 base tickets each total
// ~8.4e18 raw units (no uint64 wrap): the draw must reject the bound rather
// than spin in its rejection loop, on every backend (alias draws fall back
// to its tree before a table exists).
TEST(LotteryScheduler, PickNextRejectsTotalPastDrawRange) {
  for (const RunQueueBackend backend :
       {RunQueueBackend::kList, RunQueueBackend::kTree,
        RunQueueBackend::kAlias}) {
    obs::Registry metrics;
    LotteryScheduler::Options opts;
    opts.backend = backend;
    opts.metrics = &metrics;
    LotteryScheduler sched(opts);
    for (ThreadId id = 1; id <= 4; ++id) {
      sched.AddThread(id, kT0);
      sched.FundThread(id, sched.table().base(), 2'000'000'000'000);
      sched.OnReady(id, kT0);
    }
    EXPECT_THROW(sched.PickNext(kT0), std::out_of_range)
        << "backend " << static_cast<int>(backend);
  }
}

// A base amount Funding::FromBase cannot represent (past INT64_MAX >> 20,
// ~8.8e12) is refused where it enters, not at the next draw: FundThread
// throws and leaves the table and the thread's funding as they were.
TEST(LotteryScheduler, FundThreadRejectsUnrepresentableBaseAmount) {
  obs::Registry metrics;
  LotteryScheduler::Options opts;
  opts.metrics = &metrics;
  LotteryScheduler sched(opts);
  for (ThreadId id = 1; id <= 2; ++id) {
    sched.AddThread(id, kT0);
    sched.FundThread(id, sched.table().base(), 100);
  }
  const size_t tickets = sched.table().num_tickets();
  EXPECT_THROW(sched.FundThread(1, sched.table().base(), 10'000'000'000'000),
               std::out_of_range);
  EXPECT_EQ(sched.table().num_tickets(), tickets);
  EXPECT_EQ(sched.table().base()->issued_amount(), 200);
  EXPECT_EQ(sched.thread_currency(1)->backing().size(), 1u);
  for (ThreadId id = 1; id <= 2; ++id) {
    sched.OnReady(id, kT0);
  }
  EXPECT_EQ(sched.ThreadValue(1).base_units(), 100);
  EXPECT_EQ(sched.RunnableTickets(), 2 * Funding::FromBase(100).raw_unsigned());
  EXPECT_NE(sched.PickNext(kT0), kInvalidThreadId);
}

// A queue total past 2^64 raw units is refused where it would arise: four
// threads at 5e12 base tickets each (2^20 raw units per ticket) sum past
// 2^64, so the fourth wake throws instead of wrapping the total, and no
// pick is ever made on a wrapped total.
TEST(LotteryScheduler, WakeRejectsTotalPast64Bits) {
  for (const RunQueueBackend backend :
       {RunQueueBackend::kList, RunQueueBackend::kTree,
        RunQueueBackend::kAlias}) {
    SCOPED_TRACE("backend " + std::to_string(static_cast<int>(backend)));
    obs::Registry metrics;
    LotteryScheduler::Options opts;
    opts.backend = backend;
    opts.metrics = &metrics;
    LotteryScheduler sched(opts);
    for (ThreadId id = 1; id <= 4; ++id) {
      sched.AddThread(id, kT0);
      sched.FundThread(id, sched.table().base(), 5'000'000'000'000);
    }
    for (ThreadId id = 1; id <= 3; ++id) {
      sched.OnReady(id, kT0);
    }
    const uint64_t total = sched.RunnableTickets();
    EXPECT_THROW(sched.OnReady(4, kT0), std::overflow_error);
    // The refused thread is left as it came: unqueued and inactive; the
    // queue and its total are untouched and nothing is pending a sync.
    EXPECT_FALSE(sched.IsQueued(4));
    EXPECT_FALSE(sched.client(4)->active());
    EXPECT_EQ(sched.QueuedCount(), 3u);
    EXPECT_EQ(sched.CleanRunnableTickets(), std::optional<uint64_t>(total));
    // Three such threads are still past the draw's range: no pick.
    EXPECT_THROW(sched.PickNext(kT0), std::out_of_range);
    EXPECT_EQ(sched.num_lotteries(), 0u);
  }
}

// The same limit on a queued thread's re-pushed weight: inflating one
// past the 64-bit total makes every sync throw, leaves the stale weight
// and its dirty entry in place, and never picks.
TEST(LotteryScheduler, SyncRejectsTotalPast64Bits) {
  for (const RunQueueBackend backend :
       {RunQueueBackend::kList, RunQueueBackend::kTree,
        RunQueueBackend::kAlias}) {
    SCOPED_TRACE("backend " + std::to_string(static_cast<int>(backend)));
    obs::Registry metrics;
    LotteryScheduler::Options opts;
    opts.backend = backend;
    opts.metrics = &metrics;
    LotteryScheduler sched(opts);
    for (ThreadId id = 1; id <= 4; ++id) {
      sched.AddThread(id, kT0);
      sched.FundThread(id, sched.table().base(),
                       id == 4 ? 1 : 5'000'000'000'000);
      sched.OnReady(id, kT0);
    }
    const uint64_t total = sched.RunnableTickets();
    sched.FundThread(4, sched.table().base(), 5'000'000'000'000);
    for (int i = 0; i < 2; ++i) {
      EXPECT_THROW(sched.PickNext(kT0), std::overflow_error);
      EXPECT_THROW(sched.RunnableTickets(), std::overflow_error);
    }
    EXPECT_EQ(sched.num_lotteries(), 0u);
    EXPECT_EQ(sched.QueuedCount(), 4u);
    EXPECT_TRUE(sched.IsQueued(4));
    EXPECT_EQ(sched.CleanRunnableTickets(), std::nullopt);
    // Withdrawing the inflation lets the next sync through, at the old
    // total.
    sched.table().DestroyTicket(sched.table().base()->issued().back());
    EXPECT_EQ(sched.RunnableTickets(), total);
  }
}

// A rejected draw holds no lottery: the counts move only once a draw has
// returned, and every thread stays queued for the next pick.
TEST(LotteryScheduler, RejectedDrawsAreNotCounted) {
  for (const RunQueueBackend backend :
       {RunQueueBackend::kList, RunQueueBackend::kTree,
        RunQueueBackend::kAlias}) {
    SCOPED_TRACE("backend " + std::to_string(static_cast<int>(backend)));
    obs::Registry metrics;
    LotteryScheduler::Options opts;
    opts.backend = backend;
    opts.metrics = &metrics;
    LotteryScheduler sched(opts);
    for (ThreadId id = 1; id <= 4; ++id) {
      sched.AddThread(id, kT0);
      sched.FundThread(id, sched.table().base(), 2'000'000'000'000);
      sched.OnReady(id, kT0);
    }
    for (int i = 0; i < 3; ++i) {
      EXPECT_THROW(sched.PickNext(kT0), std::out_of_range);
    }
    EXPECT_EQ(sched.num_lotteries(), 0u);
    EXPECT_EQ(metrics.counter("lottery.draws")->value(), 0u);
    EXPECT_EQ(sched.QueuedCount(), 4u);
    for (ThreadId id = 1; id <= 4; ++id) {
      EXPECT_TRUE(sched.IsQueued(id)) << "thread " << id;
    }
  }
}

// The list backend's queue total follows every kind of value change:
// inflation, block and wake, compensation, and removal.
TEST(LotteryScheduler, ListRunnableTicketsTrackValueChanges) {
  LotteryScheduler::Options opts;
  opts.backend = RunQueueBackend::kList;
  LotteryScheduler sched(opts);
  sched.AddThread(1, kT0);
  sched.AddThread(2, kT0);
  sched.AddThread(3, kT0);
  Ticket* a = sched.FundThread(1, sched.table().base(), 10);
  sched.FundThread(2, sched.table().base(), 30);
  sched.FundThread(3, sched.table().base(), 5);
  sched.OnReady(1, kT0);
  sched.OnReady(2, kT0);
  sched.OnReady(3, kT0);
  const auto total = [&] {
    return Funding::FromRaw(static_cast<int64_t>(sched.RunnableTickets()))
        .base_units();
  };
  EXPECT_EQ(total(), 45);
  sched.table().SetAmount(a, 25);
  EXPECT_EQ(total(), 60);
  sched.OnBlocked(2, kT0);
  EXPECT_EQ(total(), 30);
  sched.OnReady(2, kT0);
  EXPECT_EQ(total(), 60);
  // Thread 3 runs a fifth of its quantum: requeued at 5x its funding.
  sched.OnBlocked(1, kT0);
  sched.OnBlocked(2, kT0);
  ASSERT_EQ(sched.PickNext(kT0), 3u);
  EXPECT_EQ(total(), 0);
  sched.OnQuantumEnd(3, SimDuration::Millis(20), kQuantum, kT0);
  sched.OnReady(3, kT0);
  sched.OnReady(1, kT0);
  sched.OnReady(2, kT0);
  EXPECT_EQ(total(), 25 + 30 + 25);
  sched.RemoveThread(2, kT0);
  EXPECT_EQ(total(), 50);
}

// A thread whose funding changes while it is blocked (worth zero) brings
// the new value into the queue total when it wakes.
TEST(LotteryScheduler, ListRunnableTicketsSeeMutationsWhileBlocked) {
  LotteryScheduler::Options opts;
  opts.backend = RunQueueBackend::kList;
  LotteryScheduler sched(opts);
  sched.AddThread(1, kT0);
  Ticket* a = sched.FundThread(1, sched.table().base(), 10);
  sched.OnReady(1, kT0);
  sched.OnBlocked(1, kT0);
  EXPECT_EQ(sched.RunnableTickets(), 0u);
  sched.table().SetAmount(a, 70);
  sched.OnReady(1, kT0);
  EXPECT_EQ(sched.RunnableTickets(), Funding::FromBase(70).raw_unsigned());
}

// Fixed-point currency-graph values sum exactly: 1000 base split three
// ways leaves no rounding drift between the queue total and the threads'
// own values, before and after a reprice.
TEST(LotteryScheduler, ListRunnableTicketsExactAcrossCurrencyGraph) {
  LotteryScheduler::Options opts;
  opts.backend = RunQueueBackend::kList;
  LotteryScheduler sched(opts);
  CurrencyTable& table = sched.table();
  Currency* shared = table.CreateCurrency("shared");
  table.Fund(shared, table.CreateTicket(table.base(), 1000));
  std::vector<Ticket*> funding;
  for (ThreadId id = 1; id <= 3; ++id) {
    sched.AddThread(id, kT0);
    funding.push_back(sched.FundThread(id, shared, 1));
    sched.OnReady(id, kT0);
  }
  const auto manual = [&] {
    uint64_t sum = 0;
    for (ThreadId id = 1; id <= 3; ++id) {
      sum += sched.ThreadValue(id).raw_unsigned();
    }
    return sum;
  };
  EXPECT_EQ(sched.RunnableTickets(), manual());
  table.SetAmount(funding[1], 5);
  EXPECT_EQ(sched.RunnableTickets(), manual());
}

TEST(LotteryScheduler, AliasBackendProportionsFollowFunding) {
  obs::Registry metrics;
  LotteryScheduler::Options opts;
  opts.backend = RunQueueBackend::kAlias;
  opts.seed = 777;
  opts.metrics = &metrics;
  LotteryScheduler sched(opts);
  sched.AddThread(1, SimTime::Zero());
  sched.AddThread(2, SimTime::Zero());
  sched.FundThread(1, sched.table().base(), 300);
  sched.FundThread(2, sched.table().base(), 100);
  int first = 0;
  constexpr int kRounds = 8000;
  for (int i = 0; i < kRounds; ++i) {
    sched.OnReady(1, SimTime::Zero());
    sched.OnReady(2, SimTime::Zero());
    if (sched.PickNext(SimTime::Zero()) == 1u) {
      ++first;
    }
  }
  EXPECT_NEAR(static_cast<double>(first) / kRounds, 0.75, 0.03);
  // The steady phase must actually be served by the alias table.
  EXPECT_GT(metrics.FindCounter("alias.table_draws")->value(),
            obs::kObsEnabled ? uint64_t{kRounds} / 2 : 0u);
  EXPECT_GT(sched.alias_queue().rebuilds(), 0u);
}

}  // namespace
}  // namespace lottery
