// Unit tests for the SMP balancing machinery in src/sched/smp/: the domain
// topology, forced migration (funding, value, and compensation carried
// across per-CPU currency tables), idle-pull stealing, and the periodic
// ticket-weighted balance steal converging toward equal per-CPU totals.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/counter.h"
#include "src/obs/registry.h"
#include "src/sched/smp/balance_domains.h"
#include "src/sched/smp/smp_scheduler.h"
#include "src/sim/kernel.h"
#include "src/workloads/compute.h"

namespace lottery {
namespace {

using smp::Domain;
using smp::DomainMap;
using smp::SmpScheduler;

TEST(DomainMap, UniprocessorHasNoLevels) {
  const DomainMap map(1);
  EXPECT_EQ(map.num_levels(), 0);
}

TEST(DomainMap, TwoCpusCollapseToOneLevel) {
  const DomainMap map(2);
  ASSERT_EQ(map.num_levels(), 1);
  const Domain d = map.At(1, 0);
  EXPECT_EQ(d.first, 0);
  EXPECT_EQ(d.count, 2);
}

TEST(DomainMap, FourCpusPairThenSystem) {
  const DomainMap map(4);
  ASSERT_EQ(map.num_levels(), 2);
  EXPECT_EQ(map.At(3, 0).first, 2);
  EXPECT_EQ(map.At(3, 0).count, 2);
  EXPECT_EQ(map.At(3, 1).first, 0);
  EXPECT_EQ(map.At(3, 1).count, 4);
}

TEST(DomainMap, SixteenCpusPairPackageSystem) {
  const DomainMap map(16);
  ASSERT_EQ(map.num_levels(), 3);
  EXPECT_EQ(map.At(5, 0).first, 4);
  EXPECT_EQ(map.At(5, 0).count, 2);
  EXPECT_EQ(map.At(5, 1).first, 0);
  EXPECT_EQ(map.At(5, 1).count, 8);
  EXPECT_EQ(map.At(13, 1).first, 8);
  EXPECT_EQ(map.At(13, 1).count, 8);
  EXPECT_EQ(map.At(13, 2).first, 0);
  EXPECT_EQ(map.At(13, 2).count, 16);
}

TEST(DomainMap, UnevenTrailingPackageIsSmaller) {
  const DomainMap map(12);
  ASSERT_EQ(map.num_levels(), 3);  // 2, 8, 12
  EXPECT_EQ(map.At(9, 1).first, 8);
  EXPECT_EQ(map.At(9, 1).count, 4);
}

TEST(DomainMap, RejectsBadArguments) {
  EXPECT_THROW(DomainMap(0), std::invalid_argument);
  const DomainMap map(4);
  EXPECT_THROW(map.At(4, 0), std::out_of_range);
  EXPECT_THROW(map.At(0, 2), std::out_of_range);
}

SmpScheduler::Options BalanceOpts(int cpus, obs::Registry* reg) {
  SmpScheduler::Options o;
  o.num_cpus = cpus;
  o.seed = 7001;
  o.metrics = reg;
  return o;
}

// Spawns `n` threads (round-robin homes), funds thread i with fund(i), and
// readies everything.
std::vector<ThreadId> Populate(SmpScheduler& sched, int n,
                               const std::vector<int64_t>& amounts) {
  std::vector<ThreadId> tids;
  for (int i = 0; i < n; ++i) {
    const ThreadId tid = static_cast<ThreadId>(i + 1);
    sched.AddThread(tid, SimTime::Zero());
    sched.FundThread(tid, amounts[static_cast<size_t>(i)]);
    sched.OnReady(tid, SimTime::Zero());
    tids.push_back(tid);
  }
  return tids;
}

TEST(SmpMigrate, CarriesFundingValueAndCompensation) {
  obs::Registry reg;
  SmpScheduler sched(BalanceOpts(2, &reg));
  const auto tids = Populate(sched, 2, {100, 100});
  const ThreadId mover = tids[0];  // homed on CPU 0
  ASSERT_EQ(sched.HomeCpu(mover), 0);
  // Grant a compensation boost as an under-consuming quantum would.
  sched.cpu(0).client(mover)->SetCompensation(5, 1);
  const uint64_t value_before = sched.cpu(0).ThreadValue(mover).raw_unsigned();
  const int64_t funded_before = sched.FundedAmount(mover);

  sched.Migrate(mover, 1, SimTime::Zero());

  EXPECT_EQ(sched.HomeCpu(mover), 1);
  EXPECT_EQ(sched.ThreadMigrations(mover), 1u);
  EXPECT_EQ(sched.FundedAmount(mover), funded_before);
  EXPECT_EQ(sched.cpu(1).ThreadValue(mover).raw_unsigned(), value_before);
  EXPECT_EQ(sched.cpu(1).client(mover)->compensation_num(), 5);
  EXPECT_EQ(sched.cpu(1).client(mover)->compensation_den(), 1);
  EXPECT_FALSE(sched.cpu(0).HasThread(mover));
  EXPECT_TRUE(sched.cpu(1).IsQueued(mover));
  sched.CheckIntegrity();
}

TEST(SmpMigrate, RejectsRunningBlockedAndResidentThreads) {
  obs::Registry reg;
  SmpScheduler sched(BalanceOpts(2, &reg));
  const auto tids = Populate(sched, 4, {100, 100, 100, 100});
  // Already on the destination.
  EXPECT_THROW(sched.Migrate(tids[1], 1, SimTime::Zero()),
               std::invalid_argument);
  // Running threads are pinned until their slice resolves.
  const ThreadId running = sched.PickNextOnCpu(0, SimTime::Zero());
  ASSERT_NE(running, kInvalidThreadId);
  EXPECT_THROW(sched.Migrate(running, 1, SimTime::Zero()),
               std::invalid_argument);
  // Blocked threads left the queue; they migrate by re-homing on wake, not
  // by stealing.
  sched.OnBlocked(tids[3], SimTime::Zero());
  EXPECT_THROW(sched.Migrate(tids[3], 0, SimTime::Zero()),
               std::invalid_argument);
  // Unknown thread.
  EXPECT_THROW(sched.Migrate(999, 1, SimTime::Zero()), std::invalid_argument);
}

TEST(SmpSteal, IdleCpuPullsFromNearestBusyDomain) {
  obs::Registry reg;
  SmpScheduler::Options o = BalanceOpts(4, &reg);
  SmpScheduler sched(o);
  // Two threads, both homed on CPU 0 (then 1): CPUs 2/3 start empty.
  sched.AddThread(1, SimTime::Zero());
  sched.FundThread(1, 300);
  sched.OnReady(1, SimTime::Zero());
  sched.AddThread(2, SimTime::Zero());  // home 1, stays blocked
  // CPU 3 is idle; its pair sibling (CPU 2) is empty too, so the pull
  // widens to the system level and takes CPU 0's queued thread.
  const ThreadId got = sched.PickNextOnCpu(3, SimTime::Zero());
  EXPECT_EQ(got, 1u);
  EXPECT_EQ(sched.steals(), 1u);
  EXPECT_EQ(sched.HomeCpu(1), 3);
  EXPECT_EQ(sched.FundedAmount(1), 300);
  sched.CheckIntegrity();
}

TEST(SmpSteal, NothingToStealIsQuietlyIdle) {
  obs::Registry reg;
  SmpScheduler sched(BalanceOpts(4, &reg));
  const uint32_t balance_state = sched.balance_rng().state();
  EXPECT_EQ(sched.PickNextOnCpu(2, SimTime::Zero()), kInvalidThreadId);
  EXPECT_EQ(sched.steals(), 0u);
  EXPECT_EQ(sched.balance_rng().state(), balance_state);
}

TEST(SmpBalance, PeriodicStealsEqualizeTicketValue) {
  obs::Registry reg;
  SmpScheduler::Options o = BalanceOpts(2, &reg);
  o.balance_period = 1;  // check on every dispatch
  SmpScheduler sched(o);
  // Round-robin homing puts the rich threads (even spawn order) on CPU 0
  // and the poor ones on CPU 1: totals start 4000 vs 40.
  const auto tids = Populate(sched, 8, {1000, 10, 1000, 10,
                                        1000, 10, 1000, 10});
  const SimDuration quantum = SimDuration::Millis(10);
  SimTime now = SimTime::Zero();
  for (int round = 0; round < 300; ++round) {
    for (int cpu = 0; cpu < 2; ++cpu) {
      const ThreadId tid = sched.PickNextOnCpu(cpu, now);
      if (tid != kInvalidThreadId) {
        sched.OnQuantumEnd(tid, quantum, quantum, now + quantum);
        sched.OnReady(tid, now + quantum);
      }
    }
    now = now + quantum;
  }
  sched.CheckIntegrity();
  EXPECT_GT(sched.migrations(), 0u);
  // Every thread is queued again; per-CPU runnable totals must be near
  // equal — the balancer chased ticket value, not thread counts.
  const uint64_t a = sched.cpu(0).RunnableTickets();
  const uint64_t b = sched.cpu(1).RunnableTickets();
  const uint64_t diff = a > b ? a - b : b - a;
  EXPECT_LT(diff * 4, a + b)
      << "per-CPU totals " << a << " vs " << b << " still skewed";
  // Global funding is conserved across however many migrations happened.
  int64_t funded = 0;
  for (const ThreadId tid : tids) {
    funded += sched.FundedAmount(tid);
  }
  EXPECT_EQ(funded, 4 * 1000 + 4 * 10);
}

TEST(SmpBalance, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    obs::Registry reg;
    SmpScheduler::Options o;
    o.num_cpus = 4;
    o.seed = 4242;
    o.balance_period = 2;
    o.metrics = &reg;
    SmpScheduler sched(o);
    std::vector<int64_t> amounts;
    for (int i = 0; i < 12; ++i) {
      amounts.push_back(50 + 125 * (i % 4));
    }
    Populate(sched, 12, amounts);
    const SimDuration quantum = SimDuration::Millis(10);
    SimTime now = SimTime::Zero();
    std::vector<ThreadId> winners;
    for (int round = 0; round < 200; ++round) {
      for (int cpu = 0; cpu < 4; ++cpu) {
        const ThreadId tid = sched.PickNextOnCpu(cpu, now);
        winners.push_back(tid);
        if (tid != kInvalidThreadId) {
          sched.OnQuantumEnd(tid, quantum, quantum, now + quantum);
          sched.OnReady(tid, now + quantum);
        }
      }
      now = now + quantum;
    }
    winners.push_back(static_cast<ThreadId>(sched.migrations()));
    winners.push_back(static_cast<ThreadId>(sched.steals()));
    return winners;
  };
  EXPECT_EQ(run(), run());
}

// Runs CheckIntegrity from inside the dispatch loop every `interval`, so
// the balancer's value cache is checked between dispatches, not only
// between RunFor steps.
class IntegrityHook : public SampleHook {
 public:
  IntegrityHook(const SmpScheduler* sched, SimDuration interval)
      : sched_(sched), interval_(interval) {}
  int64_t Sample(SimTime now) override {
    sched_->CheckIntegrity();
    ++checks_;
    return (now + interval_).nanos();
  }
  uint64_t checks() const { return checks_; }

 private:
  const SmpScheduler* sched_;
  SimDuration interval_;
  uint64_t checks_ = 0;
};

struct ChurnResult {
  uint64_t steals = 0;
  uint64_t migrations = 0;
  uint64_t cost_vetoes = 0;
  uint64_t cpu_time_hash = 0;
};

// Value churn on every path that can move a CPU's assigned ticket value:
// SetAmount on a per-CPU pool currency that funds some threads, the
// compensation tickets YieldingTask earns, InteractiveTask's block/wake
// cycle, forced migrations, and the balancer's own steals.
ChurnResult RunValueChurn(RunQueueBackend backend, int cpus) {
  obs::Registry reg;
  SmpScheduler::Options so;
  so.num_cpus = cpus;
  so.seed = 9091;
  so.balance_period = 2;
  // A heavy cache footprint, so the crossbar cost model vetoes some steals.
  so.footprint_cells = 512;
  so.cpu.backend = backend;
  so.metrics = &reg;
  SmpScheduler sched(so);
  Kernel::Options ko;
  ko.quantum = SimDuration::Millis(5);
  ko.num_cpus = cpus;
  ko.metrics = &reg;
  Kernel kernel(&sched, ko);

  std::vector<Ticket*> pool_ticket;
  std::vector<Currency*> pool;
  for (int c = 0; c < cpus; ++c) {
    CurrencyTable& table = sched.cpu(c).table();
    pool.push_back(table.CreateCurrency("pool"));
    pool_ticket.push_back(table.CreateTicket(table.base(), 100));
    table.Fund(pool.back(), pool_ticket.back());
  }
  const int n = 3 * cpus;
  std::vector<ThreadId> tids;
  for (int i = 0; i < n; ++i) {
    std::unique_ptr<ThreadBody> body;
    switch (i % 3) {
      case 0:
        body = std::make_unique<ComputeTask>();
        break;
      case 1:
        body = std::make_unique<YieldingTask>(SimDuration::Millis(2));
        break;
      default:
        body = std::make_unique<InteractiveTask>(SimDuration::Millis(1),
                                                 SimDuration::Millis(8));
        break;
    }
    const ThreadId tid = kernel.Spawn("t" + std::to_string(i),
                                      std::move(body));
    sched.FundThread(tid, 50 + 37 * (i % 7));
    if (i % 2 == 0) {
      // Pool funding is per-table and is not re-issued on migration.
      const int home = sched.HomeCpu(tid);
      sched.cpu(home).FundThread(tid, pool[static_cast<size_t>(home)],
                                 10 + i % 5);
    }
    tids.push_back(tid);
  }

  IntegrityHook hook(&sched, SimDuration::Millis(1));
  kernel.SetSampler(&hook);
  // The crossbar's matching rounds make wide machines costly to simulate,
  // so the 64-CPU runs are shorter.
  const int steps = cpus > 8 ? 6 : 40;
  for (int step = 0; step < steps; ++step) {
    kernel.RunFor(SimDuration::Millis(10));
    for (int k = 0; k < 2; ++k) {
      const int c = (step * 3 + k * 5) % cpus;
      sched.cpu(c).table().SetAmount(pool_ticket[static_cast<size_t>(c)],
                                     20 + (step * 13 + c * 7) % 300);
    }
    const ThreadId tid = tids[static_cast<size_t>((step * 5) % n)];
    const int home = sched.HomeCpu(tid);
    if (sched.cpu(home).IsQueued(tid)) {
      sched.Migrate(tid, (home + 1 + step % (cpus - 1)) % cpus, kernel.now());
    }
    sched.CheckIntegrity();
  }
  kernel.SetSampler(nullptr);
  if constexpr (obs::kObsEnabled) {  // sampling hooks compile out otherwise
    EXPECT_GT(hook.checks(), 0u);
  }

  ChurnResult result;
  result.steals = sched.steals();
  result.migrations = sched.migrations();
  result.cost_vetoes = sched.cost_vetoes();
  uint64_t h = 1469598103934665603ull;
  for (const ThreadId tid : tids) {
    const uint64_t ns = static_cast<uint64_t>(kernel.CpuTime(tid).nanos());
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((ns >> (8 * i)) & 0xffu)) * 1099511628211ull;
    }
  }
  result.cpu_time_hash = h;
  return result;
}

TEST(SmpBalance, ValueCacheSurvivesChurn) {
  // Pinned from the balancer before it cached per-CPU values: the cache
  // must not move a single steal, migration, veto or CPU-time nanosecond.
  struct Case {
    RunQueueBackend backend;
    int cpus;
    ChurnResult expected;
  };
  const std::vector<Case> cases = {
      {RunQueueBackend::kList, 4, {8, 119, 10, 0xf776f233a84900b3ull}},
      {RunQueueBackend::kTree, 4, {15, 108, 17, 0x66d0a18cf0a384a7ull}},
      {RunQueueBackend::kAlias, 4, {9, 117, 14, 0x961d7ceb72439434ull}},
      {RunQueueBackend::kList, 64, {56, 285, 111, 0x062b8b7f6d5e46efull}},
      {RunQueueBackend::kTree, 64, {30, 251, 119, 0x265f7d1d3534d40cull}},
      {RunQueueBackend::kAlias, 64, {31, 258, 108, 0x91c1b3af059916f7ull}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("backend=" + std::to_string(static_cast<int>(c.backend)) +
                 " cpus=" + std::to_string(c.cpus));
    const ChurnResult got = RunValueChurn(c.backend, c.cpus);
    EXPECT_EQ(got.steals, c.expected.steals);
    EXPECT_EQ(got.migrations, c.expected.migrations);
    EXPECT_EQ(got.cost_vetoes, c.expected.cost_vetoes);
    EXPECT_EQ(got.cpu_time_hash, c.expected.cpu_time_hash)
        << std::hex << "0x" << got.cpu_time_hash;
  }
}

}  // namespace
}  // namespace lottery
