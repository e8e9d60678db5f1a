// Ground-truth suite for incremental pricing (dirty propagation).
//
// Every mutation kind — SetAmount, Fund/Unfund, activate/deactivate,
// DestroyTicket, compensation grants, ticket transfers — is mirrored
// against a brute-force full-graph reprice that reads only the structural
// state (amounts, active flags, edges) and never the caches. The cached
// values must be bit-identical to the brute-force ones after every step.
// A second family of tests asserts the *point* of the exercise via the obs
// counters: mutations in one subtree must not reprice the other, and the
// scheduler's tree backend must stay at zero full syncs in steady state.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/client.h"
#include "src/core/currency.h"
#include "src/core/lottery_scheduler.h"
#include "src/core/transfer.h"
#include "src/obs/registry.h"
#include "src/util/fastrand.h"

namespace lottery {
namespace {

// --- Brute-force repricing (no caches) -------------------------------------

Funding BruteCurrencyValue(const Currency* currency);

Funding BruteTicketValue(const Ticket* ticket) {
  if (!ticket->active()) {
    return Funding::Zero();
  }
  const Currency* denom = ticket->denomination();
  if (denom->is_base()) {
    return Funding::FromBase(ticket->amount());
  }
  if (denom->active_amount() <= 0) {
    return Funding::Zero();
  }
  return BruteCurrencyValue(denom).ScaleBy(ticket->amount(),
                                           denom->active_amount());
}

Funding BruteCurrencyValue(const Currency* currency) {
  Funding sum = Funding::Zero();
  for (const Ticket* t : currency->backing()) {
    sum += BruteTicketValue(t);
  }
  return sum;
}

Funding BruteClientValue(const Client& client) {
  if (!client.active()) {
    return Funding::Zero();
  }
  Funding sum = Funding::Zero();
  for (const Ticket* t : client.tickets()) {
    sum += BruteTicketValue(t);
  }
  if (client.compensation_num() != client.compensation_den()) {
    sum = sum.ScaleBy(client.compensation_num(), client.compensation_den());
  }
  return sum;
}

// Asserts the incremental caches agree with brute force for every currency
// and every client — the caches are read first so a stale cache cannot be
// repaired by the brute-force walk.
void ExpectMatchesBruteForce(const CurrencyTable& table,
                             const std::vector<Client*>& clients,
                             const std::string& context) {
  for (const Currency* c : table.Currencies()) {
    if (c->is_base()) {
      continue;
    }
    const Funding cached = table.CurrencyValue(c);
    ASSERT_EQ(cached.raw(), BruteCurrencyValue(c).raw())
        << context << ": stale value for currency " << c->name();
  }
  for (const Client* c : clients) {
    const Funding cached = c->Value();
    ASSERT_EQ(cached.raw(), BruteClientValue(*c).raw())
        << context << ": stale value for client " << c->name();
  }
}

// --- Repeated denomination changes without reads -------------------------
//
// A denomination whose last walk's marks all still stand skips its next
// walk (Currency::targets_marked_). Change one denomination, attach a new
// downstream path to it, change it again — no value read in between — and
// then read each downstream path first in turn: whichever reader comes
// first, every value must equal the brute-force one, and a third change
// after the reads must be walked again.
TEST(RepeatedDenominationChange, EveryDownstreamPathStaysGroundTrue) {
  constexpr int kReaders = 6;
  for (int first = 0; first < kReaders; ++first) {
    SCOPED_TRACE("first reader " + std::to_string(first));
    CurrencyTable table;
    Currency* alice = table.CreateCurrency("alice");
    Currency* task1 = table.CreateCurrency("task1");
    Currency* task2 = table.CreateCurrency("task2");
    Ticket* alice_base = table.CreateTicket(table.base(), 3000);
    table.Fund(alice, alice_base);
    Ticket* task1_ticket = table.CreateTicket(alice, 100);
    table.Fund(task1, task1_ticket);
    table.Fund(task2, table.CreateTicket(alice, 200));
    // Clients below a funded currency, and one holding alice directly.
    Client c1(&table, "c1");
    c1.HoldTicket(table.CreateTicket(task1, 500));
    Client c2(&table, "c2");
    c2.HoldTicket(table.CreateTicket(task2, 300));
    Client direct(&table, "direct");
    direct.HoldTicket(table.CreateTicket(alice, 50));
    Client c3(&table, "c3");
    c1.SetActive(true);
    c2.SetActive(true);
    direct.SetActive(true);
    c3.SetActive(true);
    std::vector<Client*> clients = {&c1, &c2, &direct, &c3};
    ExpectMatchesBruteForce(table, clients, "warm");

    // First change: alice's active amount moves; its walk marks task1,
    // task2 and `direct`.
    table.SetAmount(task1_ticket, 400);
    // A path funded after the first change: task3, backed by a new alice
    // ticket, held through by c3. Activating it changes alice's active
    // amount again while every earlier target is still marked.
    Currency* task3 = table.CreateCurrency("task3");
    table.Fund(task3, table.CreateTicket(alice, 100));
    c3.HoldTicket(table.CreateTicket(task3, 10));
    // Second change, to alice's value this time.
    table.SetAmount(alice_base, 5000);

    const std::vector<std::function<void()>> readers = {
        [&] { (void)c1.Value(); },
        [&] { (void)c2.Value(); },
        [&] { (void)direct.Value(); },
        [&] { (void)c3.Value(); },
        [&] { (void)table.CurrencyValue(task3); },
        [&] { (void)table.CurrencyValue(task1); },
    };
    readers[static_cast<size_t>(first)]();
    ExpectMatchesBruteForce(table, clients, "after two changes");

    // Every path has been read, so a third change must walk again.
    table.SetAmount(alice_base, 700);
    readers[static_cast<size_t>(first)]();
    ExpectMatchesBruteForce(table, clients, "after the third change");
  }
}

// --- Every mutation kind against ground truth -------------------------------

// Figure 3-shaped fixture: base -> alice (3000), base -> bob (2000);
// alice -> {task1 (100), task2 (200)}; task2 -> {thread2 (300)};
// bob -> {thread3 (100)}; plus per-thread clients.
class InvalidationGroundTruth : public ::testing::Test {
 protected:
  void SetUp() override {
    alice_ = table_.CreateCurrency("alice");
    bob_ = table_.CreateCurrency("bob");
    task1_ = table_.CreateCurrency("task1");
    task2_ = table_.CreateCurrency("task2");
    alice_base_ = table_.CreateTicket(table_.base(), 3000);
    table_.Fund(alice_, alice_base_);
    bob_base_ = table_.CreateTicket(table_.base(), 2000);
    table_.Fund(bob_, bob_base_);
    task1_ticket_ = table_.CreateTicket(alice_, 100);
    table_.Fund(task1_, task1_ticket_);
    task2_ticket_ = table_.CreateTicket(alice_, 200);
    table_.Fund(task2_, task2_ticket_);

    c1_ = std::make_unique<Client>(&table_, "thread1");
    c1_->HoldTicket(table_.CreateTicket(task1_, 500));
    c2_ = std::make_unique<Client>(&table_, "thread2");
    c2_->HoldTicket(table_.CreateTicket(task2_, 300));
    c3_ = std::make_unique<Client>(&table_, "thread3");
    c3_->HoldTicket(table_.CreateTicket(bob_, 100));
    c1_->SetActive(true);
    c2_->SetActive(true);
    c3_->SetActive(true);
    clients_ = {c1_.get(), c2_.get(), c3_.get()};
  }

  void Check(const std::string& context) {
    ExpectMatchesBruteForce(table_, clients_, context);
  }

  CurrencyTable table_;
  Currency* alice_ = nullptr;
  Currency* bob_ = nullptr;
  Currency* task1_ = nullptr;
  Currency* task2_ = nullptr;
  Ticket* alice_base_ = nullptr;
  Ticket* bob_base_ = nullptr;
  Ticket* task1_ticket_ = nullptr;
  Ticket* task2_ticket_ = nullptr;
  std::unique_ptr<Client> c1_, c2_, c3_;
  std::vector<Client*> clients_;
};

TEST_F(InvalidationGroundTruth, SetAmountOnEveryLevel) {
  Check("initial");
  table_.SetAmount(task1_ticket_, 400);  // mid-graph inflation
  Check("after inflating task1's funding");
  table_.SetAmount(alice_base_, 1000);  // root-level deflation
  Check("after deflating alice's base funding");
  table_.SetAmount(c2_->tickets()[0], 50);  // leaf (held ticket)
  Check("after deflating thread2's held ticket");
  table_.SetAmount(task1_ticket_, 400);  // no-op SetAmount
  Check("after no-op SetAmount");
}

TEST_F(InvalidationGroundTruth, SetAmountOnInactiveTicket) {
  c1_->SetActive(false);
  Check("after deactivating thread1");
  // thread1's chain is inactive; inflating its held ticket must not corrupt
  // anyone's cache, and the value must be right once it reactivates.
  table_.SetAmount(c1_->tickets()[0], 900);
  Check("after inflating an inactive ticket");
  c1_->SetActive(true);
  Check("after reactivating thread1");
}

TEST_F(InvalidationGroundTruth, FundAndUnfund) {
  Ticket* extra = table_.CreateTicket(table_.base(), 700);
  Check("after creating an unattached ticket");
  table_.Fund(alice_, extra);
  Check("after funding alice with new base ticket");
  table_.Unfund(extra);
  Check("after unfunding it again");
  // Re-route the same ticket to the other user's subtree.
  table_.Fund(bob_, extra);
  Check("after funding bob instead");
  table_.DestroyTicket(extra);
  Check("after destroying the routed ticket");
}

TEST_F(InvalidationGroundTruth, ActivationCascades) {
  c2_->SetActive(false);
  Check("after thread2 blocks");
  // task2 is now fully inactive; its backing deactivated up the chain.
  EXPECT_EQ(task2_->active_amount(), 0);
  c2_->SetActive(true);
  Check("after thread2 unblocks");
  // Blocking both of alice's consumers deactivates alice herself.
  c1_->SetActive(false);
  c2_->SetActive(false);
  Check("after both of alice's threads block");
  EXPECT_EQ(alice_->active_amount(), 0);
  c1_->SetActive(true);
  Check("after thread1 unblocks alone");
}

TEST_F(InvalidationGroundTruth, HoldAndReleaseAndDestroy) {
  Ticket* second = table_.CreateTicket(task1_, 250);
  c1_->HoldTicket(second);
  Check("after thread1 holds a second task1 ticket");
  c1_->ReleaseTicket(second);
  Check("after releasing it");
  c2_->HoldTicket(second);
  Check("after thread2 holds it instead");
  table_.DestroyTicket(second);  // destroys while held: detaches first
  Check("after destroying the held ticket");
}

TEST_F(InvalidationGroundTruth, CompensationGrantAndClear) {
  c1_->SetCompensation(5, 1);
  Check("after 5x compensation on thread1");
  c1_->SetCompensation(10, 7);
  Check("after adjusting the factor");
  c1_->ClearCompensation();
  Check("after clearing compensation");
  c1_->ClearCompensation();  // second clear is a no-op
  Check("after redundant clear");
}

TEST_F(InvalidationGroundTruth, TicketTransfers) {
  Currency* server = table_.CreateCurrency("server");
  Client worker(&table_, "worker");
  worker.HoldTicket(table_.CreateTicket(server, 1));
  worker.SetActive(true);
  clients_.push_back(&worker);
  {
    // thread3 blocks on the server: its funding flows through the transfer.
    TicketTransfer transfer(&table_, bob_, server, 1000);
    Check("after creating the transfer");
    c3_->SetActive(false);
    Check("after the transferring client blocks");
    transfer.Retarget(task1_);
    Check("after retargeting the transfer");
    transfer.Retarget(server);
    c3_->SetActive(true);
    Check("after the client unblocks with the transfer live");
  }
  Check("after the transfer is destroyed");
  clients_.pop_back();
}

TEST_F(InvalidationGroundTruth, DestroyCurrencySubtree) {
  // Drain task1: release the held ticket, destroy issued tickets, then the
  // currency itself (which retires its backing).
  c1_->ReleaseTicket(c1_->tickets()[0]);
  Check("after thread1 releases its ticket");
  Ticket* issued = table_.Tickets().front();
  for (Ticket* t : table_.Tickets()) {
    if (t->denomination() == task1_ && t->holder() == nullptr &&
        t->funds() == nullptr) {
      issued = t;
      table_.DestroyTicket(t);
    }
  }
  Check("after destroying task1's detached issued ticket");
  (void)issued;
  table_.DestroyCurrency(task1_);
  Check("after destroying the task1 currency");
}

// --- Randomized sweep: every value exact after every random mutation --------

class InvalidationFuzz : public ::testing::TestWithParam<uint32_t> {};

TEST_P(InvalidationFuzz, RandomMutationsStayGroundTrue) {
  FastRand rng(GetParam());
  CurrencyTable table;
  std::vector<std::unique_ptr<Client>> owned;
  int name_counter = 0;

  auto random_currency = [&]() -> Currency* {
    const auto all = table.Currencies();
    return all[rng.NextBelow(static_cast<uint32_t>(all.size()))];
  };
  auto random_ticket = [&]() -> Ticket* {
    const auto all = table.Tickets();
    return all.empty()
               ? nullptr
               : all[rng.NextBelow(static_cast<uint32_t>(all.size()))];
  };

  for (int step = 0; step < 400; ++step) {
    const uint32_t op = rng.NextBelow(12);
    try {
      switch (op) {
        case 0:
          if (table.num_currencies() < 10) {
            table.CreateCurrency("cur" + std::to_string(name_counter++));
          }
          break;
        case 1:
          if (table.num_tickets() < 50) {
            table.CreateTicket(random_currency(), 1 + rng.NextBelow(1000));
          }
          break;
        case 2: {
          Ticket* t = random_ticket();
          if (t != nullptr) {
            table.Fund(random_currency(), t);
          }
          break;
        }
        case 3: {
          Ticket* t = random_ticket();
          if (t != nullptr && t->funds() != nullptr) {
            table.Unfund(t);
          }
          break;
        }
        case 4: {
          Ticket* t = random_ticket();
          if (t != nullptr) {
            table.DestroyTicket(t);
          }
          break;
        }
        case 5: {
          Ticket* t = random_ticket();
          if (t != nullptr) {
            table.SetAmount(t, 1 + rng.NextBelow(2000));
          }
          break;
        }
        case 6:
          if (owned.size() < 12) {
            owned.push_back(std::make_unique<Client>(
                &table, "client" + std::to_string(name_counter++)));
          }
          break;
        case 7: {
          Ticket* t = random_ticket();
          if (t != nullptr && !owned.empty() && t->holder() == nullptr &&
              t->funds() == nullptr) {
            owned[rng.NextBelow(static_cast<uint32_t>(owned.size()))]
                ->HoldTicket(t);
          }
          break;
        }
        case 8: {
          if (!owned.empty()) {
            Client* c =
                owned[rng.NextBelow(static_cast<uint32_t>(owned.size()))]
                    .get();
            if (!c->tickets().empty()) {
              c->ReleaseTicket(c->tickets()[rng.NextBelow(
                  static_cast<uint32_t>(c->tickets().size()))]);
            }
          }
          break;
        }
        case 9: {
          if (!owned.empty()) {
            Client* c =
                owned[rng.NextBelow(static_cast<uint32_t>(owned.size()))]
                    .get();
            c->SetActive(!c->active());
          }
          break;
        }
        case 10: {  // compensation grant (the per-quantum hot mutation)
          if (!owned.empty()) {
            Client* c =
                owned[rng.NextBelow(static_cast<uint32_t>(owned.size()))]
                    .get();
            c->SetCompensation(1 + rng.NextBelow(20), 1 + rng.NextBelow(5));
          }
          break;
        }
        case 11: {
          if (!owned.empty()) {
            owned[rng.NextBelow(static_cast<uint32_t>(owned.size()))]
                ->ClearCompensation();
          }
          break;
        }
      }
    } catch (const std::invalid_argument&) {
      // Legitimately rejected operation; values must still be exact.
    }
    std::vector<Client*> clients;
    for (const auto& c : owned) {
      clients.push_back(c.get());
    }
    ExpectMatchesBruteForce(table, clients,
                            "seed " + std::to_string(GetParam()) + " step " +
                                std::to_string(step));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvalidationFuzz,
                         ::testing::Values(7u, 11u, 23u, 42u, 1994u));

// --- Cache retention: untouched subtrees stay cached ------------------------

TEST(CacheRetention, MutationInOneSubtreeDoesNotRepriceTheOther) {
  if (!obs::kObsEnabled) {
    GTEST_SKIP() << "obs hooks compiled out";
  }
  obs::Registry reg;
  CurrencyTable table(&reg);
  // Two disjoint user subtrees, two levels deep each.
  struct Subtree {
    Currency* user;
    Currency* task;
    Ticket* funding;
    std::unique_ptr<Client> client;
  };
  auto build = [&](const std::string& name) {
    Subtree s;
    s.user = table.CreateCurrency(name);
    table.Fund(s.user, table.CreateTicket(table.base(), 1000));
    s.task = table.CreateCurrency(name + ".task");
    s.funding = table.CreateTicket(s.user, 100);
    table.Fund(s.task, s.funding);
    s.client = std::make_unique<Client>(&table, name + ".thread");
    s.client->HoldTicket(table.CreateTicket(s.task, 10));
    s.client->SetActive(true);
    return s;
  };
  Subtree a = build("a");
  Subtree b = build("b");

  // Prime every cache.
  (void)a.client->Value();
  (void)b.client->Value();
  for (const Currency* c : table.Currencies()) {
    (void)table.CurrencyValue(c);
  }

  const uint64_t reprices_before = reg.counter("currency.reprices")->value();
  const uint64_t client_reprices_before =
      reg.counter("client.reprices")->value();

  // Inflate a's task funding: dirties a.task and a's client — nothing in b.
  table.SetAmount(a.funding, 250);
  const uint64_t dirty_after = reg.counter("currency.dirty_marks")->value();

  // Re-query *everything*; only a's chain may reprice.
  (void)a.client->Value();
  (void)b.client->Value();
  for (const Currency* c : table.Currencies()) {
    (void)table.CurrencyValue(c);
  }
  const uint64_t reprices = reg.counter("currency.reprices")->value() -
                            reprices_before;
  const uint64_t client_reprices =
      reg.counter("client.reprices")->value() - client_reprices_before;
  EXPECT_EQ(reprices, 1u) << "only a.task should reprice";
  EXPECT_EQ(client_reprices, 1u) << "only a's client should reprice";
  EXPECT_GT(dirty_after, 0u);

  // And the repriced values are right.
  EXPECT_EQ(a.client->Value().raw(), BruteClientValue(*a.client).raw());
  EXPECT_EQ(b.client->Value().raw(), BruteClientValue(*b.client).raw());
}

TEST(CacheRetention, CompensationDirtiesOnlyTheGrantedClient) {
  if (!obs::kObsEnabled) {
    GTEST_SKIP() << "obs hooks compiled out";
  }
  obs::Registry reg;
  CurrencyTable table(&reg);
  Currency* shared = table.CreateCurrency("shared");
  table.Fund(shared, table.CreateTicket(table.base(), 1000));
  Client x(&table, "x");
  x.HoldTicket(table.CreateTicket(shared, 1));
  x.SetActive(true);
  Client y(&table, "y");
  y.HoldTicket(table.CreateTicket(shared, 1));
  y.SetActive(true);
  (void)x.Value();
  (void)y.Value();
  (void)table.CurrencyValue(shared);

  const uint64_t reprices_before = reg.counter("currency.reprices")->value();
  x.SetCompensation(3, 1);
  (void)x.Value();
  (void)y.Value();
  EXPECT_EQ(reg.counter("currency.reprices")->value(), reprices_before)
      << "a compensation grant must not reprice any currency";
  EXPECT_EQ(x.Value().raw(), BruteClientValue(x).raw());
  EXPECT_EQ(y.Value().raw(), BruteClientValue(y).raw());
}

// --- Observer notifications -------------------------------------------------

class RecordingObserver : public ValueObserver {
 public:
  void OnClientValueDirty(Client* client) override {
    notified.push_back(client);
  }
  std::vector<Client*> notified;
};

TEST(ValueObserverTest, NotifiedOnEveryValueAffectingMutation) {
  CurrencyTable table;
  RecordingObserver obs;
  table.AddObserver(&obs);
  Currency* cur = table.CreateCurrency("cur");
  Ticket* backing = table.CreateTicket(table.base(), 100);
  table.Fund(cur, backing);
  Client c(&table, "c");
  c.HoldTicket(table.CreateTicket(cur, 10));

  obs.notified.clear();
  c.SetActive(true);
  EXPECT_FALSE(obs.notified.empty());

  // A refreshed observer must be re-notified by the next mutation even
  // though the client's own dirty flag was already consumed.
  (void)c.Value();
  obs.notified.clear();
  table.SetAmount(backing, 900);
  ASSERT_FALSE(obs.notified.empty());
  EXPECT_EQ(obs.notified.front(), &c);
  (void)c.Value();
  obs.notified.clear();
  table.SetAmount(backing, 901);
  EXPECT_FALSE(obs.notified.empty());

  table.RemoveObserver(&obs);
  obs.notified.clear();
  table.SetAmount(backing, 500);
  EXPECT_TRUE(obs.notified.empty());
}

// The scheduler stops being re-notified about a client it already holds
// pending, but only while it is the table's one observer: a second
// observer hears about every mutation.
TEST(ValueObserverTest, SecondObserverTurnsTheOwnerGateOff) {
  LotteryScheduler sched;
  const SimTime t0 = SimTime::Zero();
  sched.AddThread(1, t0);
  sched.FundThread(1, sched.table().base(), 100);
  sched.OnReady(1, t0);
  RecordingObserver obs;
  sched.table().AddObserver(&obs);
  Client* client = sched.client(1);
  // The first grant puts the client on the scheduler's dirty list...
  client->SetCompensation(2, 1);
  ASSERT_EQ(obs.notified.size(), 1u);
  // ...and the second, with the client still pending there, must still
  // reach the other observer.
  obs.notified.clear();
  client->SetCompensation(3, 1);
  ASSERT_EQ(obs.notified.size(), 1u);
  EXPECT_EQ(obs.notified.front(), client);
  sched.table().RemoveObserver(&obs);
  EXPECT_EQ(sched.ThreadValue(1).base_units(), 300);
  EXPECT_EQ(sched.RunnableTickets(), sched.ThreadValue(1).raw_unsigned());
}

// --- Scheduler steady state: no full syncs under compensation churn ---------

TEST(TreeBackendSteadyState, CompensationChurnCostsNoFullSyncs) {
  if (!obs::kObsEnabled) {
    GTEST_SKIP() << "obs hooks compiled out";
  }
  obs::Registry reg;
  LotteryScheduler::Options opts;
  opts.backend = RunQueueBackend::kTree;
  opts.metrics = &reg;
  opts.seed = 42;
  LotteryScheduler sched(opts);
  const SimTime t0 = SimTime::Zero();
  for (ThreadId id = 1; id <= 32; ++id) {
    sched.AddThread(id, t0);
    sched.FundThread(id, sched.table().base(), 50 + int64_t(id) * 10);
    sched.OnReady(id, t0);
  }
  // Warm up: first dispatches absorb the arrival burst.
  for (int i = 0; i < 64; ++i) {
    const ThreadId id = sched.PickNext(t0);
    ASSERT_NE(id, kInvalidThreadId);
    sched.OnQuantumEnd(id, SimDuration::Millis(100), SimDuration::Millis(100),
                       t0);
    sched.OnReady(id, t0);
  }
  reg.Reset();
  // Steady state with compensation churn: every quantum under-consumes, so
  // every dispatch grants a compensation ticket — and still no dispatch may
  // fall back to a full tree resync.
  for (int i = 0; i < 1000; ++i) {
    const ThreadId id = sched.PickNext(t0);
    ASSERT_NE(id, kInvalidThreadId);
    sched.OnQuantumEnd(id, SimDuration::Millis(20), SimDuration::Millis(100),
                       t0);
    sched.OnReady(id, t0);
  }
  EXPECT_EQ(reg.counter("tree.full_syncs")->value(), 0u);
  // The churned thread re-enters the queue with a fresh weight, so even
  // leaf updates stay rare (only clients dirtied while queued need one).
  EXPECT_LE(reg.counter("tree.leaf_updates")->value(), 2000u);
  EXPECT_EQ(reg.counter("lottery.draws")->value(), 1000u);
}

TEST(TreeBackendSteadyState, InflationOnQueuedThreadUpdatesOneLeaf) {
  if (!obs::kObsEnabled) {
    GTEST_SKIP() << "obs hooks compiled out";
  }
  obs::Registry reg;
  LotteryScheduler::Options opts;
  opts.backend = RunQueueBackend::kTree;
  opts.metrics = &reg;
  LotteryScheduler sched(opts);
  const SimTime t0 = SimTime::Zero();
  std::vector<Ticket*> funding;
  for (ThreadId id = 1; id <= 16; ++id) {
    sched.AddThread(id, t0);
    funding.push_back(sched.FundThread(id, sched.table().base(), 100));
    sched.OnReady(id, t0);
  }
  // Drain the arrival burst and leave every thread sitting in the queue.
  for (int i = 0; i < 2; ++i) {
    const ThreadId running = sched.PickNext(t0);
    sched.OnQuantumEnd(running, SimDuration::Millis(100),
                       SimDuration::Millis(100), t0);
    sched.OnReady(running, t0);
  }

  reg.Reset();
  // Inflate one queued thread's funding: exactly one leaf must be re-pushed
  // on the next dispatch.
  sched.table().SetAmount(funding[7], 900);
  (void)sched.PickNext(t0);
  EXPECT_EQ(reg.counter("tree.leaf_updates")->value(), 1u);
  EXPECT_EQ(reg.counter("tree.full_syncs")->value(), 0u);
}

// --- Scheduler dirty list: edge cases -------------------------------------
//
// Block/wake, compensation grant and expiry, and removal of threads while
// they are dirty and while tickets issued in or held by them are still
// live. Removal re-notifies the table twice (the self ticket's
// destruction, then the Client destructor releasing held tickets), and
// neither may leave an entry behind for the next sync to dereference —
// the sanitizer build turns that into a use-after-free report. The
// full-sync and leaf-update counts are pinned: they depend on the exact
// dirty count (unique clients, blocked ones included).

struct DirtyListCase {
  RunQueueBackend backend;
  uint64_t full_syncs;
  uint64_t leaf_updates;
  // FNV-1a over the winner ids of every dispatch, in order.
  uint64_t winner_hash;
};

class DirtyListEdgeCases : public ::testing::TestWithParam<DirtyListCase> {
 protected:
  // One kernel dispatch cycle: pick, run `used` of a 100 ms quantum, requeue.
  ThreadId Dispatch(LotteryScheduler& sched, SimDuration used) {
    const SimTime t0 = SimTime::Zero();
    const ThreadId id = sched.PickNext(t0);
    if (id != kInvalidThreadId) {
      sched.OnQuantumEnd(id, used, SimDuration::Millis(100), t0);
      sched.OnReady(id, t0);
    }
    winner_hash_ = (winner_hash_ ^ id) * 0x100000001b3ull;
    return id;
  }

  uint64_t winner_hash_ = 0xcbf29ce484222325ull;
};

TEST_P(DirtyListEdgeCases, ChurnAndRemovalLeaveNoStaleEntries) {
  if (!obs::kObsEnabled) {
    GTEST_SKIP() << "obs hooks compiled out";
  }
  obs::Registry reg;
  LotteryScheduler::Options opts;
  opts.backend = GetParam().backend;
  opts.metrics = &reg;
  opts.seed = 1994;
  LotteryScheduler sched(opts);
  CurrencyTable& table = sched.table();
  const SimTime t0 = SimTime::Zero();
  const SimDuration full = SimDuration::Millis(100);
  // Threads 1-4 hold base funding; 5 and up share a user currency, so one
  // of them blocking reprices (dirties) all the others.
  Currency* user = table.CreateCurrency("user");
  Ticket* user_backing = table.CreateTicket(table.base(), 1200);
  table.Fund(user, user_backing);
  auto add = [&](ThreadId id) {
    sched.AddThread(id, t0);
    sched.FundThread(id, id <= 4 ? table.base() : user, 100 * int64_t(id));
  };
  for (ThreadId id = 1; id <= 8; ++id) {
    add(id);
    sched.OnReady(id, t0);
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_NE(Dispatch(sched, full), kInvalidThreadId);
  }

  // Block and wake: blocked clients count as dirty while out of the
  // queue, and an inflation reaches blocked and queued user threads alike —
  // here more of them than are queued, which forces a full sync.
  const ThreadId blocked[] = {3, 5, 6, 7};
  for (const ThreadId id : blocked) {
    sched.OnBlocked(id, t0);
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_NE(Dispatch(sched, full), kInvalidThreadId);
  }
  table.SetAmount(user_backing, 2400);
  for (int i = 0; i < 2; ++i) {
    ASSERT_NE(Dispatch(sched, full), kInvalidThreadId);
  }
  for (const ThreadId id : blocked) {
    sched.OnReady(id, t0);
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_NE(Dispatch(sched, full), kInvalidThreadId);
  }

  // Compensation: every under-consumed quantum grants a ticket that expires
  // when the thread next starts a quantum.
  for (int i = 0; i < 6; ++i) {
    ASSERT_NE(Dispatch(sched, SimDuration::Millis(25)), kInvalidThreadId);
  }

  // Just-added threads count as dirty before they are ever queued.
  for (ThreadId id = 9; id <= 14; ++id) {
    add(id);
  }
  sched.OnBlocked(1, t0);
  sched.OnBlocked(8, t0);
  for (int i = 0; i < 2; ++i) {
    ASSERT_NE(Dispatch(sched, full), kInvalidThreadId);
  }
  sched.OnReady(1, t0);
  sched.OnReady(8, t0);
  for (ThreadId id = 9; id <= 14; ++id) {
    sched.OnReady(id, t0);
  }
  for (int i = 0; i < 2; ++i) {
    ASSERT_NE(Dispatch(sched, full), kInvalidThreadId);
  }

  // Thread 2 blocks on an RPC to thread 6, funding it by transfer; thread 4
  // takes direct hold of an extra ticket.
  TicketTransfer rpc(&table, sched.thread_currency(2),
                     sched.thread_currency(6), 100);
  sched.OnBlocked(2, t0);
  for (int i = 0; i < 3; ++i) {
    ASSERT_NE(Dispatch(sched, full), kInvalidThreadId);
  }
  Ticket* held = table.CreateTicket(table.base(), 70);
  sched.client(4)->HoldTicket(held);

  // Both die dirty: 2 with its transfer still funding 6, 4 still holding
  // the extra ticket.
  sched.RemoveThread(2, t0);
  sched.RemoveThread(4, t0);
  EXPECT_FALSE(sched.HasThread(2));
  EXPECT_FALSE(sched.HasThread(4));
  for (int i = 0; i < 8; ++i) {
    const ThreadId id =
        Dispatch(sched, i % 2 == 0 ? full : SimDuration::Millis(40));
    ASSERT_NE(id, kInvalidThreadId);
    EXPECT_NE(id, 2u);
    EXPECT_NE(id, 4u);
  }
  rpc.Release();
  table.DestroyTicket(held);
  for (int i = 0; i < 4; ++i) {
    ASSERT_NE(Dispatch(sched, full), kInvalidThreadId);
  }

  EXPECT_EQ(reg.counter("tree.full_syncs")->value(), GetParam().full_syncs);
  EXPECT_EQ(reg.counter("tree.leaf_updates")->value(),
            GetParam().leaf_updates);
  EXPECT_EQ(winner_hash_, GetParam().winner_hash)
      << "0x" << std::hex << winner_hash_;
}

// Tree and alias counts recorded while the scheduler kept its dirty set as a
// hash set of clients. The list's counts are its own weight flushes (the
// list once kept a cached total of its own and read 0 here); every winner
// hash was recorded before the list moved onto the scheduler's flush.
INSTANTIATE_TEST_SUITE_P(
    Backends, DirtyListEdgeCases,
    ::testing::Values(
        DirtyListCase{RunQueueBackend::kList, 2, 19, 0x7d7e12e50ca6e8abull},
        DirtyListCase{RunQueueBackend::kTree, 2, 19, 0xe2e3501de77d643bull},
        DirtyListCase{RunQueueBackend::kAlias, 2, 19, 0xe2e3501de77d643bull}),
    [](const auto& param_info) {
      switch (param_info.param.backend) {
        case RunQueueBackend::kList: return "list";
        case RunQueueBackend::kTree: return "tree";
        case RunQueueBackend::kAlias: return "alias";
      }
      return "unknown";
    });

}  // namespace
}  // namespace lottery
