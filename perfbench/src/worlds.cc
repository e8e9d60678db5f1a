#include "perfbench/src/worlds.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "src/core/lottery_scheduler.h"
#include "src/obs/timeseries/sampler.h"
#include "src/sched/smp/smp_scheduler.h"
#include "src/sim/rpc.h"
#include "src/sim/sync.h"
#include "src/util/fastrand.h"
#include "src/workloads/compute.h"
#include "src/workloads/montecarlo.h"
#include "src/workloads/mutex_workload.h"
#include "src/workloads/query_server.h"

namespace perfbench {

using lottery::CurrencyTable;
using lottery::Kernel;
using lottery::LotteryScheduler;
using lottery::RpcMessage;
using lottery::RpcPort;
using lottery::RunContext;
using lottery::RunQueueBackend;
using lottery::SimMutex;
using lottery::ThreadBody;
using lottery::Ticket;

namespace {

// SplitMix64: derives independent workload-input streams from the seed.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint32_t SubSeed(uint32_t seed, uint64_t stream, uint64_t index) {
  const uint64_t h = Mix(Mix(seed ^ (stream << 32)) + index);
  // FastRand seeds live in [1, 2^31 - 2]; 0 would be remapped anyway.
  return static_cast<uint32_t>(h % 0x7FFFFFFEull) + 1u;
}

// Mean relative error of per-class service shares against entitlement
// shares, with a binomial envelope: `units` service quanta split by
// independent draws would put class c's share within z standard deviations
// sqrt(p(1-p)/units) of p. `slack_pct` adds the workload's known systematic
// error (SMP partition balance, queueing in the IPC path).
ShareResult ShareOf(const std::vector<double>& service,
                    const std::vector<double>& weight, int64_t units,
                    double slack_pct) {
  constexpr double kZ = 6.0;
  double total_service = 0.0;
  double total_weight = 0.0;
  for (size_t c = 0; c < service.size(); ++c) {
    total_service += service[c];
    total_weight += weight[c];
  }
  ShareResult r;
  r.units = units;
  if (total_service <= 0.0 || units <= 0) {
    r.err_pct = 100.0;
    return r;
  }
  double err = 0.0;
  double env = 0.0;
  for (size_t c = 0; c < service.size(); ++c) {
    const double p = weight[c] / total_weight;
    const double got = service[c] / total_service;
    err += std::abs(got - p) / p;
    env += kZ * std::sqrt((1.0 - p) / (p * static_cast<double>(units)));
  }
  const auto n = static_cast<double>(service.size());
  r.err_pct = 100.0 * err / n;
  r.envelope_pct = 100.0 * env / n + slack_pct;
  return r;
}

int64_t CounterOf(const lottery::obs::Registry& reg, const char* name) {
  const lottery::obs::Counter* c = reg.FindCounter(name);
  return c == nullptr ? 0 : static_cast<int64_t>(c->value());
}

// ---------------------------------------------------------------------------
// smp_compute: 64 partitioned CPUs, 256 compute threads on bench_smp's
// cyclic 50..280 funding ladder, 5 ms quantum, balance every 4 dispatches.

class SmpComputeWorld final : public World {
 public:
  static constexpr int kCpus = 64;
  static constexpr int kThreads = 256;
  static constexpr int kClasses = 24;

  SmpComputeWorld(uint32_t seed, SpanTrace* trace) : World(trace) {
    lottery::smp::SmpScheduler::Options so;
    so.num_cpus = kCpus;
    so.seed = seed;
    so.cpu.backend = RunQueueBackend::kTree;
    so.balance_period = 4;
    so.metrics = &reg_;
    if (trace != nullptr) {
      auto timed = std::make_unique<
          TimedScheduler<lottery::smp::SmpScheduler>>(trace, so);
      smp_ = timed.get();
      sched_ = std::move(timed);
    } else {
      auto plain = std::make_unique<lottery::smp::SmpScheduler>(so);
      smp_ = plain.get();
      sched_ = std::move(plain);
    }
    Kernel::Options ko;
    ko.quantum = SimDuration::Millis(5);
    ko.num_cpus = kCpus;
    ko.metrics = &reg_;
    kernel_ = std::make_unique<Kernel>(sched_.get(), ko);
    for (int i = 0; i < kThreads; ++i) {
      const ThreadId tid = Spawn("c" + std::to_string(i),
                                 std::make_unique<lottery::ComputeTask>());
      {
        ScopedSpan s(trace_, Span::kCurrency);
        smp_->FundThread(tid, Amount(i));
      }
    }
  }

  void MarkWindow() override {
    mark_cpu_ = ClassCpu();
    mark_dispatches_ = CounterOf(reg_, "kernel.dispatches");
  }

  ShareResult Share() override {
    std::vector<double> service = ClassCpu();
    std::vector<double> weight(kClasses, 0.0);
    for (int i = 0; i < kThreads; ++i) {
      weight[static_cast<size_t>(i % kClasses)] +=
          static_cast<double>(Amount(i));
    }
    for (size_t c = 0; c < service.size(); ++c) {
      service[c] -= mark_cpu_[c];
    }
    return ShareOf(service, weight,
                   CounterOf(reg_, "kernel.dispatches") - mark_dispatches_,
                   kSlackPct);
  }

  void Check(Checks& checks) override {
    try {
      smp_->CheckIntegrity();
    } catch (const std::exception& e) {
      checks.Expect(false, std::string("SmpScheduler::CheckIntegrity: ") +
                               e.what());
    }
  }

 private:
  // Partitioned lotteries balance ticket value only to within the
  // imbalance floor, which bench_smp bounds at 5% mean share error.
  static constexpr double kSlackPct = 5.0;

  static int64_t Amount(int i) { return 50 + 10 * (i % kClasses); }

  std::vector<double> ClassCpu() const {
    std::vector<double> cpu(kClasses, 0.0);
    for (int i = 0; i < kThreads; ++i) {
      cpu[static_cast<size_t>(i % kClasses)] +=
          kernel_->CpuTime(tids_[static_cast<size_t>(i)]).ToSecondsF();
    }
    return cpu;
  }

  lottery::smp::SmpScheduler* smp_ = nullptr;
  std::vector<double> mark_cpu_;
  int64_t mark_dispatches_ = 0;
};

// ---------------------------------------------------------------------------
// population: one CPU, tree backend, 100k threads (3:1 compute :
// interactive), eight funding classes, 1 ms quantum.

class PopulationWorld final : public World {
 public:
  static constexpr int kThreads = 100000;
  static constexpr int kClasses = 8;

  PopulationWorld(uint32_t seed, SpanTrace* trace) : World(trace) {
    LotteryScheduler::Options so;
    so.seed = seed;
    so.backend = RunQueueBackend::kTree;
    so.metrics = &reg_;
    if (trace != nullptr) {
      auto timed =
          std::make_unique<TimedScheduler<LotteryScheduler>>(trace, so);
      lottery_ = timed.get();
      sched_ = std::move(timed);
    } else {
      auto plain = std::make_unique<LotteryScheduler>(so);
      lottery_ = plain.get();
      sched_ = std::move(plain);
    }
    Kernel::Options ko;
    ko.quantum = SimDuration::Millis(1);
    ko.metrics = &reg_;
    kernel_ = std::make_unique<Kernel>(sched_.get(), ko);

    // Every class gets the same 3:1 mix (class = (i / 4) mod 8, kind =
    // i mod 4), so entitlement differs between classes only by funding.
    // Interactive bursts are sub-millisecond and think times 1-3 s, both
    // drawn from the seed.
    lottery::FastRand rng(SubSeed(seed, 1, 0));
    lottery::Currency* base = lottery_->table().base();
    for (int i = 0; i < kThreads; ++i) {
      std::unique_ptr<ThreadBody> body;
      if (i % 4 == 3) {
        const SimDuration burst =
            SimDuration::Micros(200 + static_cast<int64_t>(rng.NextBelow(700)));
        const SimDuration think = SimDuration::Millis(
            1000 + static_cast<int64_t>(rng.NextBelow(2001)));
        body = std::make_unique<lottery::InteractiveTask>(burst, think);
      } else {
        body = std::make_unique<lottery::ComputeTask>();
      }
      const ThreadId tid = Spawn("t" + std::to_string(i), std::move(body));
      {
        ScopedSpan s(trace_, Span::kCurrency);
        lottery_->FundThread(tid, base, Amount(i));
      }
    }
  }

  void MarkWindow() override {
    mark_cpu_ = ClassCpu();
    mark_dispatches_ = CounterOf(reg_, "kernel.dispatches");
  }

  ShareResult Share() override {
    std::vector<double> service = ClassCpu();
    std::vector<double> weight(kClasses, 0.0);
    for (int i = 0; i < kThreads; ++i) {
      weight[static_cast<size_t>(ClassOf(i))] +=
          static_cast<double>(Amount(i));
    }
    for (size_t c = 0; c < service.size(); ++c) {
      service[c] -= mark_cpu_[c];
    }
    return ShareOf(service, weight,
                   CounterOf(reg_, "kernel.dispatches") - mark_dispatches_,
                   kSlackPct);
  }

  void Check(Checks& /*checks*/) override {}

 private:
  // Interactive threads sleep part of the time, so a class's CPU runs
  // slightly below its ticket share while its members think.
  static constexpr double kSlackPct = 3.0;

  static int ClassOf(int i) { return (i / 4) % kClasses; }
  static int64_t Amount(int i) { return 1 + ClassOf(i); }

  std::vector<double> ClassCpu() const {
    std::vector<double> cpu(kClasses, 0.0);
    for (int i = 0; i < kThreads; ++i) {
      cpu[static_cast<size_t>(ClassOf(i))] +=
          kernel_->CpuTime(tids_[static_cast<size_t>(i)]).ToSecondsF();
    }
    return cpu;
  }

  LotteryScheduler* lottery_ = nullptr;
  std::vector<double> mark_cpu_;
  int64_t mark_dispatches_ = 0;
};

// ---------------------------------------------------------------------------
// ipc_transfer bodies. Untraced runs use the library's QueryClient,
// QueryWorker and MutexTask; traced runs use the Traced* mirrors below,
// which repeat the same state machines with spans around each call into a
// kernel service or the currency table. The Monte-Carlo thread restarts
// its integration every kMcGeneration trials in both forms, so its ticket
// keeps being re-priced for the whole run instead of decaying to the floor.

constexpr SimDuration kPrepareCost = SimDuration::Millis(4);
constexpr SimDuration kQueryCost = SimDuration::Micros(500);
constexpr SimDuration kHoldTime = SimDuration::Micros(1500);
constexpr SimDuration kComputeTime = SimDuration::Millis(4);
constexpr double kJitter = 0.3;
constexpr int64_t kMcGeneration = 8000;

lottery::MonteCarloTask::Options McOptions(uint32_t sampler_seed) {
  lottery::MonteCarloTask::Options o;
  o.inflation_scale = 1000000;
  o.min_amount = 1;
  o.max_amount = 10000;
  o.sampler_seed = sampler_seed;
  return o;
}

// Common face of the two Monte-Carlo forms, for the output checks.
class McBody : public ThreadBody {
 public:
  virtual void Attach(CurrencyTable* table, Ticket* ticket) = 0;
  virtual double estimate() const = 0;
  virtual int64_t trials() const = 0;
};

// Untraced: the library MonteCarloTask, replaced by a fresh one (new
// sampler stream, same funding ticket) every kMcGeneration trials.
class PlainMc final : public McBody {
 public:
  PlainMc(uint32_t seed, int index) : seed_(seed), index_(index) {
    NewGeneration();
  }
  void Attach(CurrencyTable* table, Ticket* ticket) override {
    table_ = table;
    ticket_ = ticket;
    task_->AttachFunding(table, ticket);
  }
  void Run(RunContext& ctx) override {
    if (task_->trials() >= kMcGeneration) {
      NewGeneration();
    }
    task_->Run(ctx);
  }
  double estimate() const override { return task_->estimate(); }
  int64_t trials() const override { return task_->trials(); }

 private:
  void NewGeneration() {
    task_ = std::make_unique<lottery::MonteCarloTask>(
        table_, ticket_,
        McOptions(SubSeed(seed_, 3, (uint64_t{generation_++} << 8) |
                                        static_cast<uint64_t>(index_))));
  }
  uint32_t seed_;
  int index_;
  uint32_t generation_ = 0;
  CurrencyTable* table_ = nullptr;
  Ticket* ticket_ = nullptr;
  std::unique_ptr<lottery::MonteCarloTask> task_;
};

// Traced mirror of PlainMc: UnitWorkTask's slice loop plus
// MonteCarloTask's analytic error model, with the re-price timed.
class TracedMc final : public McBody {
 public:
  TracedMc(uint32_t seed, int index, SpanTrace* trace)
      : seed_(seed), index_(index), trace_(trace) {
    NewGeneration();
  }
  void Attach(CurrencyTable* table, Ticket* ticket) override {
    table_ = table;
    ticket_ = ticket;
  }
  void Run(RunContext& ctx) override {
    if (trials_ >= kMcGeneration) {
      NewGeneration();
    }
    for (;;) {
      const SimDuration need = options_.trial_cost - partial_;
      if (ctx.remaining() < need) {
        partial_ += ctx.Consume(ctx.remaining());
        break;
      }
      ctx.Consume(need);
      partial_ = SimDuration{};
      ++trials_;
      ctx.AddProgress(1);
      const double x = sampler_.NextUnit();
      sum_ += 4.0 / (1.0 + x * x);
      if (ctx.remaining().nanos() == 0) {
        break;
      }
    }
    if (table_ == nullptr || ticket_ == nullptr || trials_ == 0) {
      return;
    }
    const double err = 1.0 / std::sqrt(static_cast<double>(trials_));
    const auto amount = static_cast<int64_t>(
        static_cast<double>(options_.inflation_scale) * err * err);
    const int64_t clamped =
        std::clamp(amount, options_.min_amount, options_.max_amount);
    if (clamped != ticket_->amount()) {
      ScopedSpan s(trace_, Span::kCurrency);
      table_->SetAmount(ticket_, clamped);
    }
  }
  double estimate() const override {
    return trials_ > 0 ? sum_ / static_cast<double>(trials_) : 0.0;
  }
  int64_t trials() const override { return trials_; }

 private:
  void NewGeneration() {
    options_ = McOptions(SubSeed(seed_, 3, (uint64_t{generation_++} << 8) |
                                               static_cast<uint64_t>(index_)));
    sampler_.Seed(options_.sampler_seed);
    partial_ = SimDuration{};
    trials_ = 0;
    sum_ = 0.0;
  }
  uint32_t seed_;
  int index_;
  SpanTrace* trace_;
  uint32_t generation_ = 0;
  lottery::MonteCarloTask::Options options_;
  lottery::FastRand sampler_;
  CurrencyTable* table_ = nullptr;
  Ticket* ticket_ = nullptr;
  SimDuration partial_{};
  int64_t trials_ = 0;
  double sum_ = 0.0;
};

// Traced mirror of QueryClient (run forever).
class TracedClient final : public ThreadBody {
 public:
  TracedClient(RpcPort* port, SpanTrace* trace) : port_(port), trace_(trace) {}
  void Run(RunContext& ctx) override {
    if (awaiting_reply_) {
      ++completed_;
      ctx.AddProgress(1);
      awaiting_reply_ = false;
      preparing_ = false;
    }
    if (!preparing_) {
      preparing_ = true;
      prepare_left_ = kPrepareCost;
    }
    prepare_left_ -= ctx.Consume(
        prepare_left_ < ctx.remaining() ? prepare_left_ : ctx.remaining());
    if (prepare_left_.nanos() > 0) {
      return;
    }
    preparing_ = false;
    {
      ScopedSpan s(trace_, Span::kIpc);
      port_->Call(ctx, kQueryCost.nanos() / 1000);
    }
    awaiting_reply_ = true;
    ctx.Block();
  }
  int64_t completed() const { return completed_; }

 private:
  RpcPort* port_;
  SpanTrace* trace_;
  bool awaiting_reply_ = false;
  bool preparing_ = false;
  SimDuration prepare_left_{};
  int64_t completed_ = 0;
};

// Traced mirror of QueryWorker.
class TracedWorker final : public ThreadBody {
 public:
  TracedWorker(RpcPort* port, SpanTrace* trace) : port_(port), trace_(trace) {}
  void Run(RunContext& ctx) override {
    for (;;) {
      if (!has_message_) {
        bool got = false;
        {
          ScopedSpan s(trace_, Span::kIpc);
          got = port_->TryReceive(ctx, &message_);
        }
        if (!got) {
          ctx.Block();
          return;
        }
        has_message_ = true;
        work_left_ = SimDuration::Micros(message_.payload);
      }
      if (work_left_ > ctx.remaining()) {
        work_left_ -= ctx.Consume(ctx.remaining());
        return;
      }
      ctx.Consume(work_left_);
      work_left_ = SimDuration{};
      {
        ScopedSpan s(trace_, Span::kIpc);
        port_->Reply(ctx, std::move(message_));
      }
      has_message_ = false;
      ctx.AddProgress(1);
      if (ctx.remaining().nanos() == 0) {
        return;
      }
    }
  }

 private:
  RpcPort* port_;
  SpanTrace* trace_;
  bool has_message_ = false;
  RpcMessage message_;
  SimDuration work_left_{};
};

// Traced mirror of MutexTask, jitter stream included.
class TracedLocker final : public ThreadBody {
 public:
  TracedLocker(SimMutex* mutex, uint32_t jitter_seed, SpanTrace* trace)
      : mutex_(mutex), rng_(jitter_seed), trace_(trace) {}

  NO_THREAD_SAFETY_ANALYSIS void Run(RunContext& ctx) override {
    if (waiting_) {
      mutex_->AssertHeld(ctx.self());
      waiting_ = false;
      phase_ = Phase::kHold;
      left_ = Jittered(kHoldTime);
    } else if (phase_ == Phase::kHold) {
      mutex_->AssertHeld(ctx.self());
    }
    for (;;) {
      switch (phase_) {
        case Phase::kAcquire: {
          bool acquired = false;
          {
            ScopedSpan s(trace_, Span::kIpc);
            acquired = mutex_->Acquire(ctx);
          }
          if (!acquired) {
            waiting_ = true;
            ctx.Block();
            return;
          }
          phase_ = Phase::kHold;
          left_ = Jittered(kHoldTime);
          break;
        }
        case Phase::kHold:
          left_ -= ctx.Consume(left_ < ctx.remaining() ? left_
                                                       : ctx.remaining());
          if (left_.nanos() > 0) {
            mutex_->NoteHeldAcrossSlice(ctx.self());
            return;
          }
          {
            ScopedSpan s(trace_, Span::kIpc);
            mutex_->Release(ctx);
          }
          phase_ = Phase::kCompute;
          left_ = Jittered(kComputeTime);
          break;
        case Phase::kCompute:
          left_ -= ctx.Consume(left_ < ctx.remaining() ? left_
                                                       : ctx.remaining());
          if (left_.nanos() > 0) {
            return;
          }
          ++cycles_;
          ctx.AddProgress(1);
          phase_ = Phase::kAcquire;
          break;
      }
      if (ctx.remaining().nanos() == 0) {
        return;
      }
    }
  }
  int64_t cycles() const { return cycles_; }

 private:
  enum class Phase { kAcquire, kHold, kCompute };

  SimDuration Jittered(SimDuration base) {
    const double factor = 1.0 + kJitter * (2.0 * rng_.NextUnit() - 1.0);
    return SimDuration::Nanos(
        static_cast<int64_t>(static_cast<double>(base.nanos()) * factor));
  }

  SimMutex* mutex_;
  lottery::FastRand rng_;
  SpanTrace* trace_;
  Phase phase_ = Phase::kAcquire;
  bool waiting_ = false;
  SimDuration left_{};
  int64_t cycles_ = 0;
};

// ipc_transfer: one CPU, list backend, 10 ms quantum; 48 RPC clients in 8
// funding classes on one port served by 8 transfer-funded workers, 32 lock
// threads on 4 lottery mutexes, 8 self-repricing Monte-Carlo threads, and a
// 100 ms telemetry sampler auditing one client per class.
class IpcTransferWorld final : public World {
 public:
  static constexpr int kClients = 48;
  static constexpr int kClasses = 8;
  static constexpr int kWorkers = 8;
  static constexpr int kMutexes = 4;
  static constexpr int kLockers = 32;
  static constexpr int kMc = 8;
  static constexpr int64_t kLockerFunding = 200;

  IpcTransferWorld(uint32_t seed, SpanTrace* trace) : World(trace) {
    LotteryScheduler::Options so;
    so.seed = seed;
    so.backend = RunQueueBackend::kList;
    so.metrics = &reg_;
    if (trace != nullptr) {
      auto timed =
          std::make_unique<TimedScheduler<LotteryScheduler>>(trace, so);
      lottery_ = timed.get();
      sched_ = std::move(timed);
    } else {
      auto plain = std::make_unique<LotteryScheduler>(so);
      lottery_ = plain.get();
      sched_ = std::move(plain);
    }
    Kernel::Options ko;
    ko.quantum = SimDuration::Millis(10);
    ko.metrics = &reg_;
    kernel_ = std::make_unique<Kernel>(sched_.get(), ko);
    port_ = std::make_unique<RpcPort>(kernel_.get(), "db");
    for (int m = 0; m < kMutexes; ++m) {
      mutexes_.push_back(
          std::make_unique<SimMutex>(kernel_.get(), "m" + std::to_string(m)));
    }
    lottery::Currency* base = lottery_->table().base();

    for (int w = 0; w < kWorkers; ++w) {
      std::unique_ptr<ThreadBody> body;
      if (trace != nullptr) {
        body = std::make_unique<TracedWorker>(port_.get(), trace);
      } else {
        body = std::make_unique<lottery::QueryWorker>(port_.get());
      }
      port_->RegisterServer(Spawn("w" + std::to_string(w), std::move(body)));
    }

    lottery::QueryClient::Options qo;
    qo.num_queries = -1;
    qo.query_cost = kQueryCost;
    qo.prepare_cost = kPrepareCost;
    for (int i = 0; i < kClients; ++i) {
      std::unique_ptr<ThreadBody> body;
      if (trace != nullptr) {
        auto c = std::make_unique<TracedClient>(port_.get(), trace);
        const TracedClient* raw = c.get();
        client_completed_.emplace_back([raw] { return raw->completed(); });
        body = std::move(c);
      } else {
        auto c = std::make_unique<lottery::QueryClient>(port_.get(), qo);
        const lottery::QueryClient* raw = c.get();
        client_completed_.emplace_back([raw] { return raw->completed(); });
        body = std::move(c);
      }
      const ThreadId tid = Spawn("q" + std::to_string(i), std::move(body));
      clients_.push_back(tid);
      ScopedSpan s(trace_, Span::kCurrency);
      lottery_->FundThread(tid, base, ClientAmount(i));
    }

    for (int i = 0; i < kLockers; ++i) {
      SimMutex* mutex = mutexes_[static_cast<size_t>(i % kMutexes)].get();
      const uint32_t jitter_seed = SubSeed(seed, 2, static_cast<uint64_t>(i));
      std::unique_ptr<ThreadBody> body;
      if (trace != nullptr) {
        auto l = std::make_unique<TracedLocker>(mutex, jitter_seed, trace);
        const TracedLocker* raw = l.get();
        locker_cycles_.emplace_back([raw] { return raw->cycles(); });
        body = std::move(l);
      } else {
        lottery::MutexTask::Options mo;
        mo.hold = kHoldTime;
        mo.compute = kComputeTime;
        mo.jitter = kJitter;
        mo.jitter_seed = jitter_seed;
        auto l = std::make_unique<lottery::MutexTask>(mutex, mo);
        const lottery::MutexTask* raw = l.get();
        locker_cycles_.emplace_back([raw] { return raw->cycles(); });
        body = std::move(l);
      }
      const ThreadId tid = Spawn("l" + std::to_string(i), std::move(body));
      ScopedSpan s(trace_, Span::kCurrency);
      lottery_->FundThread(tid, base, kLockerFunding);
    }

    for (int i = 0; i < kMc; ++i) {
      std::unique_ptr<McBody> body;
      if (trace != nullptr) {
        body = std::make_unique<TracedMc>(seed, i, trace);
      } else {
        body = std::make_unique<PlainMc>(seed, i);
      }
      McBody* raw = body.get();
      mc_.push_back(raw);
      const ThreadId tid = Spawn("mc" + std::to_string(i), std::move(body));
      ScopedSpan s(trace_, Span::kCurrency);
      raw->Attach(&lottery_->table(),
                  lottery_->FundThread(tid, base,
                                       McOptions(0).max_amount));
    }

    lottery::ts::Sampler::Options to;
    to.interval = SimDuration::Millis(100);
    sampler_ = std::make_unique<lottery::ts::Sampler>(kernel_.get(), to);
    sampler_->AttachScheduler(lottery_);
    for (int c = 0; c < kClasses; ++c) {
      sampler_->Track(clients_[static_cast<size_t>(c)],
                      "cls" + std::to_string(c));
    }
    if (trace != nullptr) {
      timed_hook_ = std::make_unique<TimedHook>(sampler_.get(), trace);
      kernel_->SetSampler(timed_hook_.get());
    } else {
      kernel_->SetSampler(sampler_.get());
    }
  }

  ~IpcTransferWorld() override { kernel_->SetSampler(nullptr); }

  void MarkWindow() override { mark_completed_ = ClassCompleted(); }

  ShareResult Share() override {
    std::vector<double> service = ClassCompleted();
    std::vector<double> weight(kClasses, 0.0);
    int64_t units = 0;
    for (int i = 0; i < kClients; ++i) {
      weight[static_cast<size_t>(i % kClasses)] +=
          static_cast<double>(ClientAmount(i));
    }
    for (size_t c = 0; c < service.size(); ++c) {
      service[c] -= mark_completed_[c];
      units += static_cast<int64_t>(service[c]);
    }
    return ShareOf(service, weight, units, kSlackPct);
  }

  void Check(Checks& checks) override {
    // RPC accounting: every call is either replied to or in flight, and a
    // client has a call in flight exactly while it is blocked.
    const lottery::obs::LatencyHistogram* lat =
        reg_.FindHistogram("rpc.latency_us");
    const int64_t replies =
        lat == nullptr ? 0 : static_cast<int64_t>(lat->count());
    const auto calls = static_cast<int64_t>(port_->total_calls());
    int64_t blocked = 0;
    for (const ThreadId tid : clients_) {
      blocked += kernel_->ThreadRunnable(tid) ? 0 : 1;
    }
    checks.Expect(replies == calls - blocked,
                  "rpc: replies " + std::to_string(replies) + " != calls " +
                      std::to_string(calls) + " - in flight " +
                      std::to_string(blocked));
    int64_t completed = 0;
    for (const auto& f : client_completed_) {
      completed += f();
    }
    // A client counts a reply on its next dispatch, so at most one reply
    // per client is delivered but not yet counted.
    checks.Expect(completed <= replies && replies - completed <= kClients,
                  "rpc: clients completed " + std::to_string(completed) +
                      " vs replies " + std::to_string(replies));
    checks.Expect(CounterOf(reg_, "rpc.calls") == calls,
                  "rpc: rpc.calls counter disagrees with the port");

    // Mutex accounting: each locker holds at most one acquisition that has
    // not yet finished its cycle.
    int64_t acquisitions = 0;
    for (const auto& m : mutexes_) {
      acquisitions += static_cast<int64_t>(m->acquisitions());
    }
    int64_t cycles = 0;
    for (const auto& f : locker_cycles_) {
      cycles += f();
    }
    checks.Expect(acquisitions == CounterOf(reg_, "mutex.acquisitions"),
                  "mutex: acquisitions disagree with mutex.acquisitions");
    checks.Expect(cycles <= acquisitions && acquisitions - cycles <= kLockers,
                  "mutex: cycles " + std::to_string(cycles) +
                      " vs acquisitions " + std::to_string(acquisitions));

    for (const McBody* mc : mc_) {
      const double est = mc->estimate();
      checks.Expect(std::isfinite(est) &&
                        (mc->trials() < 1000 || std::abs(est - std::numbers::pi) < 0.25),
                    "montecarlo: estimate " + std::to_string(est));
    }
  }

 private:
  // Client-side CPU and the FIFO port queue sit between funding and query
  // rate, so rates track entitlement only to within a few percent.
  static constexpr double kSlackPct = 5.0;

  static int64_t ClientAmount(int i) { return 100 * (1 + i % kClasses); }

  std::vector<double> ClassCompleted() const {
    std::vector<double> done(kClasses, 0.0);
    for (size_t i = 0; i < client_completed_.size(); ++i) {
      done[i % kClasses] += static_cast<double>(client_completed_[i]());
    }
    return done;
  }

  LotteryScheduler* lottery_ = nullptr;
  // After the kernel (declared in World): destroyed first, so their exit
  // observers unregister from a live kernel and their transfer tickets
  // return to a live currency table.
  std::unique_ptr<RpcPort> port_;
  std::vector<std::unique_ptr<SimMutex>> mutexes_;
  std::unique_ptr<lottery::ts::Sampler> sampler_;
  std::unique_ptr<TimedHook> timed_hook_;
  std::vector<ThreadId> clients_;
  std::vector<std::function<int64_t()>> client_completed_;
  std::vector<std::function<int64_t()>> locker_cycles_;
  std::vector<McBody*> mc_;
  std::vector<double> mark_completed_;
};

}  // namespace

World::~World() = default;

void World::Run(SimDuration d) {
  ScopedSpan s(trace_, Span::kKernelRun);
  kernel_->RunFor(d);
}

std::unique_ptr<ThreadBody> World::Timed(std::unique_ptr<ThreadBody> body) {
  if (trace_ == nullptr) {
    return body;
  }
  return std::make_unique<TimedBody>(std::move(body), trace_);
}

ThreadId World::Spawn(const std::string& name,
                      std::unique_ptr<ThreadBody> body) {
  const ThreadId tid = kernel_->Spawn(name, Timed(std::move(body)));
  tids_.push_back(tid);
  return tid;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"smp_compute", "population",
                                                 "ipc_transfer"};
  return names;
}

Shape ShapeOf(const std::string& workload) {
  if (workload == "smp_compute") {
    return Shape{SimDuration::Millis(200), SimDuration::Seconds(1), 150, 15,
                 size_t{2500000}};
  }
  if (workload == "population") {
    return Shape{SimDuration::Millis(200), SimDuration::Seconds(1), 200, 3,
                 size_t{1500000}};
  }
  if (workload == "ipc_transfer") {
    return Shape{SimDuration::Seconds(5), SimDuration::Seconds(5), 200, 31,
                 size_t{3000000}};
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

std::unique_ptr<World> MakeWorld(const std::string& workload, uint32_t seed,
                                 SpanTrace* trace) {
  if (workload == "smp_compute") {
    return std::make_unique<SmpComputeWorld>(seed, trace);
  }
  if (workload == "population") {
    return std::make_unique<PopulationWorld>(seed, trace);
  }
  if (workload == "ipc_transfer") {
    return std::make_unique<IpcTransferWorld>(seed, trace);
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

}  // namespace perfbench
