// LotteryScheduler: the paper's CPU scheduler, behind the generic
// sched::Scheduler interface.
//
// Structure mirrors the Mach prototype (Section 4): every thread gets its
// own currency plus a self ticket issued in it; experiments fund thread
// currencies with tickets denominated in user/task currencies, forming the
// currency graph of Figure 3. The run queue holds flat weights — the
// paper's list with move-to-front by default, its tree of partial sums, or
// an alias table over the tree — and one pick path serves all three; the
// scheduler observes the currency table and re-pushes the values of just
// the clients it reports dirty. Compensation tickets are granted on
// under-consumed quanta and cleared when the thread next starts a quantum;
// blocked threads deactivate, which is what gives ticket transfers their
// semantics.

#ifndef SRC_CORE_LOTTERY_SCHEDULER_H_
#define SRC_CORE_LOTTERY_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/alias_lottery.h"
#include "src/core/client.h"
#include "src/core/compensation.h"
#include "src/core/currency.h"
#include "src/core/list_lottery.h"
#include "src/core/tree_lottery.h"
#include "src/obs/registry.h"
#include "src/sched/scheduler.h"
#include "src/util/fastrand.h"
#include "src/util/thread_safety.h"

namespace lottery {

// How the run queue picks winners. kList is the prototype's list with
// move-to-front (Section 4.2, Figure 1); kTree is the same section's "tree
// of partial ticket sums", O(lg n) per draw once client values are synced;
// kAlias layers a Walker alias table over the tree for O(1) draws while
// ticket values hold still, falling back to the tree under churn (see
// alias_lottery.h for the rebuild hysteresis).
enum class RunQueueBackend { kList, kTree, kAlias };

class LotteryScheduler : public Scheduler, private ValueObserver {
 public:
  struct Options {
    uint32_t seed = 12345;
    RunQueueBackend backend = RunQueueBackend::kList;
    CompensationPolicy::Options compensation;
    // List backend limit: the list's O(n) draw is ~280x the tree's at 10k
    // clients, so AddThread throws std::length_error past this many threads
    // (choose kTree or kAlias instead). 0 disables the limit (benches that
    // measure the list's scaling curve opt out).
    size_t list_max_threads = 1024;
    // Metric sink; nullptr selects obs::Registry::Default(). Tests pass
    // their own registry for isolated counter assertions.
    obs::Registry* metrics = nullptr;
    // Structured-event trace (optional). The scheduler records kCatLottery
    // decision events (drawn random value, total tickets, winner) and — when
    // kCatLotterySnapshot is enabled — a per-candidate ticket snapshot ahead
    // of each decision, enough to re-derive every winner offline (tracectl
    // summarize / tests). The currency table shares the same buffer. The
    // RNG sequence is identical with or without tracing.
    etrace::TraceBuffer* trace = nullptr;
  };

  LotteryScheduler() : LotteryScheduler(Options{}) {}
  explicit LotteryScheduler(Options options);
  ~LotteryScheduler() override;

  // --- Scheduler interface -------------------------------------------------
  void AddThread(ThreadId id, SimTime now) override;
  void RemoveThread(ThreadId id, SimTime now) override;
  void OnReady(ThreadId id, SimTime now) override;
  void OnBlocked(ThreadId id, SimTime now) override;
  ThreadId PickNext(SimTime now) override;
  void OnQuantumEnd(ThreadId id, SimDuration used, SimDuration quantum,
                    SimTime now) override;
  std::string name() const override { return "lottery"; }

  // --- Funding API (the paper's user-level commands) -----------------------

  CurrencyTable& table() { return table_; }
  // The per-thread currency that transfers and funding tickets target.
  Currency* thread_currency(ThreadId id);
  Client* client(ThreadId id);

  // Issues a ticket of `amount` in `denomination` and funds the thread's
  // currency with it (the `fund` command). `principal` is checked against
  // the denomination's ACL. Returned ticket stays owned by the table; use
  // table().SetAmount for dynamic inflation, or table().DestroyTicket to
  // withdraw it.
  Ticket* FundThread(ThreadId id, Currency* denomination, int64_t amount,
                     const std::string& principal = "");

  // Current value of the thread in base units (0 if blocked).
  Funding ThreadValue(ThreadId id);

  // --- Timeseries sampling support (src/obs/timeseries/) -------------------

  // The thread's value with any compensation multiplier divided back out —
  // the base entitlement the fairness-lag auditor accrues against. Defined
  // whether or not the thread is queued (the sampler decides inclusion from
  // the kernel's runnable bit, which also covers the currently-running
  // thread the queue no longer holds). Zero for threads not in this table.
  // Read-only: exact integer rescale, never touches the RNG or the queue.
  Funding ThreadBaseValue(ThreadId id);

  // --- SMP partitioning support (src/sched/smp/) ---------------------------
  // Read-only views the SmpScheduler's balancer consults between dispatches.

  // True iff `id` has been AddThread'ed here and not removed.
  bool HasThread(ThreadId id) const;
  // True iff the thread is sitting in the run queue (ready, not dispatched).
  bool IsQueued(ThreadId id) const;
  // Number of queued (ready, undispatched) threads.
  size_t QueuedCount() const;
  // Total runnable ticket value across the run queue, in raw Funding units.
  // Incremental: flushes only the clients the currency table marked dirty
  // since the last sync (the same pass a dispatch would run).
  uint64_t RunnableTickets();
  // (thread, raw value) of every queued thread, in the queue's draw order
  // (move-to-front order for the list, slot order for tree and alias) —
  // the candidate set for the balancer's steal lottery.
  std::vector<std::pair<ThreadId, uint64_t>> QueuedSnapshot();
  // Bumped by every value-dirty notification from this scheduler's
  // currency table (funding, activation on wake/block/add/remove,
  // compensation, any repricing), and by nothing else: picks and requeues
  // leave it alone. While it is unchanged, no client's value has changed,
  // so RunnableTickets() and the ThreadValue() of a thread whose value was
  // already read are pure reads. The SMP balancer caches on it. A client
  // already pending on dirty_ is not re-notified, but its first
  // notification bumped the epoch after the last sync, and every sync
  // (which any cached reading follows) consumes all pending clients.
  uint64_t value_epoch() const { return value_epoch_; }
  // Side-effect-free forms of RunnableTickets() and ThreadValue() for
  // integrity checks: the value the call would return, or nullopt when it
  // would first have to flush dirty clients or reprice.
  std::optional<uint64_t> CleanRunnableTickets() const;
  std::optional<uint64_t> CleanThreadValue(ThreadId id) const;

  FastRand& rng() { return rng_; }  // lotlint: stream(scheduler)
  const CompensationPolicy& compensation() const { return compensation_; }

  // Attaches (or detaches, with nullptr) the structured-event trace at
  // runtime — both the scheduler's own decision hooks and the currency
  // table's. Never perturbs the RNG sequence, so toggling between runs of
  // the same seed keeps the schedule identical (bench_obs_overhead A/Bs
  // tracing on one world this way).
  void SetTrace(etrace::TraceBuffer* trace);

  // --- Instrumentation ------------------------------------------------------
  uint64_t num_lotteries() const { return num_lotteries_; }
  // Draws decided by the zero-funding round-robin fallback.
  uint64_t num_zero_fallbacks() const { return num_zero_fallbacks_; }
  // The backend chosen at construction; it never changes afterwards.
  RunQueueBackend backend() const { return options_.backend; }
  // Escapes the queue_seq_ domain: hands out a reference tests/benches
  // inspect between dispatches, when no pick is in flight.
  const AliasLottery& alias_queue() const NO_THREAD_SAFETY_ANALYSIS {
    return alias_queue_;
  }
  // Counts one ticket transfer against this scheduler (lottery.transfers).
  // Called by the kernel services (mutex, RPC) at each TicketTransfer they
  // create on behalf of a blocking thread.
  void NoteTransfer() { transfers_->Inc(); }

 private:
  // Sentinel ThreadState::dirty_pos for a record not on dirty_.
  static constexpr size_t kNotDirty = static_cast<size_t>(-1);
  // Face amount of each thread's self ticket (its claim on its own
  // currency). Any positive value works — shares are relative.
  static constexpr int64_t kThreadTicketAmount = 1000;

  struct ThreadState {
    ThreadState(ThreadId tid, CurrencyTable* table, std::string tag)
        : id(tid), client(table, std::move(tag)) {}
    ThreadId id;
    Client client;
    Currency* currency = nullptr;
    Ticket* self_ticket = nullptr;
    bool in_queue = false;
    size_t slot = 0;  // run-queue slot, valid while in_queue
    // Index into dirty_, or kNotDirty.
    size_t dirty_pos = kNotDirty;
  };

  // Directory lookup; nullptr for ids never added or already removed.
  ThreadState* FindState(ThreadId id) const;
  // As FindState, but throws std::invalid_argument for unknown ids.
  ThreadState& StateOf(ThreadId id);
  // The record owning `client`; nullptr for clients no thread owns.
  static ThreadState* OwnerOf(const Client* client) {
    return static_cast<ThreadState*>(client->owner_record());
  }
  // Takes a record off dirty_ (O(1) swap-remove); no-op when clean.
  void ClearDirty(ThreadState& state);
  // Re-pushes into the queue's weights the values of exactly the clients
  // the currency table reported dirty since the last sync — O(dirty) list
  // updates or O(dirty · lg n) tree updates per dispatch instead of
  // repricing every queued client. Falls back to one full resync
  // (tree.full_syncs) when more clients are dirty than queued.
  void SyncWeights() REQUIRES(queue_seq_);

  // Thin dispatch over the backend's queue: the only place the scheduler
  // tells list, tree and alias apart.
  size_t QueueSize() const REQUIRES(queue_seq_);
  uint64_t QueueTotal() const REQUIRES(queue_seq_);
  uint64_t QueueWeight(size_t slot) const REQUIRES(queue_seq_);
  // QueueAdd and QueueSetWeight throw std::overflow_error, leaving the
  // queue untouched, when the new total would pass 2^64 raw units.
  size_t QueueAdd(uint64_t weight) REQUIRES(queue_seq_);
  void QueueRemove(size_t slot) REQUIRES(queue_seq_);
  void QueueSetWeight(size_t slot, uint64_t weight) REQUIRES(queue_seq_);
  void CheckTotalFits(uint64_t old_weight, uint64_t weight) const
      REQUIRES(queue_seq_);
  // Holds one lottery. `drawn_value` receives the random value, `cost` the
  // lottery.draw_cost sample (scan length for the list, descent depth for
  // the tree, 1 for an alias table draw) and `flags` the decision event's
  // draw-kind flags. std::nullopt when the total is zero.
  std::optional<size_t> QueueDraw(uint64_t* drawn_value, size_t* cost,
                                  uint16_t* flags) REQUIRES(queue_seq_);
  // Zero-funding fallback: the list takes the front of its draw order
  // without drawing (the requeue appends, so it rotates round-robin); tree
  // and alias take a uniform index into their live slots. `index` receives
  // the winner's position in draw order.
  size_t QueueFallback(uint64_t* index) REQUIRES(queue_seq_);
  // Calls fn(state, weight) for every queued thread in the queue's draw
  // order.
  template <typename Fn>
  void QueueForEach(Fn&& fn) const REQUIRES(queue_seq_);

  // ValueObserver: bumps value_epoch_ and tracks dirty_.
  void OnClientValueDirty(Client* client) override;

  Options options_;
  FastRand rng_;  // lotlint: stream(scheduler)
  CurrencyTable table_;
  CompensationPolicy compensation_;
  // Serialization domain for the run queue and its slot-to-owner map: the
  // state the SMP per-CPU partitioning must put behind a per-queue lock.
  // PickNext holds it for the whole pick; OnReady/OnBlocked/RemoveThread
  // enter it around their queue mutations. Only the backend's own queue is
  // ever populated.
  mutable util::Seq queue_seq_;
  ListLottery list_queue_ GUARDED_BY(queue_seq_);
  TreeLottery tree_queue_ GUARDED_BY(queue_seq_);
  AliasLottery alias_queue_ GUARDED_BY(queue_seq_);
  // Slot -> owning thread state, nullptr for free slots. Slots are small
  // dense indices recycled by the queue, and each ThreadState is its own
  // allocation with a stable address, so a flat vector of pointers makes
  // winner resolution a single indexed load (a hash map here shows up at
  // 10k clients in bench_draw_overhead's churn rig).
  std::vector<ThreadState*> slot_owner_ GUARDED_BY(queue_seq_);
  // ThreadId -> record. Kernel tids are dense from 1, so the directory costs
  // one pointer per id up to the largest id added.
  std::vector<std::unique_ptr<ThreadState>> by_tid_;
  size_t num_threads_ = 0;
  // The records whose client the currency table has reported dirty since
  // the last sync, each listed once (dirty_pos is the membership flag). Its
  // size is the dirty count behind the full-sync threshold. flush_ is
  // SyncWeights' scratch for the id-sorted flush.
  std::vector<ThreadState*> dirty_;
  std::vector<ThreadState*> flush_;
  uint64_t value_epoch_ = 0;
  uint64_t num_lotteries_ = 0;
  uint64_t num_zero_fallbacks_ = 0;
  uint64_t timing_tick_ = 0;

  // Alias stats are kept by AliasLottery; deltas are mirrored into
  // counters after each draw.
  uint64_t alias_rebuilds_seen_ = 0;
  uint64_t alias_table_draws_seen_ = 0;
  uint64_t alias_tree_draws_seen_ = 0;

  // Obs hooks (resolved once; raw pointers into metrics_).
  obs::Registry* metrics_;
  obs::Counter* draws_;
  obs::Counter* zero_fallbacks_;
  obs::Counter* compensation_grants_;
  obs::Counter* transfers_;
  obs::Counter* leaf_updates_;
  obs::Counter* full_syncs_;
  obs::Counter* alias_rebuilds_;
  obs::Counter* alias_table_draws_;
  obs::Counter* alias_tree_draws_;
  obs::LatencyHistogram* draw_cost_;
  // Wall-clock split of a dispatch: weight sync vs the draw itself
  // (sampled 1-in-16 dispatches; see bench_smp / bench_draw_overhead).
  obs::LatencyHistogram* sync_ns_;
  obs::LatencyHistogram* tree_draw_ns_;
};

}  // namespace lottery

#endif  // SRC_CORE_LOTTERY_SCHEDULER_H_
