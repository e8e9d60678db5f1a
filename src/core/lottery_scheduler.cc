#include "src/core/lottery_scheduler.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <vector>

#include "src/core/invariants.h"
#include "src/obs/etrace/trace_buffer.h"

namespace lottery {

LotteryScheduler::LotteryScheduler(Options options)
    : options_(options),
      rng_(options.seed),
      table_(options.metrics, options.trace),
      compensation_(options.compensation),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : &obs::Registry::Default()),
      draws_(metrics_->counter("lottery.draws")),
      zero_fallbacks_(metrics_->counter("lottery.zero_fallbacks")),
      compensation_grants_(metrics_->counter("lottery.compensation_grants")),
      transfers_(metrics_->counter("lottery.transfers")),
      leaf_updates_(metrics_->counter("tree.leaf_updates")),
      full_syncs_(metrics_->counter("tree.full_syncs")),
      alias_rebuilds_(metrics_->counter("alias.rebuilds")),
      alias_table_draws_(metrics_->counter("alias.table_draws")),
      alias_tree_draws_(metrics_->counter("alias.tree_draws")),
      draw_cost_(metrics_->histogram("lottery.draw_cost")),
      sync_ns_(metrics_->histogram("lottery.sync_ns")),
      tree_draw_ns_(metrics_->histogram("lottery.tree_draw_ns")) {
  table_.AddObserver(this);
}

LotteryScheduler::~LotteryScheduler() { table_.RemoveObserver(this); }

void LotteryScheduler::OnClientValueDirty(Client* client) {
  ++value_epoch_;
  // Unowned clients (a removed thread's, mid-teardown) have no weight to
  // resync.
  ThreadState* state = OwnerOf(client);
  if (state != nullptr && state->dirty_pos == kNotDirty) {
    state->dirty_pos = dirty_.size();
    dirty_.push_back(state);
    // The table stops notifying about this client until the next sync or
    // ClearDirty consumes it.
    client->set_owner_pending(true);
  }
}

void LotteryScheduler::ClearDirty(ThreadState& state) {
  if (state.dirty_pos == kNotDirty) {
    return;
  }
  ThreadState* last = dirty_.back();
  dirty_[state.dirty_pos] = last;
  last->dirty_pos = state.dirty_pos;
  dirty_.pop_back();
  state.dirty_pos = kNotDirty;
  state.client.set_owner_pending(false);
}

// --- Run-queue dispatch ------------------------------------------------------

size_t LotteryScheduler::QueueSize() const {
  switch (options_.backend) {
    case RunQueueBackend::kList: return list_queue_.size();
    case RunQueueBackend::kTree: return tree_queue_.size();
    case RunQueueBackend::kAlias: return alias_queue_.size();
  }
  return 0;
}

uint64_t LotteryScheduler::QueueTotal() const {
  switch (options_.backend) {
    case RunQueueBackend::kList: return list_queue_.total();
    case RunQueueBackend::kTree: return tree_queue_.total();
    case RunQueueBackend::kAlias: return alias_queue_.total();
  }
  return 0;
}

uint64_t LotteryScheduler::QueueWeight(size_t slot) const {
  switch (options_.backend) {
    case RunQueueBackend::kList: return list_queue_.Weight(slot);
    case RunQueueBackend::kTree: return tree_queue_.Weight(slot);
    case RunQueueBackend::kAlias: return alias_queue_.Weight(slot);
  }
  return 0;
}

void LotteryScheduler::CheckTotalFits(uint64_t old_weight,
                                      uint64_t weight) const {
  uint64_t total = 0;
  if (__builtin_add_overflow(QueueTotal() - old_weight, weight, &total)) {
    throw std::overflow_error(
        "LotteryScheduler: run-queue ticket total past 2^64 raw units");
  }
}

size_t LotteryScheduler::QueueAdd(uint64_t weight) {
  CheckTotalFits(0, weight);
  switch (options_.backend) {
    case RunQueueBackend::kList: return list_queue_.Add(weight);
    case RunQueueBackend::kTree: return tree_queue_.Add(weight);
    case RunQueueBackend::kAlias: return alias_queue_.Add(weight);
  }
  return 0;
}

void LotteryScheduler::QueueRemove(size_t slot) {
  switch (options_.backend) {
    case RunQueueBackend::kList: list_queue_.Remove(slot); return;
    case RunQueueBackend::kTree: tree_queue_.Remove(slot); return;
    case RunQueueBackend::kAlias: alias_queue_.Remove(slot); return;
  }
}

void LotteryScheduler::QueueSetWeight(size_t slot, uint64_t weight) {
  CheckTotalFits(QueueWeight(slot), weight);
  switch (options_.backend) {
    case RunQueueBackend::kList: list_queue_.SetWeight(slot, weight); return;
    case RunQueueBackend::kTree: tree_queue_.SetWeight(slot, weight); return;
    case RunQueueBackend::kAlias: alias_queue_.SetWeight(slot, weight); return;
  }
}

std::optional<size_t> LotteryScheduler::QueueDraw(uint64_t* drawn_value,
                                                  size_t* cost,
                                                  uint16_t* flags) {
  switch (options_.backend) {
    case RunQueueBackend::kList: {
      const uint64_t scanned_before = list_queue_.total_scanned();
      const std::optional<size_t> slot = list_queue_.Draw(rng_, drawn_value);
      *cost = list_queue_.total_scanned() - scanned_before;
      // No draw-kind flag: the winner replays against the snapshot's list
      // order.
      *flags = 0;
      return slot;
    }
    case RunQueueBackend::kTree:
      *cost = tree_queue_.draw_depth();
      *flags = etrace::kDecisionTree;
      return tree_queue_.Draw(rng_, drawn_value);
    case RunQueueBackend::kAlias: {
      bool table_draw = false;
      const std::optional<size_t> slot =
          alias_queue_.Draw(rng_, drawn_value, &table_draw);
      // Mirror the AliasLottery's internal stats into counters by delta.
      alias_rebuilds_->Inc(alias_queue_.rebuilds() - alias_rebuilds_seen_);
      alias_rebuilds_seen_ = alias_queue_.rebuilds();
      alias_table_draws_->Inc(alias_queue_.table_draws() -
                              alias_table_draws_seen_);
      alias_table_draws_seen_ = alias_queue_.table_draws();
      alias_tree_draws_->Inc(alias_queue_.tree_draws() -
                             alias_tree_draws_seen_);
      alias_tree_draws_seen_ = alias_queue_.tree_draws();
      *cost = table_draw ? 1 : alias_queue_.draw_depth();
      *flags = table_draw ? etrace::kDecisionAlias : etrace::kDecisionTree;
      return slot;
    }
  }
  return std::nullopt;
}

template <typename Fn>
void LotteryScheduler::QueueForEach(Fn&& fn) const {
  if (options_.backend == RunQueueBackend::kList) {
    const std::vector<ThreadState*>& owners = slot_owner_;
    list_queue_.ForEachInOrder(
        [&](size_t slot, uint64_t weight) { fn(*owners[slot], weight); });
    return;
  }
  for (const ThreadState* state : slot_owner_) {
    if (state != nullptr) {
      fn(*state, QueueWeight(state->slot));
    }
  }
}

size_t LotteryScheduler::QueueFallback(uint64_t* index) {
  const uint64_t target =
      options_.backend == RunQueueBackend::kList
          ? 0
          : rng_.NextBelow(static_cast<uint32_t>(QueueSize()));
  *index = target;
  size_t slot = 0;
  uint64_t position = 0;
  QueueForEach([&](const ThreadState& state, uint64_t /*weight*/) {
    if (position++ == target) {
      slot = state.slot;
    }
  });
  return slot;
}

LotteryScheduler::ThreadState* LotteryScheduler::FindState(
    ThreadId id) const {
  return id < by_tid_.size() ? by_tid_[id].get() : nullptr;
}

LotteryScheduler::ThreadState& LotteryScheduler::StateOf(ThreadId id) {
  ThreadState* state = FindState(id);
  if (state == nullptr) {
    throw std::invalid_argument("LotteryScheduler: unknown thread " +
                                std::to_string(id));
  }
  return *state;
}

void LotteryScheduler::AddThread(ThreadId id, SimTime /*now*/) {
  if (id == kInvalidThreadId) {
    throw std::invalid_argument("LotteryScheduler::AddThread: invalid id");
  }
  if (FindState(id) != nullptr) {
    throw std::invalid_argument("LotteryScheduler::AddThread: duplicate id");
  }
  if (options_.backend == RunQueueBackend::kList &&
      options_.list_max_threads != 0 &&
      num_threads_ >= options_.list_max_threads) {
    // The list's O(n) draw is ~280x the tree's at 10k clients
    // (bench_draw_overhead baselines); past the threshold it is a
    // misconfiguration, not a trade-off.
    throw std::length_error(
        "LotteryScheduler: list backend past list_max_threads=" +
        std::to_string(options_.list_max_threads) +
        " clients; use RunQueueBackend::kTree (or list_max_threads=0)");
  }
  const std::string tag = "thread:" + std::to_string(id);
  auto owned = std::make_unique<ThreadState>(id, &table_, tag);
  ThreadState& state = *owned;
  // Linked before HoldTicket fires the first dirty notification.
  state.client.set_owner_record(&state);
  state.currency = table_.CreateCurrency(tag);
  state.self_ticket =
      table_.CreateTicket(state.currency, kThreadTicketAmount);
  state.client.HoldTicket(state.self_ticket);
  if (id >= by_tid_.size()) {
    by_tid_.resize(static_cast<size_t>(id) + 1);
  }
  by_tid_[id] = std::move(owned);
  ++num_threads_;
  LOT_DCHECK_TABLE(table_);
}

void LotteryScheduler::RemoveThread(ThreadId id, SimTime /*now*/) {
  ThreadState& state = StateOf(id);
  if (state.in_queue) {
    util::SeqGuard guard(queue_seq_);
    QueueRemove(state.slot);
    slot_owner_[state.slot] = nullptr;
  }
  state.client.SetActive(false);
  // Unlinked first: the notifications below (the self ticket's destruction,
  // then the Client destructor releasing any remaining tickets) find no
  // owner and so cannot put the dying record back on dirty_.
  ClearDirty(state);
  state.client.set_owner_record(nullptr);
  table_.DestroyTicket(state.self_ticket);
  Currency* currency = state.currency;
  by_tid_[id].reset();
  --num_threads_;
  // Destroys the thread currency and all tickets funding it. A thread that
  // dies with in-flight transfers (a crashed RPC client whose call is still
  // queued) leaves tickets issued in this currency in others' hands; the
  // currency is then retired — worth zero, reclaimed with its last issued
  // ticket — instead of destroyed outright.
  table_.RetireCurrency(currency);
  LOT_DCHECK_TABLE(table_);
}

void LotteryScheduler::OnReady(ThreadId id, SimTime /*now*/) {
  ThreadState& state = StateOf(id);
  const bool was_active = state.client.active();
  const bool was_dirty = state.dirty_pos != kNotDirty;
  state.client.SetActive(true);
  if (!state.in_queue) {
    util::SeqGuard guard(queue_seq_);
    try {
      state.slot = QueueAdd(state.client.Value().raw_unsigned());
    } catch (const std::overflow_error&) {
      // The thread stays out of the queue, as inactive and as clean as it
      // came in.
      if (!was_active) {
        state.client.SetActive(false);
      }
      if (!was_dirty) {
        ClearDirty(state);
      }
      throw;
    }
    if (state.slot >= slot_owner_.size()) {
      slot_owner_.resize(state.slot + 1, nullptr);
    }
    slot_owner_[state.slot] = &state;
    // The slot was seeded with the current value; any pending dirty mark
    // (e.g. from the unblock activation above) is already folded in.
    ClearDirty(state);
    state.in_queue = true;
  }
  LOT_ASSERT(state.in_queue && state.client.active(),
             "OnReady left thread " + std::to_string(id) + " not competing");
}

void LotteryScheduler::OnBlocked(ThreadId id, SimTime /*now*/) {
  ThreadState& state = StateOf(id);
  if (state.in_queue) {
    util::SeqGuard guard(queue_seq_);
    QueueRemove(state.slot);
    slot_owner_[state.slot] = nullptr;
    state.in_queue = false;
  }
  state.client.SetActive(false);
  LOT_ASSERT(!state.in_queue && !state.client.active(),
             "OnBlocked left thread " + std::to_string(id) + " competing");
}

void LotteryScheduler::SyncWeights() {
  if (dirty_.empty()) {
    return;
  }
  if (dirty_.size() > QueueSize()) {
    // More dirty clients than queued slots: one bulk pass is cheaper than
    // per-client lookups (and covers the first sync after mass arrivals).
    full_syncs_->Inc();
    for (ThreadState* state : slot_owner_) {
      if (state == nullptr) {
        continue;
      }
      QueueSetWeight(state->slot, state->client.Value().raw_unsigned());
    }
  } else {
    // The weights are an order-independent fold, but client.Value() emits
    // kReprice trace events on cache fills, and dirty_ is in mark order
    // (perturbed by swap-removes). Collect the queued survivors and flush
    // in thread-id order so the trace depends only on which threads are
    // dirty.
    flush_.clear();
    for (ThreadState* state : dirty_) {
      if (state->in_queue) {  // else OnReady seeds a fresh weight later
        flush_.push_back(state);
      }
    }
    std::sort(flush_.begin(), flush_.end(),
              [](const ThreadState* a, const ThreadState* b) {
                return a->id < b->id;
              });
    for (ThreadState* state : flush_) {
      QueueSetWeight(state->slot, state->client.Value().raw_unsigned());
      leaf_updates_->Inc();
    }
  }
  for (ThreadState* state : dirty_) {
    state->dirty_pos = kNotDirty;
    state->client.set_owner_pending(false);
  }
  dirty_.clear();
}

ThreadId LotteryScheduler::PickNext(SimTime now) {
  // Advance the trace's sim-time cursor: everything recorded from here to
  // the dispatch (decisions, reprices, transfer churn) stamps this instant.
  etrace::SetNow(options_.trace, now.nanos());
  util::SeqGuard guard(queue_seq_);
  if (QueueSize() == 0) {
    return kInvalidThreadId;
  }
  // Sample the wall-clock sync/draw split on the histogram cadence; the
  // clock reads would otherwise dominate a dispatch.
  const bool timed = obs::kObsEnabled && (timing_tick_++ % 16 == 0);
  std::chrono::steady_clock::time_point t0;  // lotlint: wallclock-ok
  if (timed) {
    t0 = std::chrono::steady_clock::now();  // lotlint: wallclock-ok
  }
  SyncWeights();
#if LOT_INVARIANTS_ENABLED
  // Sampled O(n) sweep: the queue total must equal the sum of the live
  // slots' weights, or incremental SetWeight updates have drifted.
  if (timing_tick_ % 64 == 1) {
    uint64_t weight_sum = 0;
    for (ThreadState* s : slot_owner_) {
      if (s != nullptr) {
        weight_sum += QueueWeight(s->slot);
      }
    }
    LOT_ASSERT(weight_sum == QueueTotal(),
               "run queue: total out of sync with slot weights");
  }
#endif
  std::chrono::steady_clock::time_point t1;  // lotlint: wallclock-ok
  if (timed) {
    t1 = std::chrono::steady_clock::now();  // lotlint: wallclock-ok
    sync_ns_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }
  // Candidate snapshot (verbose, opt-in): weights as the draw below sees
  // them, in draw order — the prefix order the draw resolves against, so
  // each winner is re-derivable from (snapshot, random value). Alias table
  // draws are the exception; their decision events carry kDecisionAlias so
  // auditors skip the replay.
  if (etrace::On(options_.trace, etrace::kCatLotterySnapshot)) {
    uint32_t index = 0;
    QueueForEach([&](const ThreadState& state, uint64_t weight) {
      etrace::Event e;
      e.t_ns = options_.trace->now();
      e.a = state.id;
      e.b = index++;
      e.v1 = weight;
      e.type = static_cast<uint16_t>(etrace::EventType::kCandidate);
      options_.trace->Append(e);
    });
  }
  uint64_t drawn_value = 0;
  size_t cost = 0;
  uint16_t flags = 0;
  const std::optional<size_t> drawn = QueueDraw(&drawn_value, &cost, &flags);
  // Counted only once the draw has returned: a rejected draw (a total past
  // the RNG's range) holds no lottery and leaves the queue as it was.
  ++num_lotteries_;
  draws_->Inc();
  draw_cost_->RecordSampled(cost);
  size_t winner_slot = 0;
  if (drawn.has_value()) {
    winner_slot = *drawn;
  } else {
    // All ready clients have zero funding; pick without regard to funding
    // so no one starves.
    winner_slot = QueueFallback(&drawn_value);
    flags |= etrace::kDecisionFallback;
    ++num_zero_fallbacks_;
    zero_fallbacks_->Inc();
  }
  ThreadState* winner = slot_owner_[winner_slot];
  LOT_ASSERT(winner != nullptr, "run-queue draw returned a free slot");
  if (etrace::On(options_.trace, etrace::kCatLottery)) {
    etrace::Event e;
    e.t_ns = options_.trace->now();
    e.a = winner->id;
    e.v1 = drawn_value;
    e.v2 = QueueTotal();
    e.v3 = QueueWeight(winner_slot);
    e.flags = flags;
    e.type = static_cast<uint16_t>(etrace::EventType::kDecision);
    options_.trace->Append(e);
  }
  QueueRemove(winner_slot);
  slot_owner_[winner_slot] = nullptr;
  winner->in_queue = false;
  // The thread starts its next quantum: any compensation ticket expires
  // (Section 4.5). Its tickets stay active while it runs.
  compensation_.OnQuantumStart(&winner->client);
  LOT_ASSERT(!winner->client.has_compensation(),
             "quantum start left a live compensation factor on " +
                 winner->client.name());
  if (timed) {
    const auto t2 = std::chrono::steady_clock::now();  // lotlint: wallclock-ok
    tree_draw_ns_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1)
            .count()));
  }
  return winner->id;
}

void LotteryScheduler::OnQuantumEnd(ThreadId id, SimDuration used,
                                    SimDuration quantum, SimTime /*now*/) {
  ThreadState& state = StateOf(id);
  if (compensation_.OnQuantumEnd(&state.client, used, quantum)) {
    compensation_grants_->Inc();
  }
  LOT_DCHECK_COMPENSATION(state.client, options_.compensation.max_factor);
}

void LotteryScheduler::SetTrace(etrace::TraceBuffer* trace) {
  options_.trace = trace;
  table_.SetTrace(trace);
}

Currency* LotteryScheduler::thread_currency(ThreadId id) {
  return StateOf(id).currency;
}

Client* LotteryScheduler::client(ThreadId id) { return &StateOf(id).client; }

Ticket* LotteryScheduler::FundThread(ThreadId id, Currency* denomination,
                                     int64_t amount,
                                     const std::string& principal) {
  ThreadState& state = StateOf(id);
  Ticket* ticket = table_.CreateTicket(denomination, amount, principal);
  table_.Fund(state.currency, ticket);
  LOT_DCHECK_TICKET_CONSERVATION(table_);
  return ticket;
}

Funding LotteryScheduler::ThreadValue(ThreadId id) {
  return StateOf(id).client.Value();
}

Funding LotteryScheduler::ThreadBaseValue(ThreadId id) {
  const ThreadState* state = FindState(id);
  if (state == nullptr) {
    return Funding::Zero();
  }
  const Client& client = state->client;
  Funding value = client.Value();
  if (client.has_compensation()) {
    // Value() carries the compensation boost num/den; divide it back out.
    value = value.ScaleBy(client.compensation_den(), client.compensation_num());
  }
  return value;
}

bool LotteryScheduler::HasThread(ThreadId id) const {
  return FindState(id) != nullptr;
}

bool LotteryScheduler::IsQueued(ThreadId id) const {
  const ThreadState* state = FindState(id);
  return state != nullptr && state->in_queue;
}

size_t LotteryScheduler::QueuedCount() const {
  util::SeqGuard guard(queue_seq_);
  return QueueSize();
}

uint64_t LotteryScheduler::RunnableTickets() {
  util::SeqGuard guard(queue_seq_);
  SyncWeights();
  return QueueTotal();
}

std::optional<uint64_t> LotteryScheduler::CleanRunnableTickets() const {
  util::SeqGuard guard(queue_seq_);
  if (!dirty_.empty()) {
    return std::nullopt;
  }
  return QueueTotal();
}

std::optional<uint64_t> LotteryScheduler::CleanThreadValue(ThreadId id) const {
  const ThreadState* state = FindState(id);
  if (state == nullptr || !state->client.value_cached()) {
    return std::nullopt;
  }
  return state->client.Value().raw_unsigned();
}

std::vector<std::pair<ThreadId, uint64_t>> LotteryScheduler::QueuedSnapshot() {
  std::vector<std::pair<ThreadId, uint64_t>> out;
  util::SeqGuard guard(queue_seq_);
  SyncWeights();
  out.reserve(QueueSize());
  QueueForEach([&](const ThreadState& state, uint64_t weight) {
    out.emplace_back(state.id, weight);
  });
  return out;
}

}  // namespace lottery
