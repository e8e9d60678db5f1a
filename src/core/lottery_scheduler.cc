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
      run_queue_(options.move_to_front),
      alias_queue_(options.alias),
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
  if (options_.backend != RunQueueBackend::kList) {
    // The list backend needs no scheduler-side tracking: run_queue_ itself
    // observes the table for its cached total.
    table_.AddObserver(this);
  }
}

LotteryScheduler::~LotteryScheduler() {
  table_.RemoveObserver(this);  // no-op under the list backend
}

void LotteryScheduler::OnClientValueDirty(Client* client) {
  ++value_epoch_;
  // Unowned clients (a removed thread's, mid-teardown) have no weight to
  // resync.
  ThreadState* state = OwnerOf(client);
  if (state != nullptr && state->dirty_pos == kNotDirty) {
    state->dirty_pos = dirty_.size();
    dirty_.push_back(state);
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
}

// --- Tree/alias queue dispatch ---------------------------------------------

bool LotteryScheduler::QueueEmpty() const {
  return options_.backend == RunQueueBackend::kAlias ? alias_queue_.empty()
                                                     : tree_queue_.empty();
}

size_t LotteryScheduler::QueueSize() const {
  return options_.backend == RunQueueBackend::kAlias ? alias_queue_.size()
                                                     : tree_queue_.size();
}

uint64_t LotteryScheduler::QueueTotal() const {
  return options_.backend == RunQueueBackend::kAlias ? alias_queue_.total()
                                                     : tree_queue_.total();
}

uint64_t LotteryScheduler::QueueWeight(size_t slot) const {
  return options_.backend == RunQueueBackend::kAlias
             ? alias_queue_.Weight(slot)
             : tree_queue_.Weight(slot);
}

size_t LotteryScheduler::QueueAdd(uint64_t weight) {
  return options_.backend == RunQueueBackend::kAlias ? alias_queue_.Add(weight)
                                                     : tree_queue_.Add(weight);
}

void LotteryScheduler::QueueRemove(size_t slot) {
  if (options_.backend == RunQueueBackend::kAlias) {
    alias_queue_.Remove(slot);
  } else {
    tree_queue_.Remove(slot);
  }
}

void LotteryScheduler::QueueSetWeight(size_t slot, uint64_t weight) {
  if (options_.backend == RunQueueBackend::kAlias) {
    alias_queue_.SetWeight(slot, weight);
  } else {
    tree_queue_.SetWeight(slot, weight);
  }
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
      table_.CreateTicket(state.currency, options_.thread_ticket_amount);
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
    if (options_.backend == RunQueueBackend::kList) {
      run_queue_.Remove(&state.client);
    } else {
      util::SeqGuard guard(queue_seq_);
      QueueRemove(state.tree_slot);
      tree_slot_owner_[state.tree_slot] = nullptr;
    }
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
  state.client.SetActive(true);
  if (!state.in_queue) {
    if (options_.backend == RunQueueBackend::kList) {
      run_queue_.Add(&state.client);
    } else {
      util::SeqGuard guard(queue_seq_);
      state.tree_slot = QueueAdd(state.client.Value().raw_unsigned());
      if (state.tree_slot >= tree_slot_owner_.size()) {
        tree_slot_owner_.resize(state.tree_slot + 1, nullptr);
      }
      tree_slot_owner_[state.tree_slot] = &state;
      // The slot was seeded with the current value; any pending dirty mark
      // (e.g. from the unblock activation above) is already folded in.
      ClearDirty(state);
    }
    state.in_queue = true;
  }
  LOT_ASSERT(state.in_queue && state.client.active(),
             "OnReady left thread " + std::to_string(id) + " not competing");
}

void LotteryScheduler::OnBlocked(ThreadId id, SimTime /*now*/) {
  ThreadState& state = StateOf(id);
  if (state.in_queue) {
    if (options_.backend == RunQueueBackend::kList) {
      run_queue_.Remove(&state.client);
    } else {
      util::SeqGuard guard(queue_seq_);
      QueueRemove(state.tree_slot);
      tree_slot_owner_[state.tree_slot] = nullptr;
    }
    state.in_queue = false;
  }
  state.client.SetActive(false);
  LOT_ASSERT(!state.in_queue && !state.client.active(),
             "OnBlocked left thread " + std::to_string(id) + " competing");
}

void LotteryScheduler::SyncTreeWeights() {
  if (dirty_.empty()) {
    return;
  }
  if (dirty_.size() > QueueSize()) {
    // More dirty clients than queued slots: one bulk pass is cheaper than
    // per-client lookups (and covers the first sync after mass arrivals).
    full_syncs_->Inc();
    for (ThreadState* state : tree_slot_owner_) {
      if (state == nullptr) {
        continue;
      }
      QueueSetWeight(state->tree_slot, state->client.Value().raw_unsigned());
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
      QueueSetWeight(state->tree_slot, state->client.Value().raw_unsigned());
      leaf_updates_->Inc();
    }
  }
  for (ThreadState* state : dirty_) {
    state->dirty_pos = kNotDirty;
  }
  dirty_.clear();
}

ThreadId LotteryScheduler::PickNextFromTree() {
  util::SeqGuard guard(queue_seq_);
  if (QueueEmpty()) {
    return kInvalidThreadId;
  }
  const bool alias_backend = options_.backend == RunQueueBackend::kAlias;
  ++num_lotteries_;
  draws_->Inc();
  // Sample the wall-clock sync/draw split on the histogram cadence; the
  // clock reads would otherwise dominate a tree dispatch.
  const bool timed = obs::kObsEnabled && (timing_tick_++ % 16 == 0);
  std::chrono::steady_clock::time_point t0;  // lotlint: wallclock-ok
  if (timed) {
    t0 = std::chrono::steady_clock::now();  // lotlint: wallclock-ok
  }
  SyncTreeWeights();
#if LOT_INVARIANTS_ENABLED
  // Sampled O(n) sweep: the partial-sum total must equal the sum of the
  // live slots' weights, or incremental SetWeight updates have drifted.
  if (timing_tick_ % 64 == 1) {
    uint64_t weight_sum = 0;
    for (ThreadState* s : tree_slot_owner_) {
      if (s != nullptr) {
        weight_sum += QueueWeight(s->tree_slot);
      }
    }
    LOT_ASSERT(weight_sum == QueueTotal(),
               "tree lottery: partial sums out of sync with slot weights");
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
  // them, in slot order — the prefix order SlotForValue resolves against,
  // so each winner is re-derivable from (snapshot, random value). Alias
  // table draws are the exception; their decision events carry
  // kDecisionAlias so auditors skip the replay.
  if (etrace::On(options_.trace, etrace::kCatLotterySnapshot)) {
    uint32_t index = 0;
    for (size_t slot = 0; slot < tree_slot_owner_.size(); ++slot) {
      ThreadState* state = tree_slot_owner_[slot];
      if (state == nullptr) {
        continue;
      }
      etrace::Event e;
      e.t_ns = options_.trace->now();
      e.a = state->id;
      e.b = index++;
      e.v1 = QueueWeight(slot);
      e.type = static_cast<uint16_t>(etrace::EventType::kCandidate);
      options_.trace->Append(e);
    }
  }
  ThreadState* winner = nullptr;
  uint64_t drawn_value = 0;
  std::optional<size_t> drawn;
  bool alias_table_draw = false;
  if (alias_backend) {
    drawn = alias_queue_.Draw(rng_, &drawn_value, &alias_table_draw);
    // Mirror the AliasLottery's internal stats into counters by delta.
    alias_rebuilds_->Inc(alias_queue_.rebuilds() - alias_rebuilds_seen_);
    alias_rebuilds_seen_ = alias_queue_.rebuilds();
    alias_table_draws_->Inc(alias_queue_.table_draws() -
                            alias_table_draws_seen_);
    alias_table_draws_seen_ = alias_queue_.table_draws();
    alias_tree_draws_->Inc(alias_queue_.tree_draws() -
                           alias_tree_draws_seen_);
    alias_tree_draws_seen_ = alias_queue_.tree_draws();
  } else {
    drawn = tree_queue_.Draw(rng_, &drawn_value);
  }
  const size_t cost = alias_table_draw ? 1
                     : alias_backend  ? alias_queue_.draw_depth()
                                      : tree_queue_.draw_depth();
  draw_cost_->RecordSampled(cost);
  if (drawn.has_value()) {
    winner = tree_slot_owner_[*drawn];
  } else {
    // All ready clients have zero funding; pick arbitrarily so no one
    // starves (uniform over the zero-funded set across draws).
    size_t index = static_cast<size_t>(
        rng_.NextBelow(static_cast<uint32_t>(QueueSize())));
    drawn_value = index;  // decision event: index into live slots
    for (ThreadState* state : tree_slot_owner_) {
      if (state == nullptr) {
        continue;
      }
      if (index-- == 0) {
        winner = state;
        break;
      }
    }
    ++num_zero_fallbacks_;
    zero_fallbacks_->Inc();
  }
  LOT_ASSERT(winner != nullptr, "tree draw returned no winner");
  if (etrace::On(options_.trace, etrace::kCatLottery)) {
    etrace::Event e;
    e.t_ns = options_.trace->now();
    e.a = winner->id;
    e.v1 = drawn_value;
    e.v2 = QueueTotal();
    e.v3 = QueueWeight(winner->tree_slot);
    uint16_t flags = alias_table_draw ? etrace::kDecisionAlias
                                      : etrace::kDecisionTree;
    if (!drawn.has_value()) {
      flags |= etrace::kDecisionFallback;
    }
    e.flags = flags;
    e.type = static_cast<uint16_t>(etrace::EventType::kDecision);
    options_.trace->Append(e);
  }
  QueueRemove(winner->tree_slot);
  tree_slot_owner_[winner->tree_slot] = nullptr;
  winner->in_queue = false;
  compensation_.OnQuantumStart(&winner->client);
  if (timed) {
    const auto t2 = std::chrono::steady_clock::now();  // lotlint: wallclock-ok
    tree_draw_ns_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1)
            .count()));
  }
  return winner->id;
}

ThreadId LotteryScheduler::PickNext(SimTime now) {
  // Advance the trace's sim-time cursor: everything recorded from here to
  // the dispatch (decisions, reprices, transfer churn) stamps this instant.
  etrace::SetNow(options_.trace, now.nanos());
  if (options_.backend != RunQueueBackend::kList) {
    return PickNextFromTree();
  }
  if (run_queue_.empty()) {
    return kInvalidThreadId;
  }
  ++num_lotteries_;
  draws_->Inc();
  // Candidate snapshot (verbose, opt-in) in list order, captured before the
  // draw's move-to-front mutates it: the winner is the first candidate
  // whose running value sum exceeds the drawn random value.
  if (etrace::On(options_.trace, etrace::kCatLotterySnapshot)) {
    uint32_t index = 0;
    for (Client* candidate : run_queue_.raw_order()) {
      if (candidate == nullptr) {
        continue;
      }
      const ThreadState* owner = OwnerOf(candidate);
      etrace::Event e;
      e.t_ns = options_.trace->now();
      e.a = owner != nullptr ? owner->id : kInvalidThreadId;
      e.b = index++;
      e.v1 = candidate->Value().raw_unsigned();
      e.type = static_cast<uint16_t>(etrace::EventType::kCandidate);
      options_.trace->Append(e);
    }
  }
  const uint64_t scanned_before = run_queue_.total_scanned();
  uint64_t drawn_value = 0;
  Client* winner = run_queue_.Draw(rng_, &drawn_value);
  draw_cost_->RecordSampled(run_queue_.total_scanned() - scanned_before);
  bool fallback = false;
  if (winner == nullptr) {
    // Every ready client currently has zero funding (e.g. all their backing
    // is deactivated). Degrade to round-robin so no one starves: take the
    // front; the requeue path appends, rotating the list.
    winner = run_queue_.Front();
    fallback = true;
    ++num_zero_fallbacks_;
    zero_fallbacks_->Inc();
  }
  // Total/value reads below are cache hits (the draw just refreshed them);
  // capture before Remove() deducts the winner from the cached total.
  if (etrace::On(options_.trace, etrace::kCatLottery)) {
    etrace::Event e;
    e.t_ns = options_.trace->now();
    e.v1 = drawn_value;
    e.v2 = run_queue_.Total().raw_unsigned();
    e.v3 = winner->Value().raw_unsigned();
    e.flags = fallback ? etrace::kDecisionFallback : uint16_t{0};
    e.type = static_cast<uint16_t>(etrace::EventType::kDecision);
    const ThreadState* owner = OwnerOf(winner);
    e.a = owner != nullptr ? owner->id : kInvalidThreadId;
    options_.trace->Append(e);
  }
  run_queue_.Remove(winner);
  ThreadState* owner = OwnerOf(winner);
  if (owner == nullptr) {
    throw std::logic_error("LotteryScheduler::PickNext: orphan client");
  }
  owner->in_queue = false;
  // The thread starts its next quantum: any compensation ticket expires
  // (Section 4.5). Its tickets stay active while it runs.
  compensation_.OnQuantumStart(winner);
  LOT_ASSERT(!winner->has_compensation(),
             "quantum start left a live compensation factor on " +
                 winner->name());
  return owner->id;
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
  if (options_.backend == RunQueueBackend::kList) {
    return run_queue_.size();
  }
  util::SeqGuard guard(queue_seq_);
  return QueueSize();
}

uint64_t LotteryScheduler::RunnableTickets() {
  if (options_.backend == RunQueueBackend::kList) {
    return run_queue_.Total().raw_unsigned();
  }
  util::SeqGuard guard(queue_seq_);
  SyncTreeWeights();
  return QueueTotal();
}

std::optional<uint64_t> LotteryScheduler::CleanRunnableTickets() const {
  if (options_.backend == RunQueueBackend::kList) {
    return std::nullopt;
  }
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
  if (options_.backend == RunQueueBackend::kList) {
    for (Client* client : run_queue_.ClientsInOrder()) {
      const ThreadState* state = OwnerOf(client);
      if (state == nullptr) {
        continue;
      }
      out.emplace_back(state->id, client->Value().raw_unsigned());
    }
    return out;
  }
  util::SeqGuard guard(queue_seq_);
  SyncTreeWeights();
  out.reserve(QueueSize());
  // Slot order: small dense indices, stable between structural changes.
  for (ThreadState* state : tree_slot_owner_) {
    if (state == nullptr) {
      continue;
    }
    out.emplace_back(state->id, QueueWeight(state->tree_slot));
  }
  return out;
}

}  // namespace lottery
